// Does the scrub survive the optimizer? This binary is built at -O3 (see
// tests/CMakeLists.txt) and checks the property secure_zero exists for:
// a memset whose buffer is dead afterwards is a candidate for dead-store
// elimination, while core::secure_zero's stores must survive.
//
// Methodology: each worker writes a distinctive 8-byte pattern into a
// stack-local buffer, scrubs it (or not — the positive control), and
// returns. A separate noinline probe then scans its own fresh,
// deliberately-uninitialized stack frame — which overlaps the worker's
// retired frame — for the pattern. If the positive control leaves no
// residue, stack layout on this platform/compiler makes the probe blind
// and the test SKIPs rather than asserting on luck. When the control does
// show residue, secure_zero must show none; the memset variant's result is
// reported for the record (GCC and clang differ on whether they elide it).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/secure_zero.hpp"

namespace {

constexpr std::size_t kBufWords = 64;  // 512 B of patterned stack
constexpr std::uint64_t kPattern = 0xfeedc0dedeadbeafULL;

enum class Scrub { kNone, kMemset, kSecureZero };

// The worker: patterned secret on the stack, optionally scrubbed. noinline
// keeps the frame layout of all three variants identical; the asm barrier
// forces the pattern stores to actually happen before the scrub.
__attribute__((noinline)) void worker(Scrub how) {
  std::uint64_t secret[kBufWords];
  for (std::size_t i = 0; i < kBufWords; ++i) secret[i] = kPattern;
  asm volatile("" : : "r"(secret) : "memory");
  switch (how) {
    case Scrub::kNone:
      break;
    case Scrub::kMemset:
      // Plain memset of a buffer that is dead after this point — exactly
      // the store -O3 is entitled to eliminate.
      std::memset(secret, 0, sizeof(secret));
      break;
    case Scrub::kSecureZero:
      keyguard::secure::secure_zero(secret, sizeof(secret));
      break;
  }
}

// The probe: counts occurrences of the pattern in its own uninitialized
// frame. The pointer is laundered through an asm so the compiler cannot
// assume anything about the array's (indeterminate) contents or warn about
// the deliberate uninitialized read.
__attribute__((noinline)) int probe() {
  std::uint64_t residue[kBufWords * 2];
  std::uint64_t* p = residue;
  asm volatile("" : "+r"(p));
  int hits = 0;
  for (std::size_t i = 0; i < kBufWords * 2; ++i) {
    std::uint64_t v;
    std::memcpy(&v, p + i, sizeof(v));
    if (v == kPattern) ++hits;
  }
  return hits;
}

__attribute__((noinline)) int residue_after(Scrub how) {
  worker(how);
  return probe();
}

}  // namespace

TEST(ScrubSurvival, SecureZeroSurvivesDeadStoreElimination) {
  const int control = residue_after(Scrub::kNone);
  if (control == 0) {
    GTEST_SKIP() << "stack probe is blind on this platform/compiler "
                    "(positive control shows no residue)";
  }

  const int after_secure = residue_after(Scrub::kSecureZero);
  EXPECT_EQ(after_secure, 0)
      << "core::secure_zero left " << after_secure
      << " patterned words on the retired stack frame at -O3";

  const int after_memset = residue_after(Scrub::kMemset);
  // Informational: whether this compiler elided the plain memset. Both
  // outcomes are legal; the point is that secure_zero may not rely on luck.
  RecordProperty("memset_residue_words", after_memset);
  RecordProperty("control_residue_words", control);
  SUCCEED() << "control residue " << control << ", after memset "
            << after_memset << ", after secure_zero " << after_secure;
}
