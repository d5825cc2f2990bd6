#include "core/secure_zero.hpp"

#include <cstring>

namespace keyguard::secure {

void secure_zero(void* p, std::size_t n) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  // The barrier takes p and clobbers memory, so the compiler must assume
  // it reads the zeroed bytes: the memset cannot be elided, and it stays
  // ordered before whatever frees or reuses the memory afterwards (the
  // explicit_bzero / memzero_explicit idiom, at memset's speed).
  if (n == 0) return;
  std::memset(p, 0, n);
  __asm__ __volatile__("" : : "r"(p) : "memory");
#else
  // Volatile qualification forces every store to be emitted.
  volatile unsigned char* vp = static_cast<volatile unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) vp[i] = 0;
#endif
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
namespace {

#define KEYGUARD_XMM0_15                                                               \
  "xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5", "xmm6", "xmm7", "xmm8", "xmm9", "xmm10", \
      "xmm11", "xmm12", "xmm13", "xmm14", "xmm15"

// A VEX or EVEX write of an xmm register zeroes the rest of its ymm/zmm.
[[gnu::target("avx512f")]] void clear_avx512() noexcept {
  __asm__ volatile(
      "vzeroall\n\t"
      "vpxord %%xmm16, %%xmm16, %%xmm16\n\tvpxord %%xmm17, %%xmm17, %%xmm17\n\t"
      "vpxord %%xmm18, %%xmm18, %%xmm18\n\tvpxord %%xmm19, %%xmm19, %%xmm19\n\t"
      "vpxord %%xmm20, %%xmm20, %%xmm20\n\tvpxord %%xmm21, %%xmm21, %%xmm21\n\t"
      "vpxord %%xmm22, %%xmm22, %%xmm22\n\tvpxord %%xmm23, %%xmm23, %%xmm23\n\t"
      "vpxord %%xmm24, %%xmm24, %%xmm24\n\tvpxord %%xmm25, %%xmm25, %%xmm25\n\t"
      "vpxord %%xmm26, %%xmm26, %%xmm26\n\tvpxord %%xmm27, %%xmm27, %%xmm27\n\t"
      "vpxord %%xmm28, %%xmm28, %%xmm28\n\tvpxord %%xmm29, %%xmm29, %%xmm29\n\t"
      "vpxord %%xmm30, %%xmm30, %%xmm30\n\tvpxord %%xmm31, %%xmm31, %%xmm31" ::
          : KEYGUARD_XMM0_15, "xmm16", "xmm17", "xmm18", "xmm19", "xmm20", "xmm21", "xmm22",
            "xmm23", "xmm24", "xmm25", "xmm26", "xmm27", "xmm28", "xmm29", "xmm30", "xmm31");
}

[[gnu::target("avx")]] void clear_avx() noexcept {
  __asm__ volatile("vzeroall" ::: KEYGUARD_XMM0_15);
}

void clear_sse() noexcept {
  __asm__ volatile(
      "pxor %%xmm0, %%xmm0\n\tpxor %%xmm1, %%xmm1\n\tpxor %%xmm2, %%xmm2\n\t"
      "pxor %%xmm3, %%xmm3\n\tpxor %%xmm4, %%xmm4\n\tpxor %%xmm5, %%xmm5\n\t"
      "pxor %%xmm6, %%xmm6\n\tpxor %%xmm7, %%xmm7\n\tpxor %%xmm8, %%xmm8\n\t"
      "pxor %%xmm9, %%xmm9\n\tpxor %%xmm10, %%xmm10\n\tpxor %%xmm11, %%xmm11\n\t"
      "pxor %%xmm12, %%xmm12\n\tpxor %%xmm13, %%xmm13\n\tpxor %%xmm14, %%xmm14\n\t"
      "pxor %%xmm15, %%xmm15" ::: KEYGUARD_XMM0_15);
}

#undef KEYGUARD_XMM0_15

using ClearFn = void (*)() noexcept;

// CPUID, read once per process.
ClearFn vector_clear() noexcept {
  static const ClearFn fn = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return &clear_avx512;
    return __builtin_cpu_supports("avx") ? &clear_avx : &clear_sse;
  }();
  return fn;
}

}  // namespace

void clear_vector_registers() noexcept { vector_clear()(); }
#else
void clear_vector_registers() noexcept {}
#endif

bool constant_time_equal(std::span<const std::byte> a,
                         std::span<const std::byte> b) noexcept {
  if (a.size() != b.size()) return false;
  unsigned char acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc |= static_cast<unsigned char>(a[i] ^ b[i]);
  }
  return acc == 0;
}

}  // namespace keyguard::secure
