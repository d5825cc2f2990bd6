// Freed-heap residue probe for the host key library.
//
// This binary replaces the global operator new/delete pair. While the
// probe is armed, every block handed back to the allocator is searched
// (memmem over its usable size) for each 16-byte slice of two adjacent
// limbs of d, p, q, dP, dQ and qInv: the raw limb images the paper's
// scanner looks for. A freed block that still holds one is residue the
// allocator can hand to anyone. SecureRsaKey custody, Keystore and
// EncryptedHostKeystore signs at 1024 bits must leave none.
#include <malloc.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include <gtest/gtest.h>

#include "bignum/prime.hpp"
#include "core/secure_rsa.hpp"
#include "keystore/encrypted_keystore_host.hpp"
#include "keystore/keystore.hpp"
#include "sim/coprocessor.hpp"
#include "util/rng.hpp"

namespace {

constexpr int kParts = 6;  // d, p, q, dP, dQ, qInv
constexpr const char* kPartNames[kParts] = {"d", "p", "q", "dP", "dQ", "qInv"};

struct Needle {
  std::array<unsigned char, 16> bytes{};
  int part = 0;
};

// Fixed storage: the probe runs inside operator delete and must not
// allocate.
std::array<Needle, 512> g_needles;
std::size_t g_needle_count = 0;
std::atomic<bool> g_armed{false};
std::array<std::atomic<int>, kParts> g_tainted{};
std::atomic<long> g_frees{0};

void probe(void* p) noexcept {
  if (p == nullptr || !g_armed.load(std::memory_order_relaxed)) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  const std::size_t size = ::malloc_usable_size(p);
  bool hit[kParts] = {};
  for (std::size_t i = 0; i < g_needle_count; ++i) {
    const Needle& n = g_needles[i];
    if (!hit[n.part] && ::memmem(p, size, n.bytes.data(), n.bytes.size()) != nullptr) {
      hit[n.part] = true;
    }
  }
  for (int part = 0; part < kParts; ++part) {
    if (hit[part]) g_tainted[part].fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked(std::malloc(n == 0 ? 1 : n)); }
void* operator new[](std::size_t n) { return checked(std::malloc(n == 0 ? 1 : n)); }
void* operator new(std::size_t n, std::align_val_t a) {
  const auto align = static_cast<std::size_t>(a);
  return checked(std::aligned_alloc(align, (n + align - 1) / align * align));
}
void* operator new[](std::size_t n, std::align_val_t a) { return operator new(n, a); }
void operator delete(void* p) noexcept { probe(p); std::free(p); }
void operator delete[](void* p) noexcept { probe(p); std::free(p); }
void operator delete(void* p, std::size_t) noexcept { probe(p); std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { probe(p); std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { probe(p); std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { probe(p); std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { probe(p); std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { probe(p); std::free(p); }

namespace keyguard {
namespace {

using bn::Bignum;

void add_needles(const crypto::RsaPrivateKey& key) {
  const Bignum* parts[kParts] = {&key.d, &key.p, &key.q, &key.dmp1, &key.dmq1, &key.iqmp};
  for (int part = 0; part < kParts; ++part) {
    const auto limbs = parts[part]->limbs();
    for (std::size_t i = 0; i + 1 < limbs.size(); ++i) {
      ASSERT_LT(g_needle_count, g_needles.size());
      Needle& n = g_needles[g_needle_count++];
      std::memcpy(n.bytes.data(), &limbs[i], 16);
      n.part = part;
    }
  }
}

// Arms the probe for one scope; tainted() reads the per-part counts.
class Probe {
 public:
  Probe() {
    for (auto& t : g_tainted) t.store(0);
    g_frees.store(0);
    g_armed.store(true);
  }
  ~Probe() { g_armed.store(false); }
  int tainted() const {
    int total = 0;
    for (int part = 0; part < kParts; ++part) {
      const int n = g_tainted[part].load();
      if (n != 0) ADD_FAILURE() << n << " freed blocks held " << kPartNames[part] << " limbs";
      total += n;
    }
    return total;
  }
  long frees() const { return g_frees.load(); }
};

const std::array<crypto::RsaPrivateKey, 2>& keys() {
  static const std::array<crypto::RsaPrivateKey, 2> k = [] {
    util::Rng rng(0x7265736964);
    return std::array<crypto::RsaPrivateKey, 2>{crypto::generate_rsa_key(rng, 1024),
                                                crypto::generate_rsa_key(rng, 1024)};
  }();
  return k;
}

class HostResidue : public ::testing::Test {
 protected:
  void SetUp() override {
    g_needle_count = 0;
    for (const auto& key : keys()) add_needles(key);
  }

  static bool arena_clean() {
    for (const std::byte b : secure::SecureRsaKey::thread_arena()) {
      if (b != std::byte{0}) return false;
    }
    return true;
  }
};

TEST_F(HostResidue, NeedlesFindTheirOwnLimbImages) {
  // Positive control: an unscrubbed heap copy of p is caught.
  Probe probe;
  { const Bignum copy = keys()[0].p; }
  g_armed.store(false);
  EXPECT_EQ(g_tainted[1].load(), 1);
}

TEST_F(HostResidue, SecureRsaKeyDecryptsLeaveNoFreedPrivateLimbs) {
  util::Rng rng(1);
  std::vector<Bignum> inputs;
  for (int i = 0; i < 10; ++i) inputs.push_back(bn::random_below(rng, keys()[0].n));
  std::vector<Bignum> out;
  out.reserve(2 * inputs.size());
  Probe probe;
  {
    const auto secure = secure::SecureRsaKey::from_key(keys()[0]);
    for (const Bignum& c : inputs) {
      out.push_back(secure.decrypt(c));
      EXPECT_TRUE(arena_clean());
      out.push_back(secure.sign(c));
    }
  }
  EXPECT_EQ(probe.tainted(), 0) << "over " << probe.frees() << " frees";
  g_armed.store(false);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(out[2 * i], keys()[0].decrypt_crt(inputs[i]));
  }
}

TEST_F(HostResidue, KeystoreSignsLeaveNoFreedPrivateLimbs) {
  // Pool of one over two keys: every sign below is a miss (unseal, DER
  // decode, SecureRsaKey construction, eviction) or a hit.
  keystore::Keystore ks({.pool_keys = 1});
  const auto a = ks.add_key(keys()[0]);
  const auto b = ks.add_key(keys()[1]);
  std::vector<Bignum> sigs;
  sigs.reserve(20);
  const Bignum m(0x1234567);
  {
    Probe probe;
    for (int i = 0; i < 10; ++i) {
      sigs.push_back(ks.sign(i % 3 == 0 ? b : a, m));
      EXPECT_TRUE(arena_clean());
    }
    EXPECT_EQ(probe.tainted(), 0) << "over " << probe.frees() << " frees";
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ks.public_key(i % 3 == 0 ? b : a).encrypt_raw(sigs[i]), m);
  }
}

TEST_F(HostResidue, EncryptedHostKeystoreSignsLeaveNoFreedPrivateLimbs) {
  sim::CoprocessorDomain domain(0x5e);
  keystore::EncryptedHostKeystore ks(domain, {.working_set = 1});
  const auto a = ks.add_key(keys()[0]);
  const auto b = ks.add_key(keys()[1]);
  ASSERT_TRUE(a && b);
  std::vector<Bignum> sigs;
  sigs.reserve(20);
  const Bignum m(0x7654321);
  {
    Probe probe;
    for (int i = 0; i < 10; ++i) {
      const auto sig = ks.sign(i % 3 == 0 ? *b : *a, m);
      ASSERT_TRUE(sig.has_value());
      sigs.push_back(*sig);
      EXPECT_TRUE(arena_clean());
    }
    EXPECT_EQ(probe.tainted(), 0) << "over " << probe.frees() << " frees";
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(keys()[i % 3 == 0 ? 1 : 0].public_key().encrypt_raw(sigs[i]), m);
  }
}

}  // namespace
}  // namespace keyguard
