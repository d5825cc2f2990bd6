// Freed-heap residue probe for the host key library.
//
// This binary replaces the global operator new/delete pair. While the
// probe is armed, every block handed back to the allocator is searched
// (memmem over its usable size) for each 16-byte slice of two adjacent
// limbs of d, p, q, dP, dQ and qInv, both as raw little-endian limb
// images (what the paper's scanner looks for) and byte-reversed (the
// big-endian form a DER encoding holds). A freed block that still holds
// one is residue the allocator can hand to anyone. SecureRsaKey custody,
// key ingest (add_key, and add_pem whether it accepts or refuses) and
// Keystore and EncryptedHostKeystore signs at 1024 bits must leave none.
//
// The stack probe runs private ops on a thread whose stack is a zeroed
// mapping the test owns, then searches the whole mapping after join for
// the same slices plus p, q, R mod p and R mod q (R = 2^(64l) of the row
// kernels and 2^(52D) of the 52-bit-digit kernel), each as 64-bit limbs
// and as 52-bit digits. A hit is key material a register spill or a stack
// temporary left behind for any later frame to expose.
#include <malloc.h>
#include <pthread.h>
#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bignum/montgomery.hpp"
#include "bignum/prime.hpp"
#include "core/secure_buffer.hpp"
#include "core/secure_rsa.hpp"
#include "core/secure_zero.hpp"
#include "crypto/pem.hpp"
#include "keystore/encrypted_keystore_host.hpp"
#include "keystore/keystore.hpp"
#include "keystore/sealed_blob.hpp"
#include "sim/coprocessor.hpp"
#include "util/encoding.hpp"
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
// Every block operator new has handed out, armed or not.
std::atomic<long> g_news{0};

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

// Out of line, so gcc never sees free() inlined against a pointer from
// operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept {
  probe(p);
  std::free(p);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_news.fetch_add(1, std::memory_order_relaxed);
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
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }

namespace keyguard {
namespace {

using bn::Bignum;

void add_needles(const crypto::RsaPrivateKey& key) {
  const Bignum* parts[kParts] = {&key.d, &key.p, &key.q, &key.dmp1, &key.dmq1, &key.iqmp};
  for (int part = 0; part < kParts; ++part) {
    const auto limbs = parts[part]->limbs();
    for (std::size_t i = 0; i + 1 < limbs.size(); ++i) {
      ASSERT_LT(g_needle_count, g_needles.size());
      Needle& le = g_needles[g_needle_count++];
      std::memcpy(le.bytes.data(), &limbs[i], 16);
      le.part = part;
      ASSERT_LT(g_needle_count, g_needles.size());
      Needle& be = g_needles[g_needle_count++];
      std::reverse_copy(le.bytes.begin(), le.bytes.end(), be.bytes.begin());
      be.part = part;
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

TEST_F(HostResidue, NeedlesFindTheirBigEndianImages) {
  // Positive control: an unscrubbed big-endian image of q is caught.
  const auto limbs = keys()[0].q.limbs();
  Probe probe;
  {
    std::vector<unsigned char> be(8 * limbs.size());
    for (std::size_t i = 0; i < be.size(); ++i) {
      be[be.size() - 1 - i] = static_cast<unsigned char>(limbs[i / 8] >> (8 * (i % 8)));
    }
  }
  g_armed.store(false);
  EXPECT_EQ(g_tainted[2].load(), 1);
}

TEST_F(HostResidue, DerEncodeLeavesNoFreedPrivateBytes) {
  std::vector<std::byte> der;
  {
    Probe probe;
    der = crypto::der_encode_private_key(keys()[0]);
    EXPECT_EQ(probe.tainted(), 0) << "over " << probe.frees() << " frees";
  }
  const auto back = crypto::der_decode_private_key(der);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->p, keys()[0].p);
  EXPECT_EQ(back->iqmp, keys()[0].iqmp);
}

TEST_F(HostResidue, KeystoreAddKeyLeavesNoFreedPrivateBytes) {
  keystore::Keystore ks({.pool_keys = 1});
  auto scrubbed = keys()[1];
  keystore::KeyId a = 0, b = 0;
  {
    Probe probe;
    a = ks.add_key(keys()[0]);
    b = ks.add_key_scrubbing(scrubbed);
    EXPECT_EQ(probe.tainted(), 0) << "over " << probe.frees() << " frees";
  }
  EXPECT_TRUE(scrubbed.p.is_zero());
  const Bignum m(0x5eed);
  EXPECT_EQ(ks.public_key(a).encrypt_raw(ks.sign(a, m)), m);
  EXPECT_EQ(ks.public_key(b).encrypt_raw(ks.sign(b, m)), m);
}

TEST_F(HostResidue, EncryptedHostKeystoreAddKeyLeavesNoFreedPrivateBytes) {
  sim::CoprocessorDomain domain(0x5f);
  keystore::EncryptedHostKeystore ks(domain, {.working_set = 1});
  std::optional<keystore::KeyId> a, b;
  {
    Probe probe;
    a = ks.add_key(keys()[0]);
    b = ks.add_key(keys()[1]);
    EXPECT_EQ(probe.tainted(), 0) << "over " << probe.frees() << " frees";
  }
  ASSERT_TRUE(a && b);
  const Bignum m(0x5eed);
  const auto sig = ks.sign(*b, m);
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(keys()[1].public_key().encrypt_raw(*sig), m);
}

std::string armored(std::span<const std::byte> der) {
  return std::string(crypto::kPemHeader) + "\n" +
         util::wrap_lines(util::base64_encode(der), 64) + std::string(crypto::kPemFooter) +
         "\n";
}

// Ingests four PEM texts of keys()[0] under the probe and returns the id
// of the one it accepts, the whole key. The store refuses the other
// three after base64 has decoded private parts:
//  - the DER cut to 60% (d, p and part of q decode before the TLV walk
//    refuses it);
//  - the whole body with an invalid character at 60% (the decoder stops
//    with d and p decoded);
//  - the DER padded with junk to 1 mod 3 bytes, on one line with the
//    base64 padding stripped (the body is 2 mod 4 characters long, so a
//    decode reserved in whole quads would outgrow its buffer at the last
//    byte; the TLV walk then refuses the junk).
template <class Store>
keystore::KeyId add_pems_under_probe(Store& ks) {
  auto der = crypto::der_encode_private_key(keys()[0]);
  const std::string whole = armored(der);
  std::string corrupt = whole;
  corrupt[corrupt.size() * 6 / 10] = '!';
  std::vector<std::byte> junk(der.size() + 1 + (3 - der.size() % 3) % 3, std::byte{0});
  std::copy(der.begin(), der.end(), junk.begin());
  std::string body = util::base64_encode(junk);
  body.erase(body.find('='));
  const std::string refused[] = {
      armored(std::span(der).first(der.size() * 6 / 10)), corrupt,
      std::string(crypto::kPemHeader) + body + std::string(crypto::kPemFooter)};
  secure::secure_zero(der);
  secure::secure_zero(junk);
  std::optional<keystore::KeyId> id;
  {
    Probe probe;
    id = ks.add_pem(whole);
    for (const std::string& pem : refused) EXPECT_FALSE(ks.add_pem(pem).has_value());
    EXPECT_EQ(probe.tainted(), 0) << "over " << probe.frees() << " frees";
  }
  return id.value();
}

TEST_F(HostResidue, KeystoreAddPemLeavesNoFreedPrivateBytes) {
  keystore::Keystore ks({.pool_keys = 1});
  const auto id = add_pems_under_probe(ks);
  const Bignum m(0x5eed);
  EXPECT_EQ(keys()[0].public_key().encrypt_raw(ks.sign(id, m)), m);
}

TEST_F(HostResidue, EncryptedHostKeystoreAddPemLeavesNoFreedPrivateBytes) {
  sim::CoprocessorDomain domain(0x5d);
  keystore::EncryptedHostKeystore ks(domain, {.working_set = 1});
  const auto id = add_pems_under_probe(ks);
  const Bignum m(0x5eed);
  const auto sig = ks.sign(id, m);
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(keys()[0].public_key().encrypt_raw(*sig), m);
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

// Blocks operator new hands out while fn runs on this thread.
template <class F>
long allocations(F&& fn) {
  const long before = g_news.load();
  fn();
  return g_news.load() - before;
}

// Pool of one over two keys on this thread. After one miss per key (the
// thread's arena has grown to its largest lease), a miss allocates exactly
// what a hit does: the result Bignum. The unseal, the DER walk, the slot
// image and the precompute all run in the locked arena and the slab.
template <class Store>
void expect_miss_allocates_like_a_hit(Store& ks, keystore::KeyId a, keystore::KeyId b) {
  const Bignum m(0x2468ace);
  std::optional<Bignum> sig;
  // Moving the result into `sig` allocates nothing; the check runs
  // outside the counted call.
  const auto sign = [&](keystore::KeyId id) {
    const long n = allocations([&] { sig = ks.sign(id, m); });
    EXPECT_TRUE(sig && ks.public_key(id).encrypt_raw(*sig) == m);
    return n;
  };
  sign(a);
  sign(b);  // warm-up: two misses
  const auto s0 = ks.stats();
  const long hit = sign(b);
  const auto s1 = ks.stats();
  const long miss = sign(a);
  const auto s2 = ks.stats();
  ASSERT_EQ(s1.pool_hits, s0.pool_hits + 1);
  ASSERT_EQ(s2.pool_misses, s1.pool_misses + 1);
  EXPECT_EQ(miss, hit) << "a miss allocated " << miss << " blocks, a hit " << hit;
  EXPECT_EQ(hit, 1) << "a hit should allocate only its result";
}

TEST_F(HostResidue, KeystoreMissAllocatesNoMoreThanAHit) {
  keystore::Keystore ks({.pool_keys = 1});
  const auto a = ks.add_key(keys()[0]);
  const auto b = ks.add_key(keys()[1]);
  expect_miss_allocates_like_a_hit(ks, a, b);
}

TEST_F(HostResidue, EncryptedHostKeystoreMissAllocatesNoMoreThanAHit) {
  sim::CoprocessorDomain domain(0x5c);
  keystore::EncryptedHostKeystore ks(domain, {.working_set = 1});
  const auto a = ks.add_key(keys()[0]);
  const auto b = ks.add_key(keys()[1]);
  ASSERT_TRUE(a && b);
  expect_miss_allocates_like_a_hit(ks, *a, *b);
}

// --- stack residue ---------------------------------------------------------

// The stack cases need frames on the probed stack and code as the
// compiler emits it for production. AddressSanitizer moves frames onto
// its own fake stacks, and ThreadSanitizer calls into its runtime around
// every load and store, so the compiler must save the caller-saved zmm
// registers to the stack across each call. Both builds skip them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kInstrumentedStack = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kInstrumentedStack = true;
#else
constexpr bool kInstrumentedStack = false;
#endif
#else
constexpr bool kInstrumentedStack = false;
#endif

class HostStackResidue : public HostResidue {
 protected:
  void SetUp() override {
    if (kInstrumentedStack) {
      GTEST_SKIP() << "address/thread sanitizer build: its instrumentation moves frames "
                      "off the probed stack or spills registers onto it";
    }
    HostResidue::SetUp();
  }
};

struct StackNeedle {
  std::array<unsigned char, 16> bytes{};
  std::string what;
};

// 16-byte slices of adjacent words of an image.
void add_slices(std::vector<StackNeedle>& out, const std::vector<bn::Limb>& words,
                const std::string& what) {
  for (std::size_t i = 0; i + 1 < words.size(); ++i) {
    StackNeedle n{{}, what};
    std::memcpy(n.bytes.data(), &words[i], 16);
    out.push_back(n);
  }
}

// v's 52-bit digits, one per 64-bit word, as the IFMA kernel lays them out.
std::vector<bn::Limb> digit_image(const Bignum& v) {
  const auto limbs = v.limbs();
  std::vector<bn::Limb> out((64 * limbs.size() + 51) / 52);
  for (std::size_t j = 0; j < out.size(); ++j) {
    const std::size_t limb = 52 * j / 64, off = 52 * j % 64;
    bn::Limb d = limbs[limb] >> off;
    if (off > 12 && limb + 1 < limbs.size()) d |= limbs[limb + 1] << (64 - off);
    out[j] = d & ((bn::Limb{1} << 52) - 1);
  }
  return out;
}

// A prime, 2^(64l) mod it (the row kernels' R) and 2^(52D) mod it (the
// 52-bit-digit kernel's R'), each as limbs and as 52-bit digits.
void add_modulus_needles(std::vector<StackNeedle>& out, const std::string& name,
                         const Bignum& prime) {
  const std::size_t l = prime.limb_count();
  const std::size_t digits = (64 * l + 2 + 51) / 52;
  const std::pair<std::string, Bignum> values[] = {
      {name, prime},
      {"2^(64l) mod " + name, (Bignum(1) << (64 * l)) % prime},
      {"2^(52D) mod " + name, (Bignum(1) << (52 * digits)) % prime}};
  for (const auto& [what, v] : values) {
    add_slices(out, std::vector<bn::Limb>(v.limbs().begin(), v.limbs().end()), what);
    add_slices(out, digit_image(v), what + " (52-bit digits)");
  }
}

// Every needle of one key: the heap probe's slices of d, p, q, dP, dQ and
// qInv, then p, q and both Rs mod each as limbs and as 52-bit digits.
std::vector<StackNeedle> stack_needles(const crypto::RsaPrivateKey& key) {
  std::vector<StackNeedle> out;
  const Bignum* parts[kParts] = {&key.d, &key.p, &key.q, &key.dmp1, &key.dmq1, &key.iqmp};
  for (int part = 0; part < kParts; ++part) {
    const auto limbs = parts[part]->limbs();
    std::vector<bn::Limb> le(limbs.begin(), limbs.end()), be(le.size());
    add_slices(out, le, kPartNames[part]);
    for (std::size_t i = 0; i < le.size(); ++i) be[le.size() - 1 - i] = __builtin_bswap64(le[i]);
    add_slices(out, be, std::string(kPartNames[part]) + " (big-endian)");
  }
  add_modulus_needles(out, "p", key.p);
  add_modulus_needles(out, "q", key.q);
  return out;
}

// Runs fn on a thread whose stack is a fresh zeroed mapping, then returns
// the names of the needles found anywhere in that mapping.
template <class F>
std::vector<std::string> stack_hits(F&& fn, const std::vector<StackNeedle>& needles) {
  constexpr std::size_t kStackBytes = std::size_t{1} << 20;
  void* stack = ::mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (stack == MAP_FAILED) {
    ADD_FAILURE() << "mmap of the probed stack failed";
    return {};
  }
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  pthread_attr_setstack(&attr, stack, kStackBytes);
  pthread_t thread;
  const auto body = [](void* f) -> void* {
    (*static_cast<std::remove_reference_t<F>*>(f))();
    return nullptr;
  };
  const int rc = pthread_create(&thread, &attr, body, &fn);
  pthread_attr_destroy(&attr);
  std::vector<std::string> hits;
  if (rc != 0) {
    ADD_FAILURE() << "pthread_create failed: " << rc;
  } else {
    pthread_join(thread, nullptr);
    for (const StackNeedle& n : needles) {
      if (::memmem(stack, kStackBytes, n.bytes.data(), n.bytes.size()) != nullptr) {
        hits.push_back(n.what);
      }
    }
  }
  ::munmap(stack, kStackBytes);
  return hits;
}

std::string joined(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += (out.empty() ? "" : ", ") + s;
  return out;
}

// A 1024-bit key whose primes differ in limb count (9 and 7): the CRT
// halves cannot run in lockstep, so exp2 takes the row kernels on any CPU.
const crypto::RsaPrivateKey& unbalanced_key() {
  static const crypto::RsaPrivateKey k = [] {
    util::Rng rng(0x756e62616c);
    crypto::RsaPrivateKey key;
    key.e = Bignum(65537);
    const Bignum one(1);
    for (;;) {
      key.p = bn::random_prime(rng, 576, key.e);
      key.q = bn::random_prime(rng, 448, key.e);
      key.n = key.p * key.q;
      const Bignum p1 = key.p - one, q1 = key.q - one;
      const Bignum lcm = (p1 / Bignum::gcd(p1, q1)) * q1;
      const auto d = Bignum::mod_inverse(key.e, lcm);
      if (!d) continue;
      key.d = *d;
      key.dmp1 = key.d % p1;
      key.dmq1 = key.d % q1;
      key.iqmp = *Bignum::mod_inverse(key.q, key.p);
      return key;
    }
  }();
  return k;
}

TEST_F(HostStackResidue, StackProbeFindsAKeyImageOnTheStack) {
  // Positive control: a frame that copies q's 52-bit digits to the stack.
  const auto needles = stack_needles(keys()[0]);
  const auto hits = stack_hits(
      [] {
        const auto digits = digit_image(keys()[0].q);
        volatile bn::Limb copy[32] = {};
        for (std::size_t i = 0; i < digits.size() && i < 32; ++i) copy[i] = digits[i];
        (void)copy[0];
      },
      needles);
  EXPECT_NE(joined(hits).find("q (52-bit digits)"), std::string::npos) << joined(hits);
}

// SecureRsaKey decrypts and EncryptedHostKeystore signs of one key on a
// probed stack: no stack hit, no tainted free, and every result checks.
void expect_clean_stack(const crypto::RsaPrivateKey& key) {
  util::Rng rng(2);
  std::vector<Bignum> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(bn::random_below(rng, key.n));
  std::vector<Bignum> plain(inputs.size()), sigs(inputs.size());
  sim::CoprocessorDomain domain(0x5d);
  keystore::EncryptedHostKeystore ks(domain, {.working_set = 1});
  const auto id = ks.add_key(key);
  ASSERT_TRUE(id.has_value());
  const auto needles = stack_needles(key);
  bool signed_all = true;
  std::vector<std::string> hits;
  {
    Probe probe;
    hits = stack_hits(
        [&] {
          const auto secure = secure::SecureRsaKey::from_key(key);
          for (std::size_t i = 0; i < inputs.size(); ++i) {
            plain[i] = secure.decrypt(inputs[i]);
            const auto sig = ks.sign(*id, inputs[i]);
            signed_all = signed_all && sig.has_value();
            if (sig) sigs[i] = *sig;
          }
        },
        needles);
    EXPECT_EQ(probe.tainted(), 0) << "over " << probe.frees() << " frees";
  }
  EXPECT_TRUE(hits.empty()) << hits.size() << " stack hits: " << joined(hits);
  EXPECT_TRUE(signed_all);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(plain[i], bn::Bignum::mod_exp(inputs[i], key.d, key.n));
    EXPECT_EQ(sigs[i], plain[i]);
  }
}

TEST_F(HostStackResidue, PrivateOpsLeaveNoKeyImagesOnTheStack) {
  expect_clean_stack(keys()[0]);
}

TEST_F(HostStackResidue, Exp2LeavesNoModulusImagesOnTheStackAtAnyWidth) {
  // mont::exp2 alone, scratch on the heap, at widths that give the
  // lockstep kernel 1 to 8 zmm registers per operand (the most register
  // pressure, so the most to spill), and at 52 limbs, past its reach.
  util::Rng rng(3);
  for (const std::size_t l : {1u, 3u, 8u, 13u, 16u, 22u, 32u, 38u, 45u, 51u, 52u}) {
    const auto odd = [&] {
      const Bignum v = bn::random_bits(rng, 64 * l);
      return v.is_odd() ? v : v.add_limb(1);
    };
    const Bignum p = odd(), q = odd();
    const auto padded = [&](const Bignum& v) {
      std::vector<bn::Limb> out(v.limbs().begin(), v.limbs().end());
      out.resize(l);
      return out;
    };
    const std::vector<bn::Limb> np = padded(p), nq = padded(q);
    const std::vector<bn::Limb> rrp = padded(bn::MontgomeryContext(p).rr());
    const std::vector<bn::Limb> rrq = padded(bn::MontgomeryContext(q).rr());
    const std::vector<bn::Limb> ep = padded(bn::random_bits(rng, 64 * l));
    const std::vector<bn::Limb> eq = padded(bn::random_bits(rng, 64 * l));
    const Bignum x = bn::random_below(rng, p * q);
    std::vector<bn::Limb> rp(l), rq(l), scratch(bn::mont::exp2_scratch_limbs(l));
    std::vector<StackNeedle> needles;
    add_modulus_needles(needles, "p", p);
    add_modulus_needles(needles, "q", q);
    const auto hits = stack_hits(
        [&] {
          bn::mont::exp2(rp, rq, x.limbs(), ep, eq, {np, rrp, bn::mont::neg_inv(np[0])},
                         {nq, rrq, bn::mont::neg_inv(nq[0])}, scratch);
        },
        needles);
    EXPECT_TRUE(hits.empty()) << "l=" << l << ": " << hits.size()
                              << " stack hits: " << joined(hits);
    EXPECT_EQ(Bignum::from_limbs_le(rp), Bignum::mod_exp(x, Bignum::from_limbs_le(ep), p));
  }
}

TEST_F(HostStackResidue, RowKernelPrivateOpsLeaveNoKeyImagesOnTheStack) {
  g_needle_count = 0;
  add_needles(unbalanced_key());
  expect_clean_stack(unbalanced_key());
}

// 16-byte windows, at every 4-byte step, of a 32-byte secret as raw bytes
// (what SHA-256's block buffer holds) and as big-endian 32-bit words (the
// image of the message schedule w, in memory or in a vector register).
std::vector<StackNeedle> secret_needles(std::uint64_t seed, const std::string& name) {
  std::array<std::byte, keystore::kMasterKeyBytes> secret;
  util::Rng(seed).fill_bytes(secret);
  std::array<std::byte, secret.size()> words;
  for (std::size_t i = 0; i < secret.size(); ++i) words[i] = secret[i ^ 3];
  std::vector<StackNeedle> out;
  for (std::size_t off = 0; off + 16 <= secret.size(); off += 4) {
    StackNeedle raw{{}, name}, be{{}, name + " (big-endian words)"};
    std::memcpy(raw.bytes.data(), secret.data() + off, 16);
    std::memcpy(be.bytes.data(), words.data() + off, 16);
    out.push_back(raw);
    out.push_back(be);
  }
  return out;
}

TEST_F(HostStackResidue, SealAndUnsealLeaveNoMasterOrDomainSecretOnTheStack) {
  // KSB1 hashes master || nonce || i and KSB2 secret || 'C'/'M' || ...: one
  // seal and one unseal of each, each on its own probed stack, must leave
  // neither secret behind, in SHA-256's block buffer, its schedule or a
  // register some later frame saves.
  constexpr std::uint64_t kMasterSeed = 0x6d6173746572;
  constexpr std::uint64_t kDomainSeed = 0x646f6d61696e;
  secure::SecureBuffer master(keystore::kMasterKeyBytes);
  util::Rng(kMasterSeed).fill_bytes(master.data());
  sim::CoprocessorDomain domain(kDomainSeed);
  const auto der = crypto::der_encode_private_key(keys()[0]);
  std::vector<std::byte> plain(der.size());
  bool ok = true;
  const auto ksb1 = [&] {
    const auto blob = keystore::seal(der, master.data(), 1);
    ok = ok && keystore::unseal_into(blob, master.data(), plain) && plain == der;
  };
  const auto ksb2 = [&] {
    const auto blob = keystore::seal_authenticated(der, domain, 2);
    ok = ok && blob && keystore::unseal_authenticated_into(*blob, domain, plain) &&
         plain == der;
  };
  ksb1();  // warm-up, off the probed stack
  ksb2();
  ASSERT_TRUE(ok);
  const auto master_hits = stack_hits([&] { ksb1(); }, secret_needles(kMasterSeed, "master key"));
  EXPECT_TRUE(master_hits.empty()) << master_hits.size() << " stack hits: " << joined(master_hits);
  const auto domain_hits =
      stack_hits([&] { ksb2(); }, secret_needles(kDomainSeed, "domain secret"));
  EXPECT_TRUE(domain_hits.empty()) << domain_hits.size() << " stack hits: " << joined(domain_hits);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace keyguard
