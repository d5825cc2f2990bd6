#include "core/secure_rsa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "bignum/prime.hpp"
#include "crypto/pem.hpp"
#include "util/bytes.hpp"

namespace keyguard::secure {
namespace {

using bn::Bignum;

const crypto::RsaPrivateKey& test_key() {
  static const crypto::RsaPrivateKey k = [] {
    util::Rng rng(909);
    return crypto::generate_rsa_key(rng, 512);
  }();
  return k;
}

TEST(BignumScrub, DestroysValue) {
  Bignum v = *Bignum::from_hex("deadbeefcafebabe1234567890abcdef");
  v.scrub();
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.limb_count(), 0u);
}

TEST(BignumScrub, ZeroIsSafe) {
  Bignum v;
  v.scrub();
  EXPECT_TRUE(v.is_zero());
}

TEST(KeyScrub, PrivatePartsGonePublicRemains) {
  crypto::RsaPrivateKey key = test_key();
  key.scrub_private_parts();
  EXPECT_TRUE(key.d.is_zero());
  EXPECT_TRUE(key.p.is_zero());
  EXPECT_TRUE(key.q.is_zero());
  EXPECT_TRUE(key.iqmp.is_zero());
  EXPECT_EQ(key.n, test_key().n);
  EXPECT_EQ(key.e, test_key().e);
  EXPECT_FALSE(key.validate());
}

TEST(SecureRsaKey, DecryptMatchesPlainKey) {
  const auto secure = SecureRsaKey::from_key(test_key());
  util::Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    const Bignum c = bn::random_below(rng, test_key().n);
    EXPECT_EQ(secure.decrypt(c), test_key().decrypt_crt(c));
  }
}

TEST(SecureRsaKey, SignVerifyRoundTrip) {
  const auto secure = SecureRsaKey::from_key(test_key());
  const Bignum m(123456789);
  const Bignum sig = secure.sign(m);
  EXPECT_EQ(secure.public_key().encrypt_raw(sig), m);
}

TEST(SecureRsaKey, PublicKeyMatches) {
  const auto secure = SecureRsaKey::from_key(test_key());
  EXPECT_EQ(secure.public_key().n, test_key().n);
  EXPECT_EQ(secure.public_key().e, test_key().e);
}

TEST(SecureRsaKey, ScrubbingConstructionDestroysSource) {
  crypto::RsaPrivateKey plain = test_key();
  const auto secure = SecureRsaKey::from_key_scrubbing(plain);
  EXPECT_TRUE(plain.d.is_zero());
  EXPECT_TRUE(plain.p.is_zero());
  // The secure copy still works.
  const Bignum m(42);
  EXPECT_EQ(secure.public_key().encrypt_raw(secure.sign(m)), m);
}

TEST(SecureRsaKey, FootprintIsOnePageForTypicalKeys) {
  const auto secure = SecureRsaKey::from_key(test_key());
  // 512-bit key: 8 parts, each <= 64 bytes -> well under a page, so the
  // whole key sits on ONE physical page like the paper's aligned region.
  EXPECT_LE(secure.footprint_bytes(), 4096u);
  EXPECT_TRUE(secure.canary_intact());
}

TEST(SecureRsaKey, MoveKeepsWorking) {
  auto a = SecureRsaKey::from_key(test_key());
  const auto b = std::move(a);
  const Bignum m(7);
  EXPECT_EQ(b.public_key().encrypt_raw(b.sign(m)), m);
}

TEST(SecureRsaKey, ConcurrentDecryptsShareOneKey) {
  // Four threads, one key: each runs its own per-thread arena, so every
  // result must match the plain CRT and every arena must read zero after.
  const auto secure = SecureRsaKey::from_key(test_key());
  constexpr int kThreads = 4;
  constexpr int kOps = 12;
  std::vector<std::vector<Bignum>> inputs(kThreads);
  util::Rng rng(44);
  for (auto& in : inputs) {
    for (int i = 0; i < kOps; ++i) in.push_back(bn::random_below(rng, test_key().n));
  }
  std::vector<std::vector<Bignum>> outputs(kThreads);
  std::vector<int> dirty_arenas(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Bignum& c : inputs[t]) {
        outputs[t].push_back(secure.decrypt(c));
        const auto arena = SecureRsaKey::thread_arena();
        if (std::any_of(arena.begin(), arena.end(), [](std::byte b) { return b != std::byte{0}; })) {
          ++dirty_arenas[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(dirty_arenas[t], 0) << "thread " << t;
    ASSERT_EQ(outputs[t].size(), inputs[t].size());
    for (int i = 0; i < kOps; ++i) {
      EXPECT_EQ(outputs[t][i], test_key().decrypt_crt(inputs[t][i])) << "thread " << t << " op " << i;
    }
  }
}

TEST(SecureRsaKey, DecryptAcceptsInputsAtOrAboveModulus) {
  // c >= n reduces through R^2 like any other input: c^d mod n as plain.
  const auto secure = SecureRsaKey::from_key(test_key());
  const Bignum& n = test_key().n;
  for (const Bignum& c : {Bignum{}, Bignum(1), n - Bignum(1), n, n + Bignum(7), n * n}) {
    EXPECT_EQ(secure.decrypt(c), Bignum::mod_exp(c % n, test_key().d, n)) << c.to_hex();
  }
}

TEST(SecureRsaKey, LockedQueryDoesNotCrash) {
  const auto secure = SecureRsaKey::from_key(test_key());
  (void)secure.locked();  // may be false under RLIMIT_MEMLOCK
  SUCCEED();
}

// The pool builds its images from DER; SecureRsaKey from Bignums. Both
// must give the same image, limb for limb.
TEST(RsaSlot, FromDerMatchesFromKeyLimbForLimb) {
  const auto der = crypto::der_encode_private_key(test_key());
  std::vector<bn::Limb> by_key(rsa_slot::kPageLimbs), by_der(rsa_slot::kPageLimbs);
  std::vector<bn::Limb> scratch(rsa_slot::der_scratch_limbs(der.size()));
  const std::size_t n = rsa_slot::from_key(by_key, test_key(), scratch);
  ASSERT_EQ(n, rsa_slot::image_limbs(test_key()));
  EXPECT_EQ(rsa_slot::from_der(by_der, der, scratch), n);
  EXPECT_EQ(rsa_slot::limbs_of(by_der), n);
  EXPECT_EQ(by_der, by_key);
  const Bignum c(0xc0ffee);
  EXPECT_EQ(rsa_slot::decrypt(by_der, c), test_key().decrypt_crt(c));
}

// What SecureRsaKey::from_key aborts on, the DER builder refuses: a key
// with no Montgomery form, a body that does not parse, an image wider
// than the caller's span. Each leaves the span zero.
TEST(RsaSlot, FromDerRefusesAndLeavesNothing) {
  crypto::RsaPrivateKey even = test_key();
  even.q = even.q.add_limb(1);
  const auto bad_prime = crypto::der_encode_private_key(even);
  auto truncated = crypto::der_encode_private_key(test_key());
  truncated.pop_back();
  const auto good = crypto::der_encode_private_key(test_key());
  std::vector<bn::Limb> scratch(rsa_slot::der_scratch_limbs(good.size()));
  std::vector<bn::Limb> out(rsa_slot::kPageLimbs);
  const auto all_zero = [&] {
    return std::all_of(out.begin(), out.end(), [](bn::Limb l) { return l == 0; });
  };
  EXPECT_EQ(rsa_slot::from_der(out, bad_prime, scratch), 0u);
  EXPECT_TRUE(all_zero());
  EXPECT_EQ(rsa_slot::from_der(out, truncated, scratch), 0u);
  EXPECT_TRUE(all_zero());
  const std::size_t need = rsa_slot::image_limbs(test_key());
  EXPECT_EQ(rsa_slot::from_der(std::span(out).first(need - 1), good, scratch), 0u);
  EXPECT_TRUE(all_zero());
  EXPECT_EQ(rsa_slot::from_der(out, good, scratch), need);
}

}  // namespace
}  // namespace keyguard::secure
