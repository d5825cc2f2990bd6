// Host-side keystores: sealed-blob format, and the HostKeyPool discipline
// (pool bound, LRU, hit-path-does-no-decryption, evict_all, unknown ids,
// thread safety of the shared pool, single-flight misses) through both
// facades, Keystore and EncryptedHostKeystore.
#include "keystore/keystore.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>
#include <thread>

#include "crypto/pem.hpp"
#include "keystore/encrypted_keystore_host.hpp"
#include "keystore/sealed_blob.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace keyguard::keystore {
namespace {

std::vector<crypto::RsaPrivateKey> make_keys(std::size_t n, std::uint64_t seed = 42,
                                             std::size_t bits = 512) {
  util::Rng rng(seed);
  std::vector<crypto::RsaPrivateKey> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(crypto::generate_rsa_key(rng, bits));
  return out;
}

std::vector<std::byte> test_master(std::uint64_t seed = 1) {
  std::vector<std::byte> m(kMasterKeyBytes);
  util::Rng rng(seed);
  rng.fill_bytes(m);
  return m;
}

/// signature^e mod n == m: the only check that proves the pool entry holds
/// the RIGHT key, not just some key.
void expect_valid_signature(const crypto::RsaPublicKey& pub, const bn::Bignum& m,
                            const bn::Bignum& sig) {
  EXPECT_EQ(pub.encrypt_raw(sig), m);
}

TEST(SealedBlob, RoundTrips) {
  const auto master = test_master();
  const std::vector<std::byte> plain = {std::byte{1}, std::byte{2}, std::byte{0},
                                        std::byte{255}, std::byte{42}};
  const auto blob = seal(plain, master, 7);
  ASSERT_EQ(blob.size(), plain.size() + kSealedHeaderBytes);
  const auto back = unseal(blob, master);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, plain);
}

TEST(SealedBlob, CiphertextDiffersFromPlaintextAndByNonce) {
  const auto master = test_master();
  std::vector<std::byte> plain(64, std::byte{0xAA});
  const auto b1 = seal(plain, master, 1);
  const auto b2 = seal(plain, master, 2);
  EXPECT_NE(std::vector<std::byte>(b1.begin() + kSealedHeaderBytes, b1.end()), plain);
  EXPECT_NE(b1, b2) << "nonce must diversify the keystream";
}

TEST(SealedBlob, RejectsBadMagicAndShortInput) {
  const auto master = test_master();
  auto blob = seal(test_master(9), master, 3);
  blob[0] = std::byte{'X'};
  EXPECT_FALSE(unseal(blob, master).has_value());
  EXPECT_FALSE(unseal(std::vector<std::byte>(4), master).has_value());
}

TEST(SealedBlob, WrongMasterYieldsGarbageNotPlaintext) {
  const auto master = test_master(1);
  const auto other = test_master(2);
  std::vector<std::byte> plain(128, std::byte{0x5C});
  const auto blob = seal(plain, master, 11);
  const auto back = unseal(blob, other);
  ASSERT_TRUE(back.has_value());  // format is fine; contents are not
  EXPECT_NE(*back, plain);
}

TEST(SealedBlob, KeystreamXorIsAnInvolution) {
  const auto master = test_master();
  std::vector<std::byte> data(100);
  util::Rng(5).fill_bytes(data);
  auto copy = data;
  keystream_xor(copy, master, 21);
  EXPECT_NE(copy, data);
  keystream_xor(copy, master, 21);
  EXPECT_EQ(copy, data);
}

/// One rig per host store: the pool-discipline cases below run through
/// both facades, so they hold of the one HostKeyPool core either way.
struct MlockedRig {
  static constexpr const char* kPrefix = "keystore";
  explicit MlockedRig(std::size_t bound) : ks({.pool_keys = bound}) {}
  KeyId add(const crypto::RsaPrivateKey& k) { return ks.add_key(k); }
  std::optional<bn::Bignum> sign(KeyId id, const bn::Bignum& m) { return ks.sign(id, m); }
  Keystore ks;
};

struct EncryptedRig {
  static constexpr const char* kPrefix = "enc_keystore_host";
  explicit EncryptedRig(std::size_t bound) : ks(domain, {.working_set = bound}) {}
  KeyId add(const crypto::RsaPrivateKey& k) { return ks.add_key(k).value(); }
  std::optional<bn::Bignum> sign(KeyId id, const bn::Bignum& m) { return ks.sign(id, m); }
  sim::CoprocessorDomain domain{0xe5};
  EncryptedHostKeystore ks;
};

template <class Rig>
void signs_with_the_right_key_per_id() {
  auto keys = make_keys(5);
  Rig rig(2);
  std::vector<KeyId> ids;
  for (const auto& k : keys) ids.push_back(rig.add(k));
  EXPECT_EQ(rig.ks.size(), 5u);
  const bn::Bignum m(123456789);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto sig = rig.sign(ids[i], m);
    ASSERT_TRUE(sig.has_value());
    expect_valid_signature(keys[i].public_key(), m, *sig);
  }
}

template <class Rig>
void pool_never_exceeds_bound() {
  auto keys = make_keys(6);
  Rig rig(2);
  std::vector<KeyId> ids;
  for (const auto& k : keys) ids.push_back(rig.add(k));
  const bn::Bignum m(77);
  for (int round = 0; round < 3; ++round) {
    for (const auto id : ids) {
      EXPECT_TRUE(rig.sign(id, m).has_value());
      EXPECT_LE(rig.ks.pooled_count(), 2u);
    }
  }
  EXPECT_GT(rig.ks.stats().evictions, 0u);
}

template <class Rig>
void lru_keeps_the_hot_key_pooled() {
  auto keys = make_keys(3);
  Rig rig(2);
  const KeyId hot = rig.add(keys[0]);
  const KeyId a = rig.add(keys[1]);
  const KeyId b = rig.add(keys[2]);
  const bn::Bignum m(99);
  rig.sign(hot, m);
  rig.sign(a, m);    // pool = {hot, a}
  rig.sign(hot, m);  // refreshes hot
  rig.sign(b, m);    // evicts a (LRU), not hot
  EXPECT_TRUE(rig.ks.pooled(hot));
  EXPECT_TRUE(rig.ks.pooled(b));
  EXPECT_FALSE(rig.ks.pooled(a));
}

template <class Rig>
void pool_hit_does_no_decryption() {
  auto keys = make_keys(1);
  Rig rig(2);
  const KeyId id = rig.add(keys[0]);
  const bn::Bignum m(1234);
  rig.sign(id, m);
  const auto unseals_after_first = rig.ks.stats().unseals;
  EXPECT_EQ(unseals_after_first, 1u);
  for (int i = 0; i < 10; ++i) rig.sign(id, m);
  EXPECT_EQ(rig.ks.stats().unseals, unseals_after_first)
      << "pool hits must serve straight from the working copy";
  EXPECT_EQ(rig.ks.stats().pool_hits, 10u);
}

template <class Rig>
void evict_all_empties_the_pool() {
  auto keys = make_keys(2);
  Rig rig(2);
  const KeyId a = rig.add(keys[0]);
  const KeyId b = rig.add(keys[1]);
  const bn::Bignum m(2);
  rig.sign(a, m);
  rig.sign(b, m);
  EXPECT_EQ(rig.ks.pooled_count(), 2u);
  rig.ks.evict_all();
  EXPECT_EQ(rig.ks.pooled_count(), 0u);
  EXPECT_EQ(rig.ks.stats().evictions, 2u);
  const auto again = rig.sign(a, m);  // re-materializes
  ASSERT_TRUE(again.has_value());
  expect_valid_signature(keys[0].public_key(), m, *again);
}

/// evict_all reports through the same path as an LRU eviction: the
/// registry counter and the occupancy gauge move with stats().
template <class Rig>
void evict_all_reports_to_the_registry() {
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  auto keys = make_keys(2);
  Rig rig(2);
  for (const auto& k : keys) rig.sign(rig.add(k), bn::Bignum(3));
  const std::string prefix = Rig::kPrefix;
  EXPECT_EQ(reg.gauge(prefix + ".pool_occupancy").value(), 2.0);
  rig.ks.evict_all();
  EXPECT_EQ(reg.counter(prefix + ".evictions").value(), rig.ks.stats().evictions);
  EXPECT_EQ(reg.counter(prefix + ".evictions").value(), 2u);
  EXPECT_EQ(reg.gauge(prefix + ".pool_occupancy").value(), 0.0);
  reg.set_enabled(false);
}

/// An id the store never issued throws like public_key() does, and
/// before the pool is touched: no eviction, no miss, no op.
template <class Rig>
void unknown_id_throws_before_touching_the_pool() {
  auto keys = make_keys(1);
  Rig rig(1);
  const KeyId id = rig.add(keys[0]);
  const bn::Bignum m(5);
  rig.sign(id, m);
  const auto before = rig.ks.stats();
  EXPECT_THROW(rig.ks.sign(id + 9999, m), std::out_of_range);
  EXPECT_THROW(rig.ks.public_key(id + 9999), std::out_of_range);
  EXPECT_TRUE(rig.ks.pooled(id));
  const auto after = rig.ks.stats();
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.pool_misses, before.pool_misses);
  EXPECT_EQ(after.ops, before.ops);
}

// The pool is shared mutable state guarded by one mutex + pins; this is
// the test TSan watches. More threads than pool slots forces the
// eviction/wait paths under contention.
template <class Rig>
void concurrent_signing_is_race_free_and_correct() {
  auto keys = make_keys(6, 1234);
  Rig rig(3);
  std::vector<KeyId> ids;
  for (const auto& k : keys) ids.push_back(rig.add(k));

  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      util::Rng rng(9000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto idx = static_cast<std::size_t>(rng.next_below(ids.size()));
        const bn::Bignum m(rng.next_below(1u << 30) + 2);
        const auto sig = rig.sign(ids[idx], m);
        if (!sig || keys[idx].public_key().encrypt_raw(*sig) != m) ++failures;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rig.ks.stats().ops, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(rig.ks.pooled_count(), 3u);
}

// Single flight: threads released together on one cold id stage it once.
// The first claims the miss; every other request waits on it (or arrives
// after the publish) and is a pool hit.
template <class Rig>
void cold_signs_of_one_id_unseal_once() {
  constexpr int kThreads = 8;
  auto keys = make_keys(1, 4321);
  Rig rig(2);
  const KeyId id = rig.add(keys[0]);
  std::latch start(kThreads);
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const bn::Bignum m(static_cast<bn::Limb>(1000 + t));
      start.arrive_and_wait();
      const auto sig = rig.sign(id, m);
      if (!sig || keys[0].public_key().encrypt_raw(*sig) != m) ++bad;
    });
  }
  for (auto& w : workers) w.join();
  const auto s = rig.ks.stats();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(s.unseals, 1u);
  EXPECT_EQ(s.pool_misses, 1u);
  EXPECT_EQ(s.pool_hits + s.pool_misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_LE(s.coalesced, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(s.refusals, 0u);
}

TEST(Keystore, SignsWithTheRightKeyPerId) { signs_with_the_right_key_per_id<MlockedRig>(); }
TEST(EncryptedHostKeystore, SignsWithTheRightKeyPerId) {
  signs_with_the_right_key_per_id<EncryptedRig>();
}

TEST(Keystore, PoolNeverExceedsBound) { pool_never_exceeds_bound<MlockedRig>(); }
TEST(EncryptedHostKeystore, PoolNeverExceedsBound) { pool_never_exceeds_bound<EncryptedRig>(); }

TEST(Keystore, LruKeepsTheHotKeyPooled) { lru_keeps_the_hot_key_pooled<MlockedRig>(); }
TEST(EncryptedHostKeystore, LruKeepsTheHotKeyPooled) {
  lru_keeps_the_hot_key_pooled<EncryptedRig>();
}

TEST(Keystore, PoolHitDoesNoDecryption) { pool_hit_does_no_decryption<MlockedRig>(); }
TEST(EncryptedHostKeystore, PoolHitDoesNoDecryption) {
  pool_hit_does_no_decryption<EncryptedRig>();
}

TEST(Keystore, MasterKeyIsLockedAndEvictAllEmptiesThePool) {
  EXPECT_TRUE(MlockedRig(1).ks.master_locked());
  evict_all_empties_the_pool<MlockedRig>();
}
TEST(EncryptedHostKeystore, EvictAllEmptiesThePool) {
  evict_all_empties_the_pool<EncryptedRig>();
}

TEST(Keystore, EvictAllReportsToTheRegistry) {
  evict_all_reports_to_the_registry<MlockedRig>();
}
TEST(EncryptedHostKeystore, EvictAllReportsToTheRegistry) {
  evict_all_reports_to_the_registry<EncryptedRig>();
}

TEST(Keystore, UnknownIdThrowsBeforeTouchingThePool) {
  unknown_id_throws_before_touching_the_pool<MlockedRig>();
}
TEST(EncryptedHostKeystore, UnknownIdThrowsBeforeTouchingThePool) {
  unknown_id_throws_before_touching_the_pool<EncryptedRig>();
}

TEST(Keystore, ConcurrentSigningIsRaceFreeAndCorrect) {
  concurrent_signing_is_race_free_and_correct<MlockedRig>();
}
TEST(EncryptedHostKeystore, ConcurrentSigningIsRaceFreeAndCorrect) {
  concurrent_signing_is_race_free_and_correct<EncryptedRig>();
}

TEST(Keystore, ColdSignsOfOneIdUnsealOnce) {
  cold_signs_of_one_id_unseal_once<MlockedRig>();
}
TEST(EncryptedHostKeystore, ColdSignsOfOneIdUnsealOnce) {
  cold_signs_of_one_id_unseal_once<EncryptedRig>();
}

// The slab holds one key per 4 KiB page: a key whose slot image is wider
// is refused at ingest, like a refused seal, and nothing is stored.
TEST(EncryptedHostKeystore, AddKeyRefusesAKeyWiderThanOnePage) {
  sim::CoprocessorDomain domain(0xe7);
  EncryptedHostKeystore ks(domain, {.working_set = 1});
  crypto::RsaPrivateKey wide = make_keys(1)[0];
  util::Rng rng(8);
  std::vector<std::byte> bytes(8 * 520);
  rng.fill_bytes(bytes);
  wide.n = bn::Bignum::from_bytes_le(bytes);  // 520 limbs: past one page
  EXPECT_FALSE(ks.add_key(wide).has_value());
  EXPECT_EQ(ks.size(), 0u);
  EXPECT_EQ(ks.stats().refusals, 1u);
}

TEST(Keystore, AddKeyScrubbingDestroysTheCallerCopy) {
  auto keys = make_keys(1);
  auto& key = keys[0];
  const auto pub = key.public_key();
  Keystore ks({.pool_keys = 1});
  const KeyId id = ks.add_key_scrubbing(key);
  EXPECT_TRUE(key.d.is_zero());
  EXPECT_TRUE(key.p.is_zero());
  EXPECT_TRUE(key.q.is_zero());
  const bn::Bignum m(55);
  expect_valid_signature(pub, m, ks.sign(id, m));
}

TEST(Keystore, AddPemRoundTrips) {
  auto keys = make_keys(1, 77);
  Keystore ks({.pool_keys = 1});
  const auto id = ks.add_pem(crypto::pem_encode_private_key(keys[0]));
  ASSERT_TRUE(id.has_value());
  EXPECT_FALSE(ks.add_pem("not a pem").has_value());
  const bn::Bignum m(31337);
  expect_valid_signature(keys[0].public_key(), m, ks.sign(*id, m));
}

}  // namespace
}  // namespace keyguard::keystore
