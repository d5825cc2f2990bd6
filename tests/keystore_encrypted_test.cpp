// Encrypted-at-rest pool keystore: the fail-closed battery.
//
// The backend's claims, each falsified byte-by-byte here:
//   * plaintext never exceeds the W-page working set, all mlocked, and
//     there is NO master-key page (the CoprocessorDomain holds the page
//     key outside simulated RAM entirely);
//   * a sealed blob with ANY byte flipped — magic, nonce, ciphertext, or
//     tag — refuses to open: no partial plaintext, no pool admission, and
//     the taint map shows zero secret bytes afterward;
//   * a powered-off domain refuses unseals and ingest rather than falling
//     back to plaintext; re-encryption without a domain fails AMNESIAC
//     (scrub) rather than leaky;
//   * a cold unseal costs two domain round trips, a page re-entry or a
//     re-encrypt one, and the domain's MAC is deterministic and separated
//     from its keystream.
//
// The host-side EncryptedHostKeystore gets the same battery on real
// memory, plus a refusal-on-a-full-pool check and three concurrency checks
// (shared domain, threads; refusal of a single-flight miss waking every
// waiter; a storm with refusals injected mid-run).
#include "keystore/encrypted_keystore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <mutex>
#include <thread>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "crypto/pem.hpp"
#include "keystore/encrypted_keystore_host.hpp"
#include "keystore/sealed_blob.hpp"
#include "sim/coprocessor.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::keystore {
namespace {

using analysis::ShadowTaintMap;
using analysis::TaintAuditor;
using sim::CoprocessorDomain;
using sim::TaintTag;

struct Rig {
  sim::Kernel kernel;
  ShadowTaintMap map;
  sim::Process* proc;

  explicit Rig(std::size_t mem = 8ull << 20)
      : kernel(sim::KernelConfig{.mem_bytes = mem, .o_nocache_supported = true}),
        map(kernel) {
    kernel.attach_taint(&map);
    proc = &kernel.spawn("enc_keystore_proc");
  }
};

std::vector<crypto::RsaPrivateKey> make_keys(std::size_t n, std::uint64_t seed = 11) {
  util::Rng rng(seed);
  std::vector<crypto::RsaPrivateKey> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(crypto::generate_rsa_key(rng, 512));
  return out;
}

std::vector<KeyId> ingest_all(Rig& rig, EncryptedPoolKeystore& ks,
                              const std::vector<crypto::RsaPrivateKey>& keys) {
  std::vector<KeyId> ids;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string path = "/keys/k" + std::to_string(i) + ".pem";
    rig.kernel.vfs().write_file(path, util::to_bytes(crypto::pem_encode_private_key(keys[i])),
                                TaintTag::kPem);
    const auto id = ks.ingest_pem(path);
    EXPECT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  return ids;
}

/// One padded encrypt/decrypt round against key `idx`, verified end to end.
void roundtrip(EncryptedPoolKeystore& ks, const std::vector<KeyId>& ids,
               std::size_t idx, util::Rng& rng) {
  std::vector<std::byte> secret(24);
  rng.fill_bytes(secret);
  const auto& pub = ks.public_key(ids[idx]);
  const auto c = crypto::pad_encrypt(rng, pub, secret);
  ASSERT_TRUE(c.has_value());
  const auto m = ks.try_private_op(ids[idx], *c);
  ASSERT_TRUE(m.has_value());
  const auto block = m->to_bytes_be(pub.modulus_bytes());
  const std::vector<std::byte> tail(
      block.end() - static_cast<std::ptrdiff_t>(secret.size()), block.end());
  EXPECT_EQ(tail, secret);
}

std::byte read_blob_byte(Rig& rig, EncryptedPoolKeystore& ks, KeyId id,
                         std::size_t off) {
  std::byte b[1];
  rig.kernel.mem_read(*rig.proc, ks.blob_address(id) + off, b);
  return b[0];
}

void write_blob_byte(Rig& rig, EncryptedPoolKeystore& ks, KeyId id,
                     std::size_t off, std::byte v) {
  const std::byte b[1] = {v};
  rig.kernel.mem_write(*rig.proc, ks.blob_address(id) + off, b, TaintTag::kSealed);
}

TEST(EncryptedKeystore, RoundTripAndWorkingSetBound) {
  Rig rig;
  sim::CoprocessorDomain domain(0xd0);
  EncryptedPoolKeystore ks(rig.kernel, *rig.proc, domain,
                           {.pool_pages = 4, .working_set = 2});
  const auto keys = make_keys(5);
  const auto ids = ingest_all(rig, ks, keys);
  TaintAuditor auditor(rig.map);
  util::Rng rng(5);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      roundtrip(ks, ids, i, rng);
      EXPECT_LE(ks.plaintext_count(), 2u);
      const auto report = auditor.audit(rig.kernel);
      EXPECT_TRUE(report.bounded_plaintext_working_set(2));
      // No master-key page: the page key is the domain's, off-RAM.
      EXPECT_EQ(report.master_key_frames, 0u);
      EXPECT_EQ(report.secret_mlocked_frames, report.secret_tainted_frames);
    }
  }
  EXPECT_GT(ks.stats().reencrypts, 0u);   // the squeeze actually happened
  EXPECT_GT(ks.stats().evictions, 0u);    // 5 keys through 4 slots
  EXPECT_EQ(ks.stats().refusals, 0u);
}

// The domain round trips each pool transition costs: a cold unseal is
// two (the tag, then the decrypt), a page re-entry and a re-encrypt one
// each, a working-set hit none.
TEST(EncryptedKeystore, RoundTripsPerUnsealReentryAndReencrypt) {
  Rig rig;
  sim::CoprocessorDomain domain(0xd0);
  EncryptedPoolKeystore ks(rig.kernel, *rig.proc, domain,
                           {.pool_pages = 2, .working_set = 1});
  const auto keys = make_keys(1);
  const auto ids = ingest_all(rig, ks, keys);
  util::Rng rng(6);

  auto before = domain.round_trips();
  roundtrip(ks, ids, 0, rng);
  EXPECT_EQ(ks.stats().blob_unseals, 1u);
  EXPECT_EQ(domain.round_trips() - before, 2u);  // cold: mac + keystream

  before = domain.round_trips();
  roundtrip(ks, ids, 0, rng);
  EXPECT_EQ(ks.stats().working_hits, 1u);
  EXPECT_EQ(domain.round_trips() - before, 0u);  // hit: the page is already plaintext

  before = domain.round_trips();
  ks.reencrypt_all();
  EXPECT_EQ(ks.stats().reencrypts, 1u);
  EXPECT_EQ(domain.round_trips() - before, 1u);  // re-encrypt: one keystream

  before = domain.round_trips();
  roundtrip(ks, ids, 0, rng);
  EXPECT_EQ(ks.stats().page_decrypts, 1u);
  EXPECT_EQ(domain.round_trips() - before, 1u);  // re-entry: one keystream
  EXPECT_EQ(ks.stats().blob_unseals, 1u);
  ks.shutdown();
}

TEST(CoprocessorBatch, MacIsDeterministicAndDomainSeparated) {
  CoprocessorDomain a(0xb1);
  CoprocessorDomain b(0xb1);
  CoprocessorDomain other(0xb2);
  std::vector<std::byte> msg(40);
  util::Rng rng(32);
  rng.fill_bytes(msg);
  const auto t1 = a.mac(7, msg);
  const auto t2 = b.mac(7, msg);
  ASSERT_TRUE(t1 && t2);
  EXPECT_EQ(*t1, *t2);
  // Different nonce, different seed, different data: all distinct tags.
  EXPECT_NE(*a.mac(8, msg), *t1);
  EXPECT_NE(*other.mac(7, msg), *t1);
  auto msg2 = msg;
  msg2[0] ^= std::byte{1};
  EXPECT_NE(*a.mac(7, msg2), *t1);
  // MAC bytes are not CTR keystream bytes for the same nonce (the 'M'/'C'
  // tag in the domain's derivation separates them).
  std::vector<std::byte> ks(CoprocessorDomain::kTagBytes);
  ASSERT_TRUE(a.keystream(7, ks));
  EXPECT_FALSE(std::equal(ks.begin(), ks.end(), t1->begin()));
}

TEST(EncryptedKeystore, ReencryptAllLeavesMachineAmnesiacAndReversible) {
  Rig rig;
  sim::CoprocessorDomain domain(0xd1);
  EncryptedPoolKeystore ks(rig.kernel, *rig.proc, domain,
                           {.pool_pages = 3, .working_set = 2});
  const auto keys = make_keys(2);
  const auto ids = ingest_all(rig, ks, keys);
  util::Rng rng(6);
  roundtrip(ks, ids, 0, rng);
  roundtrip(ks, ids, 1, rng);
  EXPECT_EQ(ks.plaintext_count(), 2u);

  ks.reencrypt_all();
  EXPECT_EQ(ks.plaintext_count(), 0u);
  EXPECT_EQ(ks.pooled_count(), 2u);  // still resident — as ciphertext
  TaintAuditor auditor(rig.map);
  const auto report = auditor.audit(rig.kernel);
  EXPECT_EQ(report.secret.total(), 0u);
  // The no->=1-floor case: an EMPTY working set is the best state, and
  // the generalized predicate accepts it where the pool invariant's
  // master-key floor could not.
  EXPECT_TRUE(report.bounded_plaintext_working_set(0));
  // The ciphertext page is not zeroes — the key is still there, sealed.
  std::vector<std::byte> page(64);
  rig.kernel.mem_read(*rig.proc, ks.slot_page(0), page);
  bool all_zero = true;
  for (const auto b : page) all_zero &= b == std::byte{0};
  EXPECT_FALSE(all_zero);

  // Re-entry decrypts the page in place — no blob parse.
  const auto unseals_before = ks.stats().blob_unseals;
  roundtrip(ks, ids, 0, rng);
  EXPECT_GT(ks.stats().page_decrypts, 0u);
  EXPECT_EQ(ks.stats().blob_unseals, unseals_before);
}

TEST(EncryptedKeystore, FaultInjectionEveryByteFailsClosed) {
  Rig rig;
  sim::CoprocessorDomain domain(0xd2);
  EncryptedPoolKeystore ks(rig.kernel, *rig.proc, domain,
                           {.pool_pages = 2, .working_set = 1});
  const auto keys = make_keys(1);
  const auto ids = ingest_all(rig, ks, keys);
  util::Rng rng(7);
  roundtrip(ks, ids, 0, rng);  // prove the key works, then park it cold
  ks.evict(ids[0]);
  TaintAuditor auditor(rig.map);
  ASSERT_EQ(auditor.audit(rig.kernel).secret.total(), 0u);

  const bn::Bignum c(0x51u);
  const std::size_t blob_len = ks.blob_size(ids[0]);
  ASSERT_GE(blob_len, kSealedHeaderBytes + kAuthTagBytes);
  for (std::size_t off = 0; off < blob_len; ++off) {
    const std::byte orig = read_blob_byte(rig, ks, ids[0], off);
    write_blob_byte(rig, ks, ids[0], off, orig ^ std::byte{0x01});

    // Every single corrupted byte — magic, nonce, ciphertext, tag — must
    // refuse with the pool untouched.
    EXPECT_FALSE(ks.try_private_op(ids[0], c).has_value()) << "offset " << off;
    EXPECT_FALSE(ks.pooled(ids[0])) << "offset " << off;
    EXPECT_EQ(ks.plaintext_count(), 0u) << "offset " << off;
    // The audit walk is the expensive check; sample it plus the format
    // boundaries (magic, nonce, first/last ciphertext, tag).
    if (off % 13 == 0 || off < kSealedHeaderBytes + 1 ||
        off + kAuthTagBytes + 1 >= blob_len) {
      EXPECT_EQ(auditor.audit(rig.kernel).secret.total(), 0u) << "offset " << off;
    }

    write_blob_byte(rig, ks, ids[0], off, orig);
  }
  EXPECT_EQ(ks.stats().refusals, blob_len);

  // Untampered again: the key still opens and round-trips.
  roundtrip(ks, ids, 0, rng);
}

TEST(EncryptedKeystore, UnavailableDomainRefusesAndNeverFallsBack) {
  Rig rig;
  sim::CoprocessorDomain domain(0xd3);
  EncryptedPoolKeystore ks(rig.kernel, *rig.proc, domain,
                           {.pool_pages = 3, .working_set = 2});
  const auto keys = make_keys(3);
  auto ids = ingest_all(rig, ks, {keys[0], keys[1]});
  util::Rng rng(8);
  roundtrip(ks, ids, 0, rng);
  ASSERT_TRUE(ks.plaintext(ids[0]));

  domain.power_off();

  // Cold key: refuse. Nothing materializes, nothing plaintext appears.
  const bn::Bignum c(0x51u);
  EXPECT_FALSE(ks.try_private_op(ids[1], c).has_value());
  EXPECT_FALSE(ks.pooled(ids[1]));
  EXPECT_GT(ks.stats().refusals, 0u);

  // Already-plaintext key: the hit path needs no domain traffic, so it
  // still serves (the working copy exists; refusing it would protect
  // nothing).
  roundtrip(ks, ids, 0, rng);

  // Ingest with the domain off: refused — the store will not hold a key
  // it could never reopen, and will NOT store it plaintext instead.
  rig.kernel.vfs().write_file(
      "/keys/late.pem",
      util::to_bytes(crypto::pem_encode_private_key(keys[2])), TaintTag::kPem);
  EXPECT_FALSE(ks.ingest_pem("/keys/late.pem").has_value());

  // Re-encrypt without a domain: fail AMNESIAC. The slot is scrubbed
  // (the key survives as its blob), never left plaintext or leaked.
  ks.reencrypt_all();
  EXPECT_EQ(ks.plaintext_count(), 0u);
  TaintAuditor auditor(rig.map);
  EXPECT_EQ(auditor.audit(rig.kernel).secret.total(), 0u);
  // And the scrubbed key is now unreachable until the domain returns.
  EXPECT_FALSE(ks.try_private_op(ids[0], c).has_value());
}

TEST(EncryptedKeystore, SealedBlobAuthenticatedFormatRejects) {
  sim::CoprocessorDomain domain(0xd4);
  std::vector<std::byte> pt(100);
  util::Rng rng(9);
  rng.fill_bytes(pt);
  const auto blob = seal_authenticated(pt, domain, 42);
  ASSERT_TRUE(blob.has_value());
  ASSERT_EQ(blob->size(), kSealedHeaderBytes + pt.size() + kAuthTagBytes);
  EXPECT_EQ(authenticated_nonce(*blob), 42u);

  // Round trip; the body is the plaintext XOR the domain's stream 42.
  const auto open1 = unseal_authenticated(*blob, domain);
  ASSERT_TRUE(open1.has_value());
  EXPECT_EQ(*open1, pt);
  std::vector<std::byte> ks(pt.size());
  ASSERT_TRUE(domain.keystream(42, ks));
  for (std::size_t i = 0; i < ks.size(); ++i) ks[i] ^= (*blob)[kSealedHeaderBytes + i];
  EXPECT_EQ(ks, pt);

  // Truncations reject (header-only, missing tag, empty).
  EXPECT_FALSE(unseal_authenticated({}, domain).has_value());
  EXPECT_FALSE(unseal_authenticated(std::span(*blob).first(kSealedHeaderBytes),
                                    domain)
                   .has_value());
  EXPECT_FALSE(
      unseal_authenticated(std::span(*blob).first(blob->size() - 1), domain)
          .has_value());

  // The legacy KSB1 magic is not an authenticated blob.
  auto wrong = *blob;
  wrong[3] = std::byte{'1'};
  EXPECT_FALSE(unseal_authenticated(wrong, domain).has_value());

  // A powered-off domain cannot seal or open anything.
  domain.power_off();
  EXPECT_FALSE(seal_authenticated(pt, domain, 43).has_value());
  EXPECT_FALSE(unseal_authenticated(*blob, domain).has_value());
}

// ---- host-side battery ----------------------------------------------------

TEST(EncryptedHostKeystore, RoundTripAndFaultInjectionEveryByte) {
  sim::CoprocessorDomain domain(0xe0);
  EncryptedHostKeystore ks(domain, {.working_set = 2});
  util::Rng rng(21);
  auto key = crypto::generate_rsa_key(rng, 512);
  const auto pub = key.public_key();
  const auto id = ks.add_key(key);
  ASSERT_TRUE(id.has_value());

  const bn::Bignum m(0x5157u);
  const auto expect = ks.sign(*id, m);
  ASSERT_TRUE(expect.has_value());

  const std::size_t blob_len = ks.blob_size(*id);
  ASSERT_GE(blob_len, kSealedHeaderBytes + kAuthTagBytes);
  for (std::size_t off = 0; off < blob_len; ++off) {
    ks.evict_all();  // force the cold (authenticate-then-unseal) path
    ASSERT_TRUE(ks.flip_blob_byte(*id, off));
    EXPECT_FALSE(ks.sign(*id, m).has_value()) << "offset " << off;
    EXPECT_FALSE(ks.pooled(*id)) << "offset " << off;
    ASSERT_TRUE(ks.flip_blob_byte(*id, off));  // restore
  }
  EXPECT_EQ(ks.stats().refusals, blob_len);
  const auto again = ks.sign(*id, m);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *expect);
  EXPECT_FALSE(ks.flip_blob_byte(*id, blob_len));  // out of range
}

TEST(EncryptedHostKeystore, DomainOffRefusesColdButServesPooled) {
  sim::CoprocessorDomain domain(0xe1);
  EncryptedHostKeystore ks(domain, {.working_set = 2});
  util::Rng rng(22);
  auto k0 = crypto::generate_rsa_key(rng, 512);
  auto k1 = crypto::generate_rsa_key(rng, 512);
  const auto id0 = ks.add_key(k0);
  const auto id1 = ks.add_key(k1);
  ASSERT_TRUE(id0 && id1);
  const bn::Bignum m(77);
  ASSERT_TRUE(ks.sign(*id0, m).has_value());  // pool id0
  ks.evict_all();
  ASSERT_TRUE(ks.sign(*id0, m).has_value());  // re-pool id0 only

  domain.power_off();
  EXPECT_FALSE(ks.sign(*id1, m).has_value());  // cold: refuse
  EXPECT_TRUE(ks.sign(*id0, m).has_value());   // pooled: no domain traffic
  EXPECT_FALSE(ks.add_key(k1).has_value());    // no plaintext-fallback ingest
  EXPECT_GT(ks.stats().refusals, 0u);
}

TEST(EncryptedHostKeystore, ConcurrentSigningSharedDomain) {
  sim::CoprocessorDomain domain(0xe2);
  EncryptedHostKeystore ks(domain, {.working_set = 2});
  util::Rng keygen(23);
  std::vector<keystore::KeyId> ids;
  std::vector<crypto::RsaPublicKey> pubs;
  for (int i = 0; i < 6; ++i) {
    auto key = crypto::generate_rsa_key(keygen, 512);
    pubs.push_back(key.public_key());
    const auto id = ks.add_key_scrubbing(key);
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }

  // 4 threads hammer 6 keys through a 2-entry working set: pins, waits,
  // evictions, and concurrent misses all exercise the shared domain's
  // internal lock (the TSan target).
  std::vector<std::thread> workers;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      util::Rng rng(1000 + t);
      for (int i = 0; i < 32; ++i) {
        const std::size_t idx = rng.next_below(ids.size());
        std::vector<std::byte> secret(16);
        rng.fill_bytes(secret);
        const auto c = crypto::pad_encrypt(rng, pubs[idx], secret);
        if (!c) {
          ++failures[t];
          continue;
        }
        const auto m = ks.decrypt(ids[idx], *c);
        if (!m) {
          ++failures[t];
          continue;
        }
        const auto block = m->to_bytes_be(pubs[idx].modulus_bytes());
        const std::vector<std::byte> tail(
            block.end() - static_cast<std::ptrdiff_t>(secret.size()),
            block.end());
        if (tail != secret) ++failures[t];
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  EXPECT_EQ(ks.stats().refusals, 0u);
  EXPECT_EQ(ks.pooled_count(), 2u);
  EXPECT_GT(domain.round_trips(), 0u);
}

// A cold sign that refuses on a FULL pool must leave it exactly as it
// was: the unseal runs before the LRU victim is chosen for eviction.
TEST(EncryptedHostKeystore, RefusalOnAFullPoolEvictsNothing) {
  sim::CoprocessorDomain domain(0xe3);
  EncryptedHostKeystore ks(domain, {.working_set = 2});
  const auto keys = make_keys(4, 24);
  std::vector<KeyId> ids;
  for (const auto& k : keys) ids.push_back(ks.add_key(k).value());
  const bn::Bignum m(0x1234u);
  ASSERT_TRUE(ks.sign(ids[0], m).has_value());
  ASSERT_TRUE(ks.sign(ids[1], m).has_value());  // pool = {0, 1}, full
  const auto before = ks.stats();

  // Tampered blob: refuse, pool untouched.
  ASSERT_TRUE(ks.flip_blob_byte(ids[2], kSealedHeaderBytes));
  EXPECT_FALSE(ks.sign(ids[2], m).has_value());
  // Dead domain: refuse, pool untouched.
  domain.power_off();
  EXPECT_FALSE(ks.sign(ids[3], m).has_value());

  const auto after = ks.stats();
  EXPECT_EQ(ks.pooled_count(), 2u);
  EXPECT_TRUE(ks.pooled(ids[0]));
  EXPECT_TRUE(ks.pooled(ids[1]));
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.pool_misses, before.pool_misses);
  EXPECT_EQ(after.unseals, before.unseals);
  EXPECT_EQ(after.refusals, before.refusals + 2);
  // The pooled keys still serve, with the domain gone.
  EXPECT_TRUE(ks.sign(ids[0], m).has_value());
  EXPECT_TRUE(ks.sign(ids[1], m).has_value());
}

// Single flight on a refusing id: threads released together on one cold
// id whose blob is tampered. One claims the miss and refuses; the refusal
// wakes every waiter, each retries on its own and refuses too. Every
// request refuses, none unseals, the pool is as it was, and nobody hangs.
TEST(EncryptedHostKeystore, RefusalWakesEveryWaiter) {
  constexpr int kThreads = 8;
  sim::CoprocessorDomain domain(0xe6);
  EncryptedHostKeystore ks(domain, {.working_set = 2});
  const auto keys = make_keys(2, 26);
  const KeyId pooled = ks.add_key(keys[0]).value();
  const KeyId cold = ks.add_key(keys[1]).value();
  const bn::Bignum m(0x4242u);
  ASSERT_TRUE(ks.sign(pooled, m).has_value());
  ASSERT_TRUE(ks.flip_blob_byte(cold, kSealedHeaderBytes));
  const auto before = ks.stats();

  std::latch start(kThreads);
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::atomic<int> refused{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      start.arrive_and_wait();
      if (!ks.sign(cold, m)) ++refused;
      std::lock_guard lk(mu);
      ++done;
      cv.notify_all();
    });
  }
  {
    std::unique_lock lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(30), [&] { return done == kThreads; })) {
      // A waiter the refusal never woke would hang the join: fail now.
      std::fprintf(stderr, "RefusalWakesEveryWaiter: %d of %d signs returned in 30 s\n",
                   done, kThreads);
      std::_Exit(1);
    }
  }
  for (auto& w : workers) w.join();

  const auto after = ks.stats();
  EXPECT_EQ(refused.load(), kThreads);
  EXPECT_EQ(after.refusals - before.refusals, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(after.unseals, before.unseals);
  EXPECT_EQ(after.pool_misses, before.pool_misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(ks.pooled_count(), 1u);
  EXPECT_TRUE(ks.pooled(pooled));
  EXPECT_FALSE(ks.pooled(cold));
}

// Storm: more threads than slots, a few hot keys so the same id races
// itself, and refusals injected mid-storm — first a tampered blob on one
// key (later restored), then the domain powered off for the last phase
// (power_off is irreversible). Every success verifies, every failed sign
// is a counted refusal, the bound holds throughout, and the pool drains.
TEST(EncryptedHostKeystore, StormWithInjectedRefusalsKeepsTheBound) {
  constexpr std::size_t kWorkingSet = 2;
  constexpr int kThreads = 6;
  sim::CoprocessorDomain domain(0xe4);
  EncryptedHostKeystore ks(domain, {.working_set = kWorkingSet});
  const auto keys = make_keys(4, 25);
  std::vector<KeyId> ids;
  for (const auto& k : keys) ids.push_back(ks.add_key(k).value());
  const KeyId tampered = ids[3];

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failed{0}, bad{0}, over_bound{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      util::Rng rng(700 + static_cast<std::uint64_t>(t));
      while (!stop.load()) {
        const auto idx = static_cast<std::size_t>(rng.next_below(ids.size()));
        const bn::Bignum m(rng.next_below(1u << 30) + 2);
        const auto sig = ks.sign(ids[idx], m);
        if (!sig) {
          ++failed;
        } else if (keys[idx].public_key().encrypt_raw(*sig) != m) {
          ++bad;
        }
        if (ks.pooled_count() > kWorkingSet) ++over_bound;
      }
    });
  }
  // Each phase lasts until the storm has done `ops` more signs and, when
  // asked, refused at least once more.
  const auto phase = [&](std::uint64_t ops, bool want_refusal) {
    const auto s0 = ks.stats();
    for (;;) {
      const auto s = ks.stats();
      if (s.ops >= s0.ops + ops && (!want_refusal || s.refusals > s0.refusals)) return;
      std::this_thread::yield();
    }
  };
  phase(100, false);
  ASSERT_TRUE(ks.flip_blob_byte(tampered, kSealedHeaderBytes + 1));
  phase(100, true);
  ASSERT_TRUE(ks.flip_blob_byte(tampered, kSealedHeaderBytes + 1));  // restore
  phase(100, false);
  domain.power_off();
  phase(100, true);
  stop.store(true);
  for (auto& w : workers) w.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(over_bound.load(), 0u);
  EXPECT_GT(failed.load(), 0u);
  EXPECT_EQ(failed.load(), ks.stats().refusals);
  EXPECT_LE(ks.pooled_count(), kWorkingSet);
  ks.evict_all();
  EXPECT_EQ(ks.pooled_count(), 0u);
}

}  // namespace
}  // namespace keyguard::keystore
