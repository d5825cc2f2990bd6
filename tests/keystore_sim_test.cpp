// Sim-side keystore: the measurable lifecycle. Pool pages are scrubbed on
// eviction (bytes AND taint), residue with the defenses off lands exactly
// where the paper says it does, and at-rest blobs are ciphertext the
// auditor classifies as non-secret.
//
// The pool-discipline cases are function templates run through both
// facades of SimKeyPool: SimKeystore.* and EncryptedPoolKeystore.* (the
// latter with a one-page working set, so squeeze and re-entry run too).
#include "keystore/sim_keystore.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <type_traits>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "crypto/pem.hpp"
#include "keystore/encrypted_keystore.hpp"
#include "keystore/sealed_blob.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace keyguard::keystore {
namespace {

using analysis::ShadowTaintMap;
using analysis::TaintAuditor;
using sim::TaintTag;

struct Rig {
  sim::Kernel kernel;
  ShadowTaintMap map;
  sim::Process* proc;
  sim::CoprocessorDomain domain{0x51};  ///< EncryptedPoolKeystore's page key

  // O_NOCACHE support is on so the integrated-style configs keep key-file
  // text out of the page cache; the kernel stays stock otherwise (no
  // zero-on-free), so scrub failures are visible as residue.
  explicit Rig(std::size_t mem = 16ull << 20)
      : kernel(sim::KernelConfig{.mem_bytes = mem, .o_nocache_supported = true}),
        map(kernel) {
    kernel.attach_taint(&map);
    proc = &kernel.spawn("keystore_proc");
  }
};

std::vector<crypto::RsaPrivateKey> make_keys(std::size_t n, std::uint64_t seed = 11) {
  util::Rng rng(seed);
  std::vector<crypto::RsaPrivateKey> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(crypto::generate_rsa_key(rng, 512));
  return out;
}

std::vector<KeyId> ingest_all(Rig& rig, SimKeyPool& ks,
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

/// One padded encrypt/decrypt round against key `idx`, verified.
void roundtrip(SimKeyPool& ks, const std::vector<KeyId>& ids,
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

TEST(SimKeystore, IngestAndPrivateOpRoundTrip) {
  Rig rig;
  SimKeystore ks(rig.kernel, *rig.proc, {.pool_pages = 2});
  const auto keys = make_keys(3);
  const auto ids = ingest_all(rig, ks, keys);
  util::Rng rng(5);
  for (std::size_t i = 0; i < ids.size(); ++i) roundtrip(ks, ids, i, rng);
  EXPECT_EQ(ks.stats().ingested, 3u);
  EXPECT_EQ(ks.stats().ops, 3u);
}

TEST(SimKeystore, IngestRejectsMissingAndMalformedFiles) {
  Rig rig;
  SimKeystore ks(rig.kernel, *rig.proc, {});
  EXPECT_FALSE(ks.ingest_pem("/no/such/file").has_value());
  rig.kernel.vfs().write_file("/keys/garbage.pem", util::to_bytes("not a key"));
  EXPECT_FALSE(ks.ingest_pem("/keys/garbage.pem").has_value());
}

// ---- pool discipline, through both facades -------------------------------

template <typename Store>
std::unique_ptr<Store> make_store(Rig& rig, std::size_t pages);

template <>
std::unique_ptr<SimKeystore> make_store(Rig& rig, std::size_t pages) {
  return std::make_unique<SimKeystore>(rig.kernel, *rig.proc,
                                       SimKeystoreConfig{.pool_pages = pages});
}

template <>
std::unique_ptr<EncryptedPoolKeystore> make_store(Rig& rig, std::size_t pages) {
  return std::make_unique<EncryptedPoolKeystore>(
      rig.kernel, *rig.proc, rig.domain,
      EncryptedKeystoreConfig{.pool_pages = pages, .working_set = 1});
}

/// The counters both facades share, under either facade's field names.
struct Counts {
  std::uint64_t hits, unseals, evictions, refusals, ops;
  bool operator==(const Counts&) const = default;
};
Counts counts(const SimKeystore& ks) {
  const auto s = ks.stats();
  EXPECT_EQ(s.pool_misses, s.unseals);
  return {s.pool_hits, s.unseals, s.evictions, s.refusals, s.ops};
}
Counts counts(const EncryptedPoolKeystore& ks) {
  const auto s = ks.stats();
  return {s.working_hits, s.blob_unseals, s.evictions, s.refusals, s.ops};
}

template <typename Store>
void pool_bound_holds_under_churn_and_lru_evicts() {
  Rig rig;
  auto ks = make_store<Store>(rig, 2);
  const auto keys = make_keys(5);
  const auto ids = ingest_all(rig, *ks, keys);
  util::Rng rng(6);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      roundtrip(*ks, ids, i, rng);
      EXPECT_LE(ks->pooled_count(), 2u);
      EXPECT_LE(ks->plaintext_count(), ks->working_set());
    }
  }
  EXPECT_GT(counts(*ks).evictions, 0u);
  // LRU: after touching ids[4] last, ids[4] must be pooled.
  EXPECT_TRUE(ks->pooled(ids[4]));
}

template <typename Store>
void pool_hit_does_not_unseal() {
  Rig rig;
  auto ks = make_store<Store>(rig, 2);
  const auto keys = make_keys(1);
  const auto ids = ingest_all(rig, *ks, keys);
  util::Rng rng(7);
  for (int i = 0; i < 5; ++i) roundtrip(*ks, ids, 0, rng);
  EXPECT_EQ(counts(*ks).unseals, 1u);
  EXPECT_EQ(counts(*ks).hits, 4u);
}

template <typename Store>
void evicted_slot_is_scrubbed_bytes_and_taint() {
  Rig rig;
  auto ks = make_store<Store>(rig, 1);
  const auto keys = make_keys(2);
  const auto ids = ingest_all(rig, *ks, keys);
  util::Rng rng(8);
  roundtrip(*ks, ids, 0, rng);
  ASSERT_TRUE(ks->pooled(ids[0]));
  ks->evict(ids[0]);
  EXPECT_FALSE(ks->pooled(ids[0]));

  // Bytes: the slot page reads back all-zero before any reuse.
  std::vector<std::byte> page(sim::kPageSize);
  rig.kernel.mem_read(*rig.proc, ks->slot_page(0), page);
  EXPECT_TRUE(std::all_of(page.begin(), page.end(),
                          [](std::byte b) { return b == std::byte{0}; }));

  // Taint: no kPoolKey bytes survive anywhere in the machine.
  TaintAuditor auditor(rig.map);
  const auto report = auditor.audit(rig.kernel);
  EXPECT_EQ(report.bytes_by_tag[static_cast<std::size_t>(TaintTag::kPoolKey)], 0u);

  // And the slot is immediately reusable for the other key.
  roundtrip(*ks, ids, 1, rng);
  EXPECT_TRUE(ks->pooled(ids[1]));
}

template <typename Store>
void scrubbing_shutdown_leaves_no_secret_bytes() {
  Rig rig;
  {
    auto ks = make_store<Store>(rig, 2);
    const auto keys = make_keys(2);
    const auto ids = ingest_all(rig, *ks, keys);
    util::Rng rng(10);
    roundtrip(*ks, ids, 0, rng);
    roundtrip(*ks, ids, 1, rng);
    ks->shutdown();
  }
  TaintAuditor auditor(rig.map);
  const auto report = auditor.audit(rig.kernel);
  EXPECT_EQ(report.secret.total(), 0u)
      << TaintAuditor::format(report);
}

std::string metrics_snapshot() {
  util::JsonWriter w;
  w.begin_object();
  obs::MetricsRegistry::global().write_snapshot(w);
  w.end_object();
  return w.str();
}

template <typename Store>
void unknown_key_id_throws_before_anything_moves() {
  Rig rig;
  auto ks = make_store<Store>(rig, 2);
  const auto keys = make_keys(2);
  const auto ids = ingest_all(rig, *ks, keys);
  util::Rng rng(13);
  roundtrip(*ks, ids, 0, rng);

  auto& reg = obs::MetricsRegistry::global();
  auto& bus = obs::EventBus::global();
  reg.set_enabled(true);
  bus.set_enabled(true);
  const Counts before = counts(*ks);
  const std::string metrics_before = metrics_snapshot();
  const auto events_before = bus.published();
  const KeyId unknown = ids.back() + 1000;
  EXPECT_THROW((void)ks->try_private_op(unknown, bn::Bignum(42)), std::out_of_range);
  EXPECT_THROW((void)ks->public_key(unknown), std::out_of_range);
  EXPECT_EQ(counts(*ks), before);
  EXPECT_EQ(metrics_snapshot(), metrics_before);
  EXPECT_EQ(bus.published(), events_before);
  reg.set_enabled(false);
  bus.set_enabled(false);
  EXPECT_TRUE(ks->pooled(ids[0]));
}

template <typename Store>
void corrupt_blob_refuses_and_evicts_nothing() {
  Rig rig;
  auto ks = make_store<Store>(rig, 1);
  const auto keys = make_keys(2);
  const auto ids = ingest_all(rig, *ks, keys);
  util::Rng rng(14);
  roundtrip(*ks, ids, 0, rng);  // fills the one-page pool

  // Flip the cold key's magic ("KSB1"/"KSB2" -> garbage) through kernel
  // memory, like a disclosure-then-tamper attack would.
  std::byte b[1];
  rig.kernel.mem_read(*rig.proc, ks->blob_address(ids[1]), b);
  b[0] ^= std::byte{0x40};
  rig.kernel.mem_write(*rig.proc, ks->blob_address(ids[1]), b, TaintTag::kSealed);

  const Counts before = counts(*ks);
  const auto c = ks->public_key(ids[1]).encrypt_raw(bn::Bignum(42));
  EXPECT_FALSE(ks->try_private_op(ids[1], c).has_value());
  Counts want = before;
  ++want.refusals;
  EXPECT_EQ(counts(*ks), want);  // no eviction, no miss, no op
  EXPECT_TRUE(ks->pooled(ids[0]));
  EXPECT_FALSE(ks->pooled(ids[1]));
  EXPECT_EQ(ks->slot_occupant(0), ids[0]);
  // The pooled neighbour still serves as before.
  roundtrip(*ks, ids, 0, rng);
}

#define POOL_DISCIPLINE_CASE(Case, fn)                          \
  TEST(SimKeystore, Case) { fn<SimKeystore>(); }                \
  TEST(EncryptedPoolKeystore, Case) { fn<EncryptedPoolKeystore>(); }

POOL_DISCIPLINE_CASE(PoolBoundHoldsUnderChurnAndLruEvicts,
                     pool_bound_holds_under_churn_and_lru_evicts)
POOL_DISCIPLINE_CASE(PoolHitDoesNotUnseal, pool_hit_does_not_unseal)
POOL_DISCIPLINE_CASE(EvictedSlotIsScrubbedBytesAndTaint,
                     evicted_slot_is_scrubbed_bytes_and_taint)
POOL_DISCIPLINE_CASE(ScrubbingShutdownLeavesNoSecretBytes,
                     scrubbing_shutdown_leaves_no_secret_bytes)
POOL_DISCIPLINE_CASE(UnknownKeyIdThrowsBeforeAnythingMoves,
                     unknown_key_id_throws_before_anything_moves)
POOL_DISCIPLINE_CASE(CorruptBlobRefusesAndEvictsNothing,
                     corrupt_blob_refuses_and_evicts_nothing)

TEST(SimKeystore, CorruptPlaintextDerRefusesAndEvictsNothing) {
  // The baseline keeps plaintext DER at rest (no MAC, no magic): DER that
  // no longer decodes takes the same fail-closed path as a bad blob.
  Rig rig;
  SimKeystore ks(rig.kernel, *rig.proc, {.pool_pages = 1, .seal_at_rest = false});
  const auto keys = make_keys(2);
  const auto ids = ingest_all(rig, ks, keys);
  util::Rng rng(15);
  roundtrip(ks, ids, 0, rng);
  const std::byte junk[1] = {std::byte{0xff}};  // the SEQUENCE tag, gone
  rig.kernel.mem_write(*rig.proc, ks.blob_address(ids[1]), junk, TaintTag::kDer);

  const auto before = ks.stats();
  const auto c = ks.public_key(ids[1]).encrypt_raw(bn::Bignum(42));
  EXPECT_FALSE(ks.try_private_op(ids[1], c).has_value());
  const auto after = ks.stats();
  EXPECT_EQ(after.refusals, before.refusals + 1);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.pool_misses, before.pool_misses);
  EXPECT_TRUE(ks.pooled(ids[0]));
  EXPECT_FALSE(ks.pooled(ids[1]));
}

TEST(SimKeystore, NoScrubConfigLeavesResidueAfterShutdown) {
  Rig rig;
  auto* proc = rig.proc;
  {
    SimKeystore ks(rig.kernel, *proc,
                   {.pool_pages = 1,
                    .seal_at_rest = true,
                    .scrub_on_evict = false,
                    .clear_temporaries = false});
    const auto keys = make_keys(1);
    const auto ids = ingest_all(rig, ks, keys);
    util::Rng rng(9);
    roundtrip(ks, ids, 0, rng);
    ks.shutdown();  // munmaps WITHOUT scrubbing
  }
  TaintAuditor auditor(rig.map);
  const auto report = auditor.audit(rig.kernel);
  // Pool limbs and master key are now unallocated plaintext residue —
  // exactly what scrub_on_evict exists to prevent.
  EXPECT_GT(report.secret.unallocated, 0u);
  EXPECT_GT(report.bytes_by_tag[static_cast<std::size_t>(TaintTag::kPoolKey)], 0u);
  EXPECT_GT(report.bytes_by_tag[static_cast<std::size_t>(TaintTag::kMasterKey)], 0u);
}

TEST(SimKeystore, SealedBlobsAreCiphertextNotSecret) {
  Rig rig;
  SimKeystore ks(rig.kernel, *rig.proc, {.pool_pages = 2});
  const auto keys = make_keys(4);
  ingest_all(rig, ks, keys);

  // No ops yet: the only plaintext secret in the machine is the master
  // key on its single mlocked page; blobs are sealed heap bytes.
  TaintAuditor auditor(rig.map);
  const auto report = auditor.audit(rig.kernel);
  EXPECT_GT(report.sealed.allocated, 0u);
  EXPECT_EQ(report.secret_tainted_frames, 1u);
  EXPECT_EQ(report.master_key_frames, 1u);
  EXPECT_TRUE(report.bounded_locked_pages_only(2)) << TaintAuditor::format(report);
}

TEST(SimKeystore, UnsealedAtRestViolatesTheBound) {
  Rig rig;
  SimKeystore ks(rig.kernel, *rig.proc,
                 {.pool_pages = 2,
                  .seal_at_rest = false,
                  .scrub_on_evict = true,
                  .clear_temporaries = true});
  const auto keys = make_keys(4);
  const auto ids = ingest_all(rig, ks, keys);
  util::Rng rng(12);
  roundtrip(ks, ids, 0, rng);

  TaintAuditor auditor(rig.map);
  const auto report = auditor.audit(rig.kernel);
  // Plaintext DER blobs sit in swappable heap: secret bytes off the
  // locked set, so no bound can hold.
  EXPECT_GT(report.bytes_by_tag[static_cast<std::size_t>(TaintTag::kDer)], 0u);
  EXPECT_FALSE(report.bounded_locked_pages_only(2));
  EXPECT_FALSE(report.bounded_locked_pages_only(1000));
}

}  // namespace
}  // namespace keyguard::keystore
