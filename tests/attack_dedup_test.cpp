// Dedup timing side channel, end to end at unit scale: the spray →
// merge → timed-probe oracle against a real SimKeystore pool page, the
// no-merge defense killing it, and the taint consequences of the probe
// itself (bench_dedup_attack runs the same story at workload scale).
#include "attack/dedup_probe.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "crypto/pem.hpp"
#include "keystore/sim_keystore.hpp"
#include "sim/dedup.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::attack {
namespace {

using analysis::ShadowTaintMap;
using analysis::TaintAuditor;

constexpr std::size_t kPool = 2;

std::vector<crypto::RsaPrivateKey> make_keys(std::size_t n) {
  util::Rng rng(2026);
  std::vector<crypto::RsaPrivateKey> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(crypto::generate_rsa_key(rng, 512));
  return out;
}

/// Victim half of every test: a keystore tenant with `keys` ingested and
/// the FIRST key materialized into a pool slot.
struct VictimRig {
  sim::Kernel kernel;
  ShadowTaintMap map;
  sim::Process* proc;
  keystore::SimKeystore ks;
  std::vector<keystore::KeyId> ids;

  explicit VictimRig(const std::vector<crypto::RsaPrivateKey>& keys)
      : kernel(sim::KernelConfig{.mem_bytes = 16ull << 20,
                                 .o_nocache_supported = true}),
        map(kernel),
        proc((kernel.attach_taint(&map), &kernel.spawn("victim"))),
        ks(kernel, *proc, keystore::SimKeystoreConfig{.pool_pages = kPool}) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::string path = "/keys/k" + std::to_string(i) + ".pem";
      kernel.vfs().write_file(
          path, util::to_bytes(crypto::pem_encode_private_key(keys[i])),
          sim::TaintTag::kPem);
      ids.push_back(ks.ingest_pem(path).value());
    }
    // Materialize key 0: its pool-slot page is now the guessable target.
    const bn::Bignum c(42);
    (void)ks.try_private_op(ids[0], c);
  }

  ~VictimRig() { ks.shutdown(); }

  /// Secret predicate over the live shadow: any secret-tainted byte in
  /// the frame (same classifier the bench and scanmemory --dedup use).
  std::function<bool(sim::FrameNumber)> secret_pred() {
    return [this](sim::FrameNumber f) {
      const std::size_t base = static_cast<std::size_t>(f) * sim::kPageSize;
      for (std::size_t i = 0; i < sim::kPageSize; ++i) {
        if (sim::taint_tag_secret(map.phys_tag(base + i))) return true;
      }
      return false;
    };
  }
};

TEST(DedupProbe, PoolPageImageMatchesTheMaterializedSlot) {
  const auto keys = make_keys(1);
  VictimRig rig(keys);
  ASSERT_TRUE(rig.ks.pooled(rig.ids[0]));
  const auto image = pool_page_image(keys[0]);
  ASSERT_EQ(image.size(), sim::kPageSize);
  std::vector<std::byte> slot(sim::kPageSize);
  rig.kernel.mem_read(*rig.proc, rig.ks.slot_page(0), slot);
  // The layout really is public knowledge: the attacker-side
  // reconstruction is byte-identical to the victim's live pool page.
  EXPECT_EQ(slot, image);
}

TEST(DedupProbe, TimingDistinguishesResidentFromAbsentKeys) {
  const auto keys = make_keys(2);  // key 0 resident, key 1 never pooled
  VictimRig rig({keys[0]});
  sim::DedupEngine dedup(rig.kernel);  // defense OFF
  DedupTimingProbe probe(rig.kernel);

  std::vector<std::vector<std::byte>> guesses;
  guesses.push_back(pool_page_image(keys[0]));
  guesses.push_back(pool_page_image(keys[1]));
  probe.spray(guesses);
  ASSERT_GT(dedup.scan(), 0u);

  const auto results = probe.probe();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].merged);
  EXPECT_GE(results[0].write_ns, DedupTimingProbe::kMergedThresholdNs);
  EXPECT_FALSE(results[1].merged);
  EXPECT_EQ(results[1].write_ns, sim::kWriteCostMinorNs);

  const auto score = DedupTimingProbe::score(results, {true, false});
  EXPECT_EQ(score.tp, 1u);
  EXPECT_EQ(score.tn, 1u);
  EXPECT_EQ(score.fp, 0u);
  EXPECT_EQ(score.fn, 0u);
  EXPECT_EQ(score.precision(), 1.0);
  EXPECT_EQ(score.recall(), 1.0);
}

TEST(DedupProbe, OracleIsRepeatableAcrossRounds) {
  const auto keys = make_keys(1);
  VictimRig rig(keys);
  sim::DedupEngine dedup(rig.kernel);
  DedupTimingProbe probe(rig.kernel);
  std::vector<std::vector<std::byte>> guesses;
  guesses.push_back(pool_page_image(keys[0]));
  probe.spray(guesses);
  // The probe write preserves content, so scan → slow-probe repeats.
  for (int round = 0; round < 3; ++round) {
    ASSERT_GT(dedup.scan(), 0u) << "round " << round;
    EXPECT_TRUE(probe.probe()[0].merged) << "round " << round;
  }
  EXPECT_EQ(dedup.stats().unmerges, 3u);
}

TEST(DedupProbe, NoMergeDefenseCollapsesDetectionToChance) {
  const auto keys = make_keys(1);
  VictimRig rig(keys);
  sim::DedupConfig cfg;
  cfg.no_merge_secret = true;
  sim::DedupEngine dedup(rig.kernel, cfg);
  dedup.set_secret_predicate(rig.secret_pred());
  DedupTimingProbe probe(rig.kernel);
  std::vector<std::vector<std::byte>> guesses;
  guesses.push_back(pool_page_image(keys[0]));
  probe.spray(guesses);

  dedup.scan();
  EXPECT_GE(dedup.stats().vetoed_secret, 1u);
  const auto results = probe.probe();
  EXPECT_FALSE(results[0].merged);  // nothing merged: every write is fast
  EXPECT_EQ(results[0].write_ns, sim::kWriteCostMinorNs);
  // The pool invariant survives the whole attack.
  TaintAuditor auditor(rig.map);
  EXPECT_TRUE(auditor.audit(rig.kernel).bounded_locked_pages_only(kPool));
}

TEST(DedupProbe, UndefendedMergeLeaksKeyBytesIntoTheAttacker) {
  const auto keys = make_keys(1);
  VictimRig rig(keys);
  TaintAuditor auditor(rig.map);
  ASSERT_TRUE(rig.kernel.taint() != nullptr);
  ASSERT_TRUE(auditor.audit(rig.kernel).bounded_locked_pages_only(kPool));

  sim::DedupEngine dedup(rig.kernel);
  dedup.set_secret_predicate(rig.secret_pred());  // canonical prefers secret
  DedupTimingProbe probe(rig.kernel);
  std::vector<std::vector<std::byte>> guesses;
  guesses.push_back(pool_page_image(keys[0]));
  probe.spray(guesses);
  ASSERT_GT(dedup.scan(), 0u);
  // Merged but unwritten: the attacker maps the victim's frame read-only;
  // no NEW plaintext page exists yet.
  ASSERT_TRUE(auditor.audit(rig.kernel).bounded_locked_pages_only(kPool));

  // The probe's COW break copies the key-tainted page into a fresh frame
  // the ATTACKER owns — the merge didn't just leak presence, it handed
  // the attacker a plaintext copy outside the mlocked pool.
  EXPECT_TRUE(probe.probe()[0].merged);
  EXPECT_FALSE(auditor.audit(rig.kernel).bounded_locked_pages_only(kPool));
}

TEST(DedupProbe, ScoreHandlesEmptyAndOneSidedRounds) {
  const DetectionScore empty{};
  EXPECT_EQ(empty.precision(), 0.0);
  EXPECT_EQ(empty.recall(), 0.0);
  EXPECT_EQ(empty.fp_rate(), 0.0);

  // All-absent candidates, no detections: tn only.
  std::vector<DedupProbeResult> cold(3);
  for (std::size_t i = 0; i < cold.size(); ++i) cold[i].candidate = i;
  const auto s = DedupTimingProbe::score(cold, {false, false, false});
  EXPECT_EQ(s.tn, 3u);
  EXPECT_EQ(s.precision(), 0.0);  // zero denominator, not NaN
  EXPECT_EQ(s.fp_rate(), 0.0);

  DetectionScore acc{};
  acc.accumulate(s);
  acc.accumulate(DetectionScore{.tp = 2, .fp = 1, .fn = 1, .tn = 0});
  EXPECT_EQ(acc.tp, 2u);
  EXPECT_EQ(acc.fp, 1u);
  EXPECT_EQ(acc.fn, 1u);
  EXPECT_EQ(acc.tn, 3u);
  EXPECT_DOUBLE_EQ(acc.fp_rate(), 0.25);
}

}  // namespace
}  // namespace keyguard::attack
