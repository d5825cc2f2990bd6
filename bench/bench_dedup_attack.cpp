// Extension experiment: the memory-deduplication side channel, and the
// taint-aware no-merge defense.
//
// A multi-tenant machine running same-content page merging
// (sim::DedupEngine — KSM / ESXi-TPS shaped) gives every tenant a timing
// oracle: spray a guessed page, wait for the merge pass, re-write one
// byte. A copy-on-write fault (~kWriteCostCowBreakNs) instead of a minor
// write (~kWriteCostMinorNs) means SOME other tenant held exactly those
// bytes (Schwarzl et al., "Remote Memory-Deduplication Attacks"). Against
// this repo's SNI keystore the guessable target is a pool-slot page: its
// layout is public (limb images of d,p,q,dmp1,dmq1,iqmp from the page
// start, zero tail), only the key bytes vary.
//
// Timeline, per state:
//   round r:  traffic -> ground truth (which keys are pooled) ->
//             DedupEngine::scan() -> probe (timed 1-byte re-writes) ->
//             score detections against truth
//
// States:
//   "no defense"   merging on, secrets mergeable. Expect precision and
//                  recall ~1.0 — and the taint bound VIOLATED: the COW
//                  break that fires the timing signal also copies the
//                  key-tainted bytes into the attacker's private frame.
//   "defense"      DedupConfig::no_merge_secret + per-tenant blob-nonce
//                  salting. Expect detection at chance (fp rate) while
//                  the NON-secret duplicate pages still merge (savings
//                  retained) and bounded_locked_pages_only(N) HOLDS.
//
// A final phase shows the at-rest half of the channel: two keystores with
// the same master seed seal the same key to BYTE-IDENTICAL blobs unless
// blob_salt differs (keystore::salted_nonce) — salted blobs differ at
// rest yet still serve correct private ops.
//
// Writes machine-readable results to BENCH_dedup_attack.json (--json
// PATH); --smoke shrinks rounds/memory for CI. The SHAPE CHECKs below are
// the gate: the exit status is non-zero when any fails or the JSON
// cannot be written.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "attack/dedup_probe.hpp"
#include "common.hpp"
#include "core/protection.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "servers/sni_frontend.hpp"
#include "sim/dedup.hpp"
#include "sim/taint.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"

using namespace kgbench;

namespace {

constexpr std::size_t kVhosts = 8;   ///< present candidate keys (victim tenants)
constexpr std::size_t kDecoys = 8;   ///< absent candidates (never ingested)
constexpr std::size_t kPool = 4;     ///< < kVhosts, so pooled-ness varies
constexpr std::size_t kFiller = 6;   ///< duplicate NON-secret pages per twin
constexpr double kEpsilon = 0.05;    ///< defense gate: detection <= chance + eps

struct RoundRow {
  std::size_t round = 0;
  std::size_t pooled = 0;          ///< present candidates resident this round
  std::size_t merged_this_scan = 0;
  attack::DetectionScore score;
  std::uint64_t min_merged_ns = 0; ///< slowest-class probe writes (0 = none)
  std::uint64_t max_clean_ns = 0;
  bool bounded = false;
};

struct StateResult {
  std::string name;
  bool defense = false;
  std::vector<RoundRow> rounds;
  attack::DetectionScore total;
  sim::DedupStats dedup;
  std::size_t saved_pages_final = 0;
  std::size_t shared_frames_final = 0;
  bool all_bounded = true;

  double detection_rate() const { return total.recall(); }
  double chance() const { return total.fp_rate(); }
};

/// Secret predicate for the engine: any byte of the frame carries a
/// plaintext-secret tag (kSealed ciphertext is NOT secret — salting, not
/// the no-merge veto, is the at-rest defense).
std::function<bool(sim::FrameNumber)> secret_pred(const analysis::ShadowTaintMap& map) {
  return [&map](sim::FrameNumber f) { return map.frame_secrets(f).secret > 0; };
}

/// A recognizable non-secret page image (twin `i` of the filler set).
std::vector<std::byte> filler_page(std::size_t i) {
  std::vector<std::byte> page(sim::kPageSize);
  for (std::size_t b = 0; b < page.size(); ++b) {
    page[b] = static_cast<std::byte>((0xA0 + i * 7 + b * 13) & 0xFF);
  }
  return page;
}

StateResult run_state(bool defense, const Scale& s, std::size_t rounds,
                      int requests_per_round,
                      const std::vector<crypto::RsaPrivateKey>& candidates) {
  const auto profile =
      core::make_profile(core::ProtectionLevel::kIntegrated, s.mem_bytes);
  sim::Kernel kernel(profile.kernel);
  analysis::ShadowTaintMap map(kernel);
  kernel.attach_taint(&map);

  sim::DedupConfig dcfg;
  dcfg.merge_zero_pages = false;  // zero-page churn would drown the stats
  dcfg.no_merge_secret = defense;
  sim::DedupEngine dedup(kernel, dcfg);
  dedup.set_secret_predicate(secret_pred(map));

  auto cfg = core::sni_config(profile, kPool);
  // The at-rest half of the defense: a per-tenant nonce salt. 0 keeps the
  // legacy (colliding) blob layout for the undefended state.
  cfg.keystore.blob_salt = defense ? 0x7e6e616e74ULL : 0;
  servers::SniFrontend frontend(kernel, cfg, util::Rng(31));
  {
    std::vector<crypto::RsaPrivateKey> vhost_keys(candidates.begin(),
                                                  candidates.begin() + kVhosts);
    if (!frontend.start(vhost_keys)) {
      std::fprintf(stderr, "frontend failed to start\n");
      std::exit(1);
    }
  }

  // Two co-tenant "filler" processes with byte-identical, non-secret
  // working sets — the pages dedup exists to merge. The defense must NOT
  // cost these savings.
  sim::Process& twin_a = kernel.spawn("filler twin a");
  sim::Process& twin_b = kernel.spawn("filler twin b");
  for (auto* twin : {&twin_a, &twin_b}) {
    for (std::size_t i = 0; i < kFiller; ++i) {
      const auto addr = kernel.mmap_anon(*twin, sim::kPageSize,
                                         /*mlocked=*/false, "filler page");
      kernel.mem_write(*twin, addr, filler_page(i));
    }
  }

  attack::DedupTimingProbe probe(kernel, "dedup attacker");
  {
    std::vector<std::vector<std::byte>> guesses;
    guesses.reserve(candidates.size());
    for (const auto& key : candidates) {
      guesses.push_back(attack::pool_page_image(key));
    }
    probe.spray(guesses);
  }

  StateResult result;
  result.name = defense ? "defense (no-merge secret + salted blobs)"
                        : "no defense (dedup on)";
  result.defense = defense;
  analysis::TaintAuditor auditor(map);

  for (std::size_t r = 1; r <= rounds; ++r) {
    for (int q = 0; q < requests_per_round; ++q) {
      if (!frontend.handle_request()) {
        std::fprintf(stderr, "handshake failed (round %zu)\n", r);
        std::exit(1);
      }
    }
    // Ground truth AT SCAN TIME: candidate i < kVhosts is "present" iff
    // its key is materialized on a pool page right now. Decoys were never
    // ingested anywhere — their detection rate is the chance level.
    std::vector<bool> truth(candidates.size(), false);
    RoundRow row;
    row.round = r;
    for (std::size_t i = 0; i < kVhosts; ++i) {
      truth[i] = frontend.keystore().pooled(frontend.vhost_key(i));
      row.pooled += truth[i];
    }

    row.merged_this_scan = dedup.scan();
    const auto probes = probe.probe();
    row.score = attack::DedupTimingProbe::score(probes, truth);
    for (const auto& p : probes) {
      if (p.merged) {
        row.min_merged_ns =
            row.min_merged_ns == 0 ? p.write_ns : std::min(row.min_merged_ns, p.write_ns);
      } else {
        row.max_clean_ns = std::max(row.max_clean_ns, p.write_ns);
      }
    }
    row.bounded = auditor.audit(kernel).bounded_locked_pages_only(kPool);
    result.all_bounded = result.all_bounded && row.bounded;
    result.total.accumulate(row.score);
    result.rounds.push_back(row);
  }

  result.dedup = dedup.stats();
  result.saved_pages_final = dedup.saved_pages();
  result.shared_frames_final = dedup.shared_frame_count();
  probe.stop();
  frontend.stop();
  kernel.exit_process(twin_a);
  kernel.exit_process(twin_b);
  kernel.attach_taint(nullptr);
  return result;
}

void print_state(const StateResult& st) {
  std::printf("--- %s ---\n", st.name.c_str());
  util::Table t({"round", "pooled", "merged", "tp", "fp", "fn", "tn",
                 "cow ns", "minor ns", "bound(4)"});
  for (const auto& r : st.rounds) {
    t.add_row({std::to_string(r.round), std::to_string(r.pooled),
               std::to_string(r.merged_this_scan), std::to_string(r.score.tp),
               std::to_string(r.score.fp), std::to_string(r.score.fn),
               std::to_string(r.score.tn), std::to_string(r.min_merged_ns),
               std::to_string(r.max_clean_ns),
               r.bounded ? "HOLDS" : "VIOLATED"});
  }
  std::printf("%s\n%s\n", t.render().c_str(), t.render_tsv().c_str());
  std::printf("totals: precision %s, recall %s, chance (fp rate) %s; "
              "%llu merged / %llu vetoed / %llu unmerges; %zu pages saved\n\n",
              util::fmt(st.total.precision(), 2).c_str(),
              util::fmt(st.total.recall(), 2).c_str(),
              util::fmt(st.chance(), 2).c_str(),
              static_cast<unsigned long long>(st.dedup.pages_merged),
              static_cast<unsigned long long>(st.dedup.vetoed_secret),
              static_cast<unsigned long long>(st.dedup.unmerges),
              st.saved_pages_final);
}

void write_state_json(util::JsonWriter& json, const StateResult& st) {
  json.begin_object()
      .field("name", st.name)
      .field("defense", st.defense)
      .field("rounds", st.rounds.size())
      .field("tp", st.total.tp)
      .field("fp", st.total.fp)
      .field("fn", st.total.fn)
      .field("tn", st.total.tn)
      .field("precision", st.total.precision())
      .field("recall", st.total.recall())
      .field("detection_rate", st.detection_rate())
      .field("chance", st.chance())
      .field("pages_merged", st.dedup.pages_merged)
      .field("pages_considered", st.dedup.pages_considered)
      .field("vetoed_secret", st.dedup.vetoed_secret)
      .field("hash_collisions", st.dedup.hash_collisions)
      .field("unmerges", st.dedup.unmerges)
      .field("saved_pages", st.saved_pages_final)
      .field("shared_frames", st.shared_frames_final)
      .field("all_bounded", st.all_bounded);
  json.key("timeline").begin_array();
  for (const auto& r : st.rounds) {
    json.begin_object()
        .field("round", r.round)
        .field("pooled", r.pooled)
        .field("merged_this_scan", r.merged_this_scan)
        .field("tp", r.score.tp)
        .field("fp", r.score.fp)
        .field("fn", r.score.fn)
        .field("tn", r.score.tn)
        .field("bounded", r.bounded)
        .end_object();
  }
  json.end_array().end_object();
}

struct SaltPhase {
  bool unsalted_equal = false;  ///< same master seed, salt 0: blobs collide
  bool salted_equal = true;     ///< distinct salts: blobs must differ
  bool roundtrip_ok = false;    ///< salted stores still serve correct ops
};

/// Reads `id`'s at-rest blob bytes out of a keystore's heap.
std::vector<std::byte> blob_bytes(sim::Kernel& kernel, sim::Process& proc,
                                  const keystore::SimKeystore& ks,
                                  keystore::KeyId id) {
  std::vector<std::byte> out(ks.blob_size(id));
  kernel.mem_read(proc, ks.blob_address(id), out);
  return out;
}

SaltPhase run_salt_phase(const Scale& s, const crypto::RsaPrivateKey& key) {
  const auto profile =
      core::make_profile(core::ProtectionLevel::kIntegrated, s.mem_bytes);
  sim::Kernel kernel(profile.kernel);
  kernel.vfs().write_file("/etc/sni/shared.pem",
                          util::to_bytes(crypto::pem_encode_private_key(key)));

  SaltPhase phase;
  const auto one_store = [&](std::uint64_t salt, std::vector<std::byte>* blob,
                             bool* op_ok) {
    sim::Process& proc = kernel.spawn("tenant");
    keystore::SimKeystoreConfig cfg;  // default master_seed: SHARED
    cfg.blob_salt = salt;
    keystore::SimKeystore ks(kernel, proc, cfg);
    const auto id = ks.ingest_pem("/etc/sni/shared.pem");
    if (!id) std::exit(1);
    *blob = blob_bytes(kernel, proc, ks, *id);
    // The salted blob must still unseal to the SAME key: sign/verify once.
    const bn::Bignum m(0x1dedu);
    const auto sig = ks.try_private_op(*id, m);
    *op_ok = sig && ks.public_key(*id).encrypt_raw(*sig) == m;
    ks.shutdown();
    kernel.exit_process(proc);
  };

  std::vector<std::byte> a, b, c, d;
  bool ok_a = false, ok_b = false, ok_c = false, ok_d = false;
  one_store(0, &a, &ok_a);
  one_store(0, &b, &ok_b);
  one_store(0x111ULL, &c, &ok_c);
  one_store(0x222ULL, &d, &ok_d);
  phase.unsalted_equal = a == b;
  phase.salted_equal = c == d || a == c;
  phase.roundtrip_ok = ok_a && ok_b && ok_c && ok_d;

  std::printf("blob salting: unsalted twins %s, salted twins %s, "
              "round-trip %s\n\n",
              phase.unsalted_equal ? "BYTE-IDENTICAL (dedup-detectable)"
                                   : "differ",
              phase.salted_equal ? "COLLIDE (defense broken)" : "differ",
              phase.roundtrip_ok ? "ok" : "FAILED");
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  static constexpr std::string_view kKnownFlags[] = {"json", "smoke", "rounds"};
  if (const auto unknown = flags.first_unknown(kKnownFlags)) {
    std::fprintf(stderr, "bench_dedup_attack: unknown flag --%s\n",
                 unknown->c_str());
    return 2;
  }
  const bool smoke = flags.get_bool("smoke");
  const std::string json_path = flags.get("json", "BENCH_dedup_attack.json");

  Scale s = scale_from_env();
  if (smoke) s.mem_bytes = std::min<std::size_t>(s.mem_bytes, 16ull << 20);
  const std::size_t rounds = static_cast<std::size_t>(
      flags.get_int("rounds", smoke ? 2 : (s.full ? 8 : 5)));
  const int requests_per_round = smoke ? 12 : 24;
  const std::size_t key_bits = s.full ? 1024 : 512;

  banner("Extension — memory-deduplication side channel vs no-merge defense",
         "same-content page merging turns key-page PRESENCE into a write-"
         "timing oracle; a taint-aware no-merge policy (plus blob-nonce "
         "salting) drops detection to chance while non-secret pages keep "
         "merging",
         s);

  obs::MetricsRegistry::global().set_enabled(true);
  std::vector<crypto::RsaPrivateKey> candidates;
  {
    util::Rng rng(4242);
    candidates.reserve(kVhosts + kDecoys);
    for (std::size_t i = 0; i < kVhosts + kDecoys; ++i) {
      candidates.push_back(crypto::generate_rsa_key(rng, key_bits));
    }
  }

  const auto undefended = run_state(false, s, rounds, requests_per_round, candidates);
  const auto defended = run_state(true, s, rounds, requests_per_round, candidates);
  print_state(undefended);
  print_state(defended);
  const auto salt = run_salt_phase(s, candidates[0]);

  util::JsonWriter json;
  obs::begin_report(json, "bench_dedup_attack");
  json.field("bench", "dedup_attack")
      .field("vhosts", kVhosts)
      .field("decoys", kDecoys)
      .field("pool_pages", kPool)
      .field("filler_pages", kFiller)
      .field("rounds", rounds)
      .field("requests_per_round", requests_per_round)
      .field("key_bits", key_bits)
      .field("epsilon", kEpsilon)
      .field("smoke", smoke)
      .field("full_scale", s.full);
  json.key("states").begin_array();
  write_state_json(json, undefended);
  write_state_json(json, defended);
  json.end_array();
  json.key("blob_salting")
      .begin_object()
      .field("unsalted_equal", salt.unsalted_equal)
      .field("salted_equal", salt.salted_equal)
      .field("roundtrip_ok", salt.roundtrip_ok)
      .end_object();

  bool ok = true;
  ok &= shape_check(undefended.total.precision() >= 0.9,
                    "no defense: detection precision >= 0.9 (measured " +
                        util::fmt(undefended.total.precision(), 2) + ")");
  ok &= shape_check(undefended.total.recall() >= 0.9,
                    "no defense: every resident key page is detected "
                    "(recall " + util::fmt(undefended.total.recall(), 2) + ")");
  ok &= shape_check(undefended.dedup.pages_merged > 0,
                    "no defense: dedup merged pages (" +
                        std::to_string(undefended.dedup.pages_merged) + ")");
  ok &= shape_check(!undefended.all_bounded,
                    "no defense: the COW break copies key-tainted bytes into "
                    "the attacker's frame — locked-pages bound VIOLATED");
  ok &= shape_check(defended.detection_rate() <= defended.chance() + kEpsilon,
                    "defense: detection (" +
                        util::fmt(defended.detection_rate(), 2) +
                        ") <= chance (" + util::fmt(defended.chance(), 2) +
                        ") + " + util::fmt(kEpsilon, 2));
  ok &= shape_check(defended.dedup.pages_merged > 0 &&
                        defended.saved_pages_final > 0,
                    "defense: non-secret duplicate pages still merge "
                    "(savings retained: " +
                        std::to_string(defended.saved_pages_final) + " pages)");
  ok &= shape_check(defended.dedup.vetoed_secret > 0,
                    "defense: the veto actually fired on secret pages");
  ok &= shape_check(defended.dedup.unmerges == 0,
                    "defense: zero unmerges (no secret page was ever merged)");
  ok &= shape_check(defended.all_bounded,
                    "defense: bounded_locked_pages_only(4) HOLDS every round");
  ok &= shape_check(salt.unsalted_equal,
                    "salt 0: same key + same master seed -> byte-identical "
                    "at-rest blobs (the cross-tenant collision)");
  ok &= shape_check(!salt.salted_equal,
                    "distinct salts: at-rest blobs never collide");
  ok &= shape_check(salt.roundtrip_ok,
                    "salted blobs still unseal to a working key");

  json.field("shape_checks_ok", ok);
  obs::write_metrics_field(json, obs::MetricsRegistry::global());
  json.end_object();
  ok &= write_json(json_path, json.str());
  return ok ? 0 : 1;
}
