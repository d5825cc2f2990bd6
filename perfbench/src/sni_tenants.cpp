// sni_tenants: the encrypted-pool SNI frontend at kIntegrated.
//
// 256 vhosts (16 distinct 1024-bit keys cycled), N=64 pool pages, W=4
// plaintext working set. One client draws vhosts by skewed popularity (the
// hot fifth takes 80%) from the benchmark's own generator and passes each
// one to handle_request(vhost). Every private op goes through the
// keystore: working-set hits, in-place page decrypts and re-encrypts, blob
// unseals and coprocessor round trips are all on the blocking path.
//
// Two arms, interleaved per block with the same vhost stream: the
// encrypted pool (primary) and the mlocked plaintext pool with the same N
// (reference), so ops_per_s / ref_ops_per_s is the price of keeping keys
// ciphertext at rest. key_copies = frames holding plaintext key bytes in
// the encrypted arm's machine at run end; the bound is W.
#include "core/protection.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "scan/key_scanner.hpp"
#include "servers/sni_frontend.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMemBytes = 64ull << 20;
constexpr std::size_t kVhosts = 256;
constexpr std::size_t kDistinctKeys = 16;
constexpr std::size_t kPoolPages = 64;
constexpr std::size_t kWorkingSet = 4;
constexpr std::size_t kBlock = 20;  // requests per arm per round

enum ArmKind : std::size_t { kEncrypted = 0, kMlocked = 1 };
constexpr const char* kArmNames[2] = {"encrypted", "mlocked"};

/// Request latencies in reference-machine time (steady blocks only).
struct Samples {
  std::vector<double> req_us;
  double busy_s = 0.0;
  double rate() const {
    return busy_s > 0 ? static_cast<double>(req_us.size()) / busy_s : 0.0;
  }
};

struct Arm {
  ArmKind kind = kEncrypted;
  std::unique_ptr<sim::Kernel> kernel;
  std::unique_ptr<servers::SniFrontend> frontend;
  util::Rng picks{0};
  Samples samples[2];  // [untraced, traced]
};

struct State {
  Arm arms[2];
};

/// Keystore counters summed over traced blocks of the encrypted arm.
struct EncDelta {
  std::uint64_t ops = 0, working_hits = 0, page_decrypts = 0, reencrypts = 0,
                blob_unseals = 0, evictions = 0, round_trips = 0;
};

void build_arm(Arm& arm, ArmKind kind, std::span<const crypto::RsaPrivateKey> vhost_keys,
               std::uint64_t seed) {
  arm.kind = kind;
  const auto profile = core::make_profile(core::ProtectionLevel::kIntegrated, kMemBytes);
  auto cfg = core::sni_config(profile, kPoolPages);
  cfg.backend = kind == kEncrypted ? keystore::PoolBackend::kEncrypted
                                   : keystore::PoolBackend::kMlocked;
  cfg.encrypted.working_set = kWorkingSet;
  arm.kernel = std::make_unique<sim::Kernel>(profile.kernel, kMachineSeed);
  arm.frontend = std::make_unique<servers::SniFrontend>(*arm.kernel, cfg,
                                                        util::Rng(seed ^ 0x736e69ULL));
  if (!arm.frontend->start(vhost_keys)) arm.frontend.reset();
  arm.picks = util::Rng(seed ^ 0x7069636b73ULL);
}

}  // namespace

void run_sni_tenants(const Options& opt, Report& report) {
  const auto keys = make_keys(opt.seed, kDistinctKeys);
  std::vector<crypto::RsaPrivateKey> vhost_keys;
  for (std::size_t i = 0; i < kVhosts; ++i) vhost_keys.push_back(keys[i % kDistinctKeys]);
  if (opt.trace) run_layer_probes(keys.front(), opt.seed, report);

  auto state = timed_setups(report, [&] {
    auto st = std::make_unique<State>();
    build_arm(st->arms[kEncrypted], kEncrypted, vhost_keys, opt.seed);
    build_arm(st->arms[kMlocked], kMlocked, vhost_keys, opt.seed);
    return st;
  });
  for (const auto& arm : state->arms) {
    if (!report.check(arm.frontend != nullptr,
                      std::string("sni ") + kArmNames[arm.kind] + ": 256 vhosts ingested")) {
      return;
    }
  }

  EncDelta delta;
  std::uint64_t ml_ops = 0, ml_hits = 0;
  SpeedGauge speed(SpeedKernel::kCompute);
  auto run_round = [&](std::uint64_t round, bool counted) {
    const bool traced = round_traced(opt, round);
    set_tracing(traced);
    speed.open();
    for (std::size_t k = 0; k < 2; ++k) {
      Arm& arm = state->arms[(round + k) % 2];
      servers::SniFrontend& fe = *arm.frontend;
      const bool enc = arm.kind == kEncrypted;
      const auto es0 = enc ? fe.encrypted_keystore().stats() : keystore::EncryptedKeystoreStats{};
      const auto rt0 = enc ? fe.encrypted_keystore().domain().round_trips() : 0;
      const auto ms0 = enc ? keystore::SimKeystoreStats{} : fe.keystore().stats();
      std::vector<double> block_us;
      for (std::size_t i = 0; i < kBlock; ++i) {
        const std::size_t vhost = pick_skewed(arm.picks, kVhosts);
        const auto t0 = Clock::now();
        const bool ok = fe.handle_request(vhost);
        block_us.push_back(micros(t0, Clock::now()));
        if (counted) {
          report.attempt();
          if (!ok) report.fail();
        }
      }
      const Bracket b = speed.bracket();
      if (counted && b.steady) {
        Samples& s = arm.samples[traced ? 1 : 0];
        for (const double us : block_us) {
          s.req_us.push_back(us * b.factor);
          s.busy_s += us * b.factor * 1e-6;
        }
      }
      if (!(counted && traced)) continue;
      if (enc) {
        const auto& es = fe.encrypted_keystore().stats();
        delta.ops += es.ops - es0.ops;
        delta.working_hits += es.working_hits - es0.working_hits;
        delta.page_decrypts += es.page_decrypts - es0.page_decrypts;
        delta.reencrypts += es.reencrypts - es0.reencrypts;
        delta.blob_unseals += es.blob_unseals - es0.blob_unseals;
        delta.evictions += es.evictions - es0.evictions;
        delta.round_trips += fe.encrypted_keystore().domain().round_trips() - rt0;
      } else {
        const auto& ms = fe.keystore().stats();
        ml_ops += ms.ops - ms0.ops;
        ml_hits += ms.pool_hits - ms0.pool_hits;
      }
    }
    set_tracing(false);
  };

  run_round(0, false);  // warm-up
  const auto start = Clock::now();
  std::uint64_t rounds = 0;
  while (seconds_since(start) < opt.seconds) run_round(rounds++, true);
  report.set_trials(rounds);
  if (opt.trace) dump_trace(opt);

  // -- correctness, untimed ------------------------------------------------
  scan::KeyScanner scanner(scan::KeyPatterns::from_keys(keys));
  scanner.set_shards(1);
  const auto hits = scanner.scan_kernel(*state->arms[kEncrypted].kernel);
  const std::size_t copies = distinct_frames(hits);
  report.check(copies <= kWorkingSet, "sni encrypted: key_copies <= W (4)");

  const Samples& se = state->arms[kEncrypted].samples[0];
  const Samples& sm = state->arms[kMlocked].samples[0];
  report.e2e("ops_per_s", se.rate(), "1/s");
  report.e2e("ref_ops_per_s", sm.rate(), "1/s");
  report.latency("sni.req_p99_us", se.req_us);
  report.e2e("key_copies", static_cast<double>(copies), "count");
  report.show("sni.req_per_s", se.rate(), "1/s", "(encrypted pool)");
  report.show("sni.req_per_s.mlocked", sm.rate(), "1/s");
  report.show("key_copies", static_cast<double>(copies), "frames",
              "(" + std::to_string(hits.size()) + " needle hits, bound W=4)");
  report.unsteady_blocks(speed.unsteady(), speed.blocks());

  if (!opt.trace) return;
  const Samples& te = state->arms[kEncrypted].samples[1];
  report.layer("sni.request_us.p50", median(te.req_us), "us");
  const auto t = tail(te.req_us);
  report.layer("sni.request_us.tail", t ? t->value : 0.0, "us");
  const double ops = std::max<double>(1.0, static_cast<double>(delta.ops));
  report.layer("enc_keystore.hit_ratio", static_cast<double>(delta.working_hits) / ops, "ratio");
  report.layer("enc_keystore.page_decrypts.per_req", delta.page_decrypts / ops, "count");
  report.layer("enc_keystore.reencrypts.per_req", delta.reencrypts / ops, "count");
  report.layer("enc_keystore.blob_unseals.per_req", delta.blob_unseals / ops, "count");
  report.layer("enc_keystore.evictions.per_req", delta.evictions / ops, "count");
  report.layer("sni.domain.round_trips.per_req", delta.round_trips / ops, "count");
  auto& unseal = obs::MetricsRegistry::global().histogram("enc_keystore.unseal_ms");
  report.layer("enc_keystore.unseal_ms.p50", unseal.quantile(0.50), "ms");
  report.layer("enc_keystore.unseal_ms.p99", unseal.quantile(0.99), "ms");
  report.layer("sim_keystore.hit_ratio",
               static_cast<double>(ml_hits) / std::max<double>(1.0, ml_ops), "ratio");
  report.layer("trace.overhead", se.rate() > 0 ? te.rate() / se.rate() : 0.0, "ratio");
}

}  // namespace perfbench
