// host_sign: the host keystore library real programs link.
//
// Three client threads sign against 64 sealed keys (16 distinct 1024-bit
// keys cycled), picking keys by the same skewed popularity as the SNI
// workload from per-thread seeded generators. Two arms, interleaved per
// phase with the same key streams:
//
//   encrypted  EncryptedHostKeystore (W=4) over a bench-owned
//              CoprocessorDomain (KSB2 blobs, fail-closed);
//   mlocked    Keystore (N=4) with its mlocked master key (KSB1 blobs).
//
// Every signature is verified with the public key outside the timed call.
// No simulator is involved: SecureRsaKey CRT math, blob unseal and pin
// waits on the pool mutex are the only work. A rate counts signatures per
// second of in-call time, summed over the three clients (waiting on the
// pool counts, client bookkeeping does not). key_copies = plaintext
// working copies the encrypted store holds at run end; the bound is W.
#include <thread>

#include "harness.hpp"
#include "keystore/encrypted_keystore_host.hpp"
#include "keystore/keystore.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kKeys = 64;
constexpr std::size_t kDistinctKeys = 16;
constexpr std::size_t kWorkingSet = 4;
constexpr std::size_t kThreads = 3;
constexpr double kPhaseSeconds = 0.1;

enum ArmKind : std::size_t { kEncrypted = 0, kMlocked = 1 };

struct State {
  explicit State(std::uint64_t seed) : domain(seed ^ 0x636f70726fULL) {}
  sim::CoprocessorDomain domain;
  std::unique_ptr<keystore::EncryptedHostKeystore> enc;
  std::unique_ptr<keystore::Keystore> ml;
  std::vector<keystore::KeyId> ids[2];
  bool ok = true;
};

struct Samples {
  std::vector<double> sign_us;
  double busy_s = 0.0;  // summed over client threads
  double rate() const {
    return busy_s > 0 ? static_cast<double>(sign_us.size()) * kThreads / busy_s : 0.0;
  }
};

struct Client {
  util::Rng picks{0};
  util::Rng messages{0};
  SpeedGauge speed{SpeedKernel::kCompute};
  std::vector<double> sign_us;
  double busy_s = 0.0;
  bool steady = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Store counters summed over traced phases.
struct Delta {
  std::uint64_t ops = 0, hits = 0, unseals = 0, refusals = 0, round_trips = 0;
};

std::unique_ptr<State> build(const std::vector<crypto::RsaPrivateKey>& keys,
                             std::uint64_t seed) {
  auto st = std::make_unique<State>(seed);
  st->enc = std::make_unique<keystore::EncryptedHostKeystore>(
      st->domain, keystore::EncryptedHostConfig{kWorkingSet});
  keystore::HostKeystoreConfig ml_cfg;
  ml_cfg.pool_keys = kWorkingSet;
  st->ml = std::make_unique<keystore::Keystore>(ml_cfg);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const auto& key = keys[i % kDistinctKeys];
    const auto id = st->enc->add_key(key);
    st->ok = id.has_value() && st->ok;
    st->ids[kEncrypted].push_back(id.value_or(0));
    st->ids[kMlocked].push_back(st->ml->add_key(key));
  }
  return st;
}

/// One phase: kThreads closed-loop clients on one store until `seconds`.
/// Each client samples its own speed gauge before and after the phase
/// (the machine's slowdowns differ per core).
void run_phase(State& st, ArmKind arm, std::vector<Client>& clients, double seconds,
               const std::vector<crypto::RsaPrivateKey>& keys) {
  std::vector<std::thread> threads;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  for (auto& c : clients) {
    threads.emplace_back([&st, arm, &c, deadline, &keys] {
      c.speed.open();
      while (Clock::now() < deadline) {
        const std::size_t idx = pick_skewed(c.picks, kKeys);
        const auto& pub = keys[idx % kDistinctKeys];
        const bn::Bignum m = random_below(c.messages, pub.n);
        const keystore::KeyId id = st.ids[arm][idx];
        const auto t0 = Clock::now();
        std::optional<bn::Bignum> sig;
        if (arm == kEncrypted) {
          sig = st.enc->sign(id, m);
        } else {
          sig = st.ml->sign(id, m);
        }
        const auto t1 = Clock::now();
        c.sign_us.push_back(micros(t0, t1));
        c.busy_s += micros(t0, t1) * 1e-6;
        ++c.attempted;
        if (!sig || pub.public_key().encrypt_raw(*sig) != m) ++c.failed;
      }
      // The phase is one block: scaled to reference-machine time when
      // steady, left out of the timings when not (speed.hpp).
      const Bracket b = c.speed.bracket();
      for (double& us : c.sign_us) us *= b.factor;
      c.busy_s *= b.factor;
      c.steady = b.steady;
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

void run_host_sign(const Options& opt, Report& report) {
  const auto keys = make_keys(opt.seed, kDistinctKeys);
  if (opt.trace) run_layer_probes(keys.front(), opt.seed, report);
  auto state = timed_setups(report, [&] { return build(keys, opt.seed); });
  if (!report.check(state->ok, "host_sign: every key sealed")) return;

  // clients[arm][t]: both arms replay the same per-thread key streams.
  std::vector<Client> clients[2];
  for (auto& arm_clients : clients) {
    for (std::size_t t = 0; t < kThreads; ++t) {
      Client c;
      c.picks = util::Rng(opt.seed * 0x100000001b3ULL + t);
      c.messages = util::Rng(opt.seed ^ (0x6d7367ULL + t));
      arm_clients.push_back(std::move(c));
    }
  }
  Samples samples[2][2];  // [arm][untraced, traced]
  Delta delta[2];

  auto phase = [&](ArmKind arm, bool traced, bool counted, double seconds) {
    auto& cs = clients[arm];
    for (auto& c : cs) {
      c.sign_us.clear();
      c.busy_s = 0.0;
      c.attempted = c.failed = 0;
    }
    const auto es0 = state->enc->stats();
    const auto ms0 = state->ml->stats();
    const auto rt0 = state->domain.round_trips();
    run_phase(*state, arm, cs, seconds, keys);
    if (!counted) return;
    Samples& s = samples[arm][traced ? 1 : 0];
    for (const auto& c : cs) {
      report.attempt(c.attempted);
      report.fail(c.failed);
      if (!c.steady) continue;
      s.sign_us.insert(s.sign_us.end(), c.sign_us.begin(), c.sign_us.end());
      s.busy_s += c.busy_s;
    }
    if (!traced) return;
    Delta& d = delta[arm];
    if (arm == kEncrypted) {
      const auto es = state->enc->stats();
      d.ops += es.ops - es0.ops;
      d.hits += es.pool_hits - es0.pool_hits;
      d.unseals += es.unseals - es0.unseals;
      d.refusals += es.refusals - es0.refusals;
      d.round_trips += state->domain.round_trips() - rt0;
    } else {
      const auto ms = state->ml->stats();
      d.ops += ms.ops - ms0.ops;
      d.hits += ms.pool_hits - ms0.pool_hits;
      d.unseals += ms.unseals - ms0.unseals;
    }
  };

  set_tracing(false);
  phase(kEncrypted, false, false, kPhaseSeconds / 2);  // warm-up
  phase(kMlocked, false, false, kPhaseSeconds / 2);
  const auto start = Clock::now();
  std::uint64_t rounds = 0;
  while (seconds_since(start) < opt.seconds) {
    const bool traced = round_traced(opt, rounds);
    set_tracing(traced);
    const ArmKind first = rounds % 2 == 0 ? kEncrypted : kMlocked;
    phase(first, traced, true, kPhaseSeconds);
    phase(first == kEncrypted ? kMlocked : kEncrypted, traced, true, kPhaseSeconds);
    set_tracing(false);
    ++rounds;
  }
  report.set_trials(rounds);
  if (opt.trace) dump_trace(opt);

  const std::size_t copies = state->enc->pooled_count();
  report.check(copies <= kWorkingSet, "host encrypted: key_copies <= W (4)");
  report.check(state->enc->stats().refusals == 0, "host encrypted: no refusals");

  const Samples& se = samples[kEncrypted][0];
  const Samples& sm = samples[kMlocked][0];
  report.e2e("ops_per_s", se.rate(), "1/s");
  report.e2e("ref_ops_per_s", sm.rate(), "1/s");
  report.latency("host.sign_p99_us", se.sign_us);
  report.e2e("key_copies", static_cast<double>(copies), "count");
  report.show("host.sign_per_s", se.rate(), "1/s", "(encrypted, 3 clients)");
  report.show("host.sign_per_s.mlocked", sm.rate(), "1/s", "(3 clients)");
  report.show("key_copies", static_cast<double>(copies), "keys", "(plaintext working copies)");
  std::uint64_t unsteady = 0, blocks = 0;
  for (const auto& arm_clients : clients) {
    for (const auto& c : arm_clients) {
      unsteady += c.speed.unsteady();
      blocks += c.speed.blocks();
    }
  }
  report.unsteady_blocks(unsteady, blocks);

  if (!opt.trace) return;
  const char* names[2] = {"encrypted", "mlocked"};
  for (std::size_t a = 0; a < 2; ++a) {
    const Delta& d = delta[a];
    const double ops = std::max<double>(1.0, static_cast<double>(d.ops));
    const std::string n = names[a];
    report.layer("host.hit_ratio." + n, d.hits / ops, "ratio");
    report.layer("host.unseals.per_sign." + n, d.unseals / ops, "count");
    report.layer("host.refusals." + n, static_cast<double>(d.refusals), "count");
    const auto& t_us = samples[a][1].sign_us;
    report.layer("host.sign_us.p50." + n, median(t_us), "us");
    const auto tl = tail(t_us);
    report.layer("host.sign_us.tail." + n, tl ? tl->value : 0.0, "us");
  }
  report.layer("domain.round_trips.per_sign",
               delta[kEncrypted].round_trips /
                   std::max<double>(1.0, static_cast<double>(delta[kEncrypted].ops)),
               "count");
  auto& reg = obs::MetricsRegistry::global();
  auto& enc_unseal = reg.histogram("enc_keystore_host.unseal_ms");
  auto& ml_unseal = reg.histogram("keystore.unseal_ms");
  report.layer("enc_keystore_host.unseal_ms.p50", enc_unseal.quantile(0.50), "ms");
  report.layer("enc_keystore_host.unseal_ms.p99", enc_unseal.quantile(0.99), "ms");
  report.layer("keystore.unseal_ms.p50", ml_unseal.quantile(0.50), "ms");
  report.layer("keystore.unseal_ms.p99", ml_unseal.quantile(0.99), "ms");
  report.layer("trace.overhead",
               se.rate() > 0 ? samples[kEncrypted][1].rate() / se.rate() : 0.0, "ratio");
}

}  // namespace perfbench
