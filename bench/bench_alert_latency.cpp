// Alert latency: the active observability layer's headline claim, proven
// live. Four seeded breaches — secret page swapped out, dedup merging a
// secret frame, plaintext working set overflowing its bound, and an
// exposure budget (∫bytes·dt) overrun — each must be caught by the
// AlertEngine with EVENT-ACCURATE latency: strictly below one period of
// the periodic-audit baseline (a TaintAuditor sweep every T), at a
// fraction of its inspection cost, with ZERO false alerts when the
// corresponding defense is on.
//
//   per scenario   undefended run: seed the breach at a known instant
//                  under the manual clock; the engine's alert timestamp
//                  gives the detection latency, and for the budget rule
//                  the interpolated breach_ts_ns must hit the analytic
//                  crossing to within a few ns (DESIGN §13). The sweep
//                  baseline detects at the next multiple of T — checked
//                  honestly: the sweep's detector really does miss just
//                  before the breach and hit just after.
//                  defended run: same workload with the defense on
//                  (mlock, no-merge-secret policy, bound kept, budget
//                  kept) must fire NOTHING.
//   cost           engine.shadow_bytes_examined() — bytes of the shadow
//                  map's per-frame/per-slot count entries the engine read
//                  (4 per frame or slot touched per event) — vs sweeps ×
//                  full shadow size.
//   overhead       ssh churn with the engine attached and the bus live
//                  vs passive shadow-only tracking: 31 same-seed pairs
//                  (61 outside --smoke), alternating which arm runs first;
//                  the median per-pair overhead must be <= 5%.
//   forensics      the budget breach freezes a FlightRecorder; the
//                  bundle's trigger must replay the exact breach instant
//                  and contain no key-byte substring (raw or hex).
//
// Runs argument-free; --smoke shrinks the overhead phase for CI; --json
// PATH names the JSON report (default BENCH_alert_latency.json). The
// SHAPE CHECKs are the gate: the exit status is non-zero when any fails
// or the JSON cannot be written.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "common.hpp"
#include "obs/alert.hpp"
#include "obs/clock.hpp"
#include "obs/event_bus.hpp"
#include "obs/exposure_monitor.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sim/dedup.hpp"
#include "util/json.hpp"
#include "util/json_reader.hpp"

using namespace kgbench;

namespace {

/// One sweep period of the periodic-audit baseline the engine competes
/// against: every latency below is judged versus this.
constexpr std::uint64_t kSweepPeriodNs = obs::kNsPerSec;

/// Tolerance on the interpolated budget-crossing timestamp. The math is
/// double-precision seconds scaled to ns, so "exact" means a handful of
/// ulps — versus the sweep baseline's error of up to a full period.
constexpr std::uint64_t kBreachEpsilonNs = 8;

struct CollectSink final : obs::AlertSink {
  std::vector<obs::Alert> alerts;
  void on_alert(const obs::Alert& a) override { alerts.push_back(a); }
};

struct ScenarioResult {
  std::string name;
  bool detected = false;        ///< undefended run fired >= 1 alert
  bool sweep_detects = false;   ///< full audit sees the breach after (not before)
  bool defended_clean = false;  ///< defended twin quiet (merge: also vetoed + merged)
  std::uint64_t true_breach_ns = 0;
  std::uint64_t engine_detect_ns = 0;  ///< alert ts_ns
  std::uint64_t engine_breach_ns = 0;  ///< alert breach_ts_ns
  std::uint64_t engine_latency_ns = 0; ///< detect - true breach
  std::uint64_t sweep_latency_ns = 0;  ///< next sweep tick - true breach
  std::uint64_t breach_err_ns = 0;     ///< |engine_breach - true_breach|
  std::uint64_t engine_bytes = 0;      ///< count-entry bytes the engine read
  std::uint64_t sweep_bytes = 0;       ///< sweeps-to-detect x full shadow
  std::size_t alerts = 0;
  std::size_t defended_alerts = 0;
};

std::uint64_t sweep_latency(std::uint64_t t0, std::uint64_t breach) {
  const std::uint64_t since = breach - t0;
  const std::uint64_t ticks = since / kSweepPeriodNs + 1;  // next tick AFTER
  return t0 + ticks * kSweepPeriodNs - breach;
}

std::uint64_t sweeps_to_detect(std::uint64_t t0, std::uint64_t breach) {
  return (breach - t0) / kSweepPeriodNs + 1;
}

std::uint64_t full_shadow_bytes(const analysis::ShadowTaintMap& shadow) {
  return shadow.phys_shadow().size() + shadow.swap_shadow().size();
}

bool frame_has_secret(const analysis::ShadowTaintMap& shadow,
                      sim::FrameNumber frame) {
  return shadow.frame_secrets(frame).secret > 0;
}

/// Attach/detach bookkeeping every scenario repeats: shadow + engine on
/// the fanout, engine subscribed to the (enabled) bus.
struct EngineRig {
  analysis::ShadowTaintMap shadow;
  obs::AlertEngine engine;
  sim::TaintFanout fanout;
  CollectSink sink;
  sim::Kernel& kernel;

  EngineRig(sim::Kernel& k, obs::ExposureMonitor* monitor = nullptr)
      : shadow(k), engine(k, shadow, monitor), kernel(k) {
    fanout.add(&shadow);
    engine.add_sink(&sink);
  }
  /// Call after adding any monitor to the fanout (order: shadow, monitor,
  /// engine — the engine must see updated state, see alert.hpp).
  void go() {
    fanout.add(&engine);
    kernel.attach_taint(&fanout);
    obs::EventBus::global().subscribe(&engine);
    obs::EventBus::global().set_enabled(true);
  }
  ~EngineRig() {
    obs::EventBus::global().set_enabled(false);
    obs::EventBus::global().unsubscribe(&engine);
    kernel.attach_taint(nullptr);
  }
};

std::vector<std::byte> patterned_page(std::uint8_t seed) {
  std::vector<std::byte> page(sim::kPageSize);
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::byte>((seed + i * 7) & 0xff);
  }
  return page;
}

// ---- scenario 1: secret page swapped out ----------------------------------

ScenarioResult run_swap_scenario(bool defended, ScenarioResult r) {
  sim::KernelConfig cfg;
  cfg.mem_bytes = 8ull << 20;
  cfg.swap_pages = 16;
  sim::Kernel kernel(cfg, /*seed=*/11);
  EngineRig rig(kernel);
  rig.engine.add_rule({.name = "swap", .kind = obs::RuleKind::kSecretToSwap,
                       .severity = obs::Severity::kCritical});
  rig.go();
  const std::uint64_t t0 = obs::now_ns();

  sim::Process& p = kernel.spawn("victim");
  // The defense IS mlock: a pinned page never reaches the swap path.
  const sim::VirtAddr addr =
      kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/defended, "keybuf");
  const auto secret = patterned_page(0x5a);
  kernel.mem_write(p, addr, std::span(secret).first(64), sim::TaintTag::kKeyD);

  obs::manual_clock_advance(obs::kNsPerSec * 33 / 10);  // t0 + 3.3 s
  const std::uint64_t breach = obs::now_ns();

  const analysis::TaintAuditor auditor(rig.shadow);
  const bool clean_before = auditor.audit(kernel).secret.swap == 0;
  kernel.swap_out_pages(p, 4);
  const bool dirty_after = auditor.audit(kernel).secret.swap > 0;

  if (defended) {
    r.defended_alerts = rig.sink.alerts.size();
    r.defended_clean = rig.sink.alerts.empty();
    return r;
  }
  r.true_breach_ns = breach;
  r.alerts = rig.sink.alerts.size();
  r.detected = !rig.sink.alerts.empty();
  r.sweep_detects = clean_before && dirty_after;
  if (r.detected) {
    r.engine_detect_ns = rig.sink.alerts.front().ts_ns;
    r.engine_breach_ns = rig.sink.alerts.front().breach_ts_ns;
    r.engine_latency_ns = r.engine_detect_ns - breach;
    r.breach_err_ns = r.engine_breach_ns > breach ? r.engine_breach_ns - breach
                                                  : breach - r.engine_breach_ns;
  }
  r.sweep_latency_ns = sweep_latency(t0, breach);
  r.engine_bytes = rig.engine.shadow_bytes_examined();
  r.sweep_bytes = sweeps_to_detect(t0, breach) * full_shadow_bytes(rig.shadow);
  return r;
}

// ---- scenario 2: dedup merges a secret frame ------------------------------

ScenarioResult run_merge_scenario(bool defended, ScenarioResult r) {
  sim::KernelConfig cfg;
  cfg.mem_bytes = 8ull << 20;
  sim::Kernel kernel(cfg, /*seed=*/12);
  EngineRig rig(kernel);
  rig.engine.add_rule({.name = "merged",
                       .kind = obs::RuleKind::kSecretFrameMerged,
                       .severity = obs::Severity::kCritical});
  rig.go();
  const std::uint64_t t0 = obs::now_ns();

  sim::Process& victim = kernel.spawn("victim");
  sim::Process& attacker = kernel.spawn("attacker");
  const auto key_page = patterned_page(0xc3);
  const auto filler_page = patterned_page(0x11);
  const sim::VirtAddr va = kernel.mmap_anon(victim, sim::kPageSize, false, "key");
  kernel.mem_write(victim, va, key_page, sim::TaintTag::kPoolKey);
  // The probe: the attacker writes the guessed page byte-for-byte.
  const sim::VirtAddr aa = kernel.mmap_anon(attacker, sim::kPageSize, false, "probe");
  kernel.mem_write(attacker, aa, key_page, sim::TaintTag::kClean);
  // A clean twin pair proves the defended run still merges SOMETHING —
  // the no-merge policy is not dedup-off in disguise.
  const sim::VirtAddr f1 = kernel.mmap_anon(victim, sim::kPageSize, false, "f1");
  kernel.mem_write(victim, f1, filler_page, sim::TaintTag::kClean);
  const sim::VirtAddr f2 = kernel.mmap_anon(attacker, sim::kPageSize, false, "f2");
  kernel.mem_write(attacker, f2, filler_page, sim::TaintTag::kClean);

  sim::DedupConfig dcfg;
  dcfg.merge_zero_pages = false;
  dcfg.no_merge_secret = defended;
  sim::DedupEngine dedup(kernel, dcfg);
  dedup.set_secret_predicate([&rig](sim::FrameNumber f) {
    return frame_has_secret(rig.shadow, f);
  });

  obs::manual_clock_advance(obs::kNsPerSec * 26 / 10);  // t0 + 2.6 s
  const std::uint64_t breach = obs::now_ns();

  // Sweep-detectable fact: a secret-tainted frame mapped more than once.
  const auto shared_secret_frames = [&] {
    std::size_t n = 0;
    for (std::size_t f = 0; f < kernel.memory().page_count(); ++f) {
      const auto fn = static_cast<sim::FrameNumber>(f);
      if (frame_has_secret(rig.shadow, fn) &&
          kernel.frame_mappings(fn).size() > 1) {
        ++n;
      }
    }
    return n;
  };
  const bool clean_before = shared_secret_frames() == 0;
  dedup.scan();
  const bool merged_secret = shared_secret_frames() > 0;

  if (defended) {
    r.defended_alerts = rig.sink.alerts.size();
    // Defense quality, not just silence: the probe was vetoed AND the
    // clean twins still merged.
    r.defended_clean = rig.sink.alerts.empty() &&
                       dedup.stats().vetoed_secret > 0 &&
                       dedup.stats().pages_merged > 0;
    return r;
  }
  r.true_breach_ns = breach;
  r.alerts = rig.sink.alerts.size();
  r.detected = !rig.sink.alerts.empty();
  r.sweep_detects = clean_before && merged_secret;
  if (r.detected) {
    r.engine_detect_ns = rig.sink.alerts.front().ts_ns;
    r.engine_breach_ns = rig.sink.alerts.front().breach_ts_ns;
    r.engine_latency_ns = r.engine_detect_ns - breach;
    r.breach_err_ns = r.engine_breach_ns > breach ? r.engine_breach_ns - breach
                                                  : breach - r.engine_breach_ns;
  }
  r.sweep_latency_ns = sweep_latency(t0, breach);
  r.engine_bytes = rig.engine.shadow_bytes_examined();
  r.sweep_bytes = sweeps_to_detect(t0, breach) * full_shadow_bytes(rig.shadow);
  return r;
}

// ---- scenario 3: plaintext working set overflows its bound ----------------

ScenarioResult run_working_set_scenario(bool defended, ScenarioResult r) {
  constexpr std::uint64_t kBound = 4;
  constexpr std::uint64_t kGraceNs = 50'000'000;  // 50 ms
  sim::KernelConfig cfg;
  cfg.mem_bytes = 8ull << 20;
  sim::Kernel kernel(cfg, /*seed=*/13);
  EngineRig rig(kernel);
  rig.engine.add_rule({.name = "wset",
                       .kind = obs::RuleKind::kWorkingSetBound,
                       .severity = obs::Severity::kCritical,
                       .bound = kBound,
                       .grace_ns = kGraceNs,
                       .cooldown_ns = 10 * obs::kNsPerSec});
  rig.go();
  const std::uint64_t t0 = obs::now_ns();

  sim::Process& p = kernel.spawn("pool");
  const auto secret = patterned_page(0x77);
  // One mlocked secret page per millisecond; the write that makes it
  // kBound+1 pages is the breach instant (the invariant arms there).
  const std::size_t pages = defended ? kBound : kBound + 2;
  std::uint64_t breach = 0;
  for (std::size_t i = 0; i < pages; ++i) {
    obs::manual_clock_advance(obs::kNsPerSec / 1000);
    const sim::VirtAddr a =
        kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/true, "pool");
    kernel.mem_write(p, a, std::span(secret).first(128),
                     sim::TaintTag::kPoolKey);
    if (i == kBound) breach = obs::now_ns();  // (kBound+1)-th secret page
  }

  const analysis::TaintAuditor auditor(rig.shadow);
  const bool violated_now =
      !auditor.audit(kernel).bounded_plaintext_working_set(kBound);

  // Benign churn (clean writes) gives the engine its evaluation points;
  // the grace window must expire across them, never fire inside it.
  sim::Process& churn = kernel.spawn("churn");
  const sim::VirtAddr ca = kernel.mmap_anon(churn, sim::kPageSize, false, "io");
  const auto noise = patterned_page(0x02);
  for (int i = 0; i < 12 && rig.sink.alerts.empty(); ++i) {
    obs::manual_clock_advance(obs::kNsPerSec / 100);  // 10 ms
    kernel.mem_write(churn, ca, std::span(noise).first(256),
                     sim::TaintTag::kClean);
  }

  if (defended) {
    r.defended_alerts = rig.sink.alerts.size();
    r.defended_clean = rig.sink.alerts.empty();
    return r;
  }
  r.true_breach_ns = breach;
  r.alerts = rig.sink.alerts.size();
  r.detected = !rig.sink.alerts.empty();
  r.sweep_detects = violated_now;
  if (r.detected) {
    const obs::Alert& a = rig.sink.alerts.front();
    r.engine_detect_ns = a.ts_ns;
    r.engine_breach_ns = a.breach_ts_ns;
    // Latency counts from the earliest LEGAL fire instant: the grace
    // window is the rule's own false-alert discipline, not detection lag.
    const std::uint64_t earliest = breach + kGraceNs;
    r.engine_latency_ns = a.ts_ns > earliest ? a.ts_ns - earliest : 0;
    r.breach_err_ns = a.breach_ts_ns > breach ? a.breach_ts_ns - breach
                                              : breach - a.breach_ts_ns;
  }
  r.sweep_latency_ns = sweep_latency(t0, breach);
  r.engine_bytes = rig.engine.shadow_bytes_examined();
  r.sweep_bytes = sweeps_to_detect(t0, breach) * full_shadow_bytes(rig.shadow);
  return r;
}

// ---- scenario 4: exposure budget overrun (+ flight recorder) --------------

struct BudgetOutcome {
  ScenarioResult r;
  bool bundle_frozen = false;
  bool bundle_exact = false;     ///< bundle trigger replays the breach instant
  bool bundle_redacted = false;  ///< no needle bytes, raw or hex, in the bundle
  std::uint64_t bundle_trigger_ns = 0;
};

/// Unsubscribe-on-exit guard: every return path of a scenario must leave
/// the global bus free of pointers into its dead stack frame.
struct BusSubscription {
  obs::ObsEventSink* sink;
  explicit BusSubscription(obs::ObsEventSink* s) : sink(s) {
    obs::EventBus::global().subscribe(s);
  }
  ~BusSubscription() { obs::EventBus::global().unsubscribe(sink); }
};

std::string to_hex(std::span<const std::byte> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::byte b : bytes) {
    out.push_back(digits[std::to_integer<unsigned>(b) >> 4]);
    out.push_back(digits[std::to_integer<unsigned>(b) & 0xf]);
  }
  return out;
}

BudgetOutcome run_budget_scenario(bool defended, const Scale& sc) {
  BudgetOutcome out;
  out.r.name = "exposure_budget";
  core::ScenarioConfig cfg;
  cfg.level = core::ProtectionLevel::kNone;
  cfg.mem_bytes = std::min<std::size_t>(sc.mem_bytes, 32ull << 20);
  cfg.seed = 19;
  core::Scenario s(cfg);

  obs::ExposureMonitor monitor(s.kernel().memory(), s.scanner().patterns());
  EngineRig rig(s.kernel(), &monitor);
  rig.fanout.add(&monitor);
  obs::FlightRecorder recorder(&s.kernel(), &rig.shadow, &monitor);
  BusSubscription sub(&recorder);  // before the engine subscribes in go()
  rig.engine.add_sink(&recorder);
  rig.go();

  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  if (!server.start()) return out;

  // The host key is resident: live_bytes is static while the server
  // idles, so the integral is a known line and the crossing is computable
  // in closed form. Pick the budget so it crosses 1.37 s from now —
  // mid-interval between the engine's 250 ms polls.
  rig.engine.poll();
  const obs::KeyExposure ex0 = monitor.exposure(0);
  const std::uint64_t t_base = obs::now_ns();
  if (ex0.live_bytes == 0) return out;
  const double budget =
      ex0.byte_seconds + static_cast<double>(ex0.live_bytes) * 1.37;
  const std::uint64_t true_breach =
      t_base + static_cast<std::uint64_t>(1.37 * 1e9 + 0.5);
  rig.engine.add_rule({.name = "budget",
                       .kind = obs::RuleKind::kExposureBudget,
                       .severity = obs::Severity::kCritical,
                       .budget_byte_seconds = defended ? budget * 100 : budget,
                       .key = 0});
  rig.engine.poll();  // primes the budget state at t_base

  const int polls = defended ? 6 : 10;
  for (int i = 0; i < polls && rig.sink.alerts.empty(); ++i) {
    obs::manual_clock_advance(obs::kNsPerSec / 4);
    rig.engine.poll();
  }
  server.stop();

  if (defended) {
    out.r.defended_alerts = rig.sink.alerts.size();
    out.r.defended_clean = rig.sink.alerts.empty();
    return out;
  }
  out.r.true_breach_ns = true_breach;
  out.r.alerts = rig.sink.alerts.size();
  out.r.detected = !rig.sink.alerts.empty();
  // The sweep baseline for a budget is the same integral sampled every T:
  // it cannot see the crossing before the next tick, by construction.
  out.r.sweep_detects = true;
  out.r.sweep_latency_ns = sweep_latency(t_base, true_breach);
  out.r.engine_bytes = rig.engine.shadow_bytes_examined();
  out.r.sweep_bytes =
      sweeps_to_detect(t_base, true_breach) * full_shadow_bytes(rig.shadow);
  if (out.r.detected) {
    const obs::Alert& a = rig.sink.alerts.front();
    out.r.engine_detect_ns = a.ts_ns;
    out.r.engine_breach_ns = a.breach_ts_ns;
    out.r.engine_latency_ns = a.ts_ns - true_breach;
    out.r.breach_err_ns = a.breach_ts_ns > true_breach
                              ? a.breach_ts_ns - true_breach
                              : true_breach - a.breach_ts_ns;
  }

  // Forensics: the critical alert froze the recorder; the bundle must
  // replay the exact interpolated breach instant and leak nothing.
  out.bundle_frozen = recorder.frozen();
  const std::string bundle = recorder.bundle_json();
  std::string err;
  if (const auto parsed = util::json_parse(bundle, &err)) {
    const util::JsonValue* trig = parsed->get("trigger");
    out.bundle_trigger_ns =
        trig != nullptr
            ? static_cast<std::uint64_t>(trig->get_number("breach_ts_ns", 0.0))
            : 0;
    out.bundle_exact =
        out.r.detected && out.bundle_trigger_ns == out.r.engine_breach_ns &&
        (out.bundle_trigger_ns > true_breach
             ? out.bundle_trigger_ns - true_breach
             : true_breach - out.bundle_trigger_ns) <= kBreachEpsilonNs;
  }
  bool redacted = true;
  for (const auto& pat : s.scanner().patterns().patterns) {
    const auto probe = std::span(pat.bytes).first(
        std::min<std::size_t>(pat.bytes.size(), 16));
    const std::string raw(reinterpret_cast<const char*>(probe.data()),
                          probe.size());
    if (bundle.find(raw) != std::string::npos) redacted = false;
    if (bundle.find(to_hex(probe)) != std::string::npos) redacted = false;
  }
  out.bundle_redacted = redacted;
  return out;
}

// ---- overhead: engine + bus live vs passive shadow-only -------------------

double churn_ms(bool with_engine, int connections, std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.level = core::ProtectionLevel::kNone;
  cfg.mem_bytes = 32ull << 20;
  cfg.seed = seed;
  core::Scenario s(cfg);
  analysis::ShadowTaintMap shadow(s.kernel());
  obs::AlertEngine engine(s.kernel(), shadow);
  for (auto& rule : obs::default_rules()) engine.add_rule(rule);
  engine.add_rule({.name = "wset",
                   .kind = obs::RuleKind::kWorkingSetBound,
                   .severity = obs::Severity::kWarning,
                   .bound = 64,
                   .grace_ns = obs::kNsPerSec});
  sim::TaintFanout fanout;
  fanout.add(&shadow);
  if (with_engine) {
    fanout.add(&engine);
    obs::EventBus::global().subscribe(&engine);
    obs::EventBus::global().set_enabled(true);
  }
  s.kernel().attach_taint(&fanout);
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  server.start();
  const auto t0 = std::chrono::steady_clock::now();
  ssh_churn(server, connections);
  const auto t1 = std::chrono::steady_clock::now();
  server.stop();
  obs::EventBus::global().set_enabled(false);
  if (with_engine) obs::EventBus::global().unsubscribe(&engine);
  s.kernel().attach_taint(nullptr);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Ssh churn with the engine + bus live (arm a) vs passive (arm b), one
/// seed per pair. Each churn run is a few ms, so a single run's ratio
/// swings by tens of percent on a shared host.
Paired run_overhead(bool smoke, const Scale& sc) {
  const int connections = smoke ? 8 : (sc.full ? 40 : 20);
  const auto seed = [](int pair) { return 91 + static_cast<std::uint64_t>(pair); };
  return paired_trials(
      smoke ? 31 : 61,
      [&](int i) { return churn_ms(true, connections, seed(i)); },
      [&](int i) { return churn_ms(false, connections, seed(i)); });
}

void print_result(const ScenarioResult& r) {
  std::printf("  %-18s breach@%.3fs  engine %.3f ms late (breach err %llu ns)"
              "  sweep %.0f ms late  cost x%.0f  defended alerts %zu\n",
              r.name.c_str(), r.true_breach_ns / 1e9,
              r.engine_latency_ns / 1e6,
              static_cast<unsigned long long>(r.breach_err_ns),
              r.sweep_latency_ns / 1e6,
              r.engine_bytes > 0
                  ? static_cast<double>(r.sweep_bytes) / r.engine_bytes
                  : 0.0,
              r.defended_alerts);
}

void result_to_json(util::JsonWriter& json, const ScenarioResult& r) {
  json.begin_object()
      .field("name", r.name)
      .field("detected", r.detected)
      .field("sweep_detects", r.sweep_detects)
      .field("defended_clean", r.defended_clean)
      .field("alerts", static_cast<std::uint64_t>(r.alerts))
      .field("defended_alerts", static_cast<std::uint64_t>(r.defended_alerts))
      .field("true_breach_ns", r.true_breach_ns)
      .field("engine_detect_ns", r.engine_detect_ns)
      .field("engine_breach_ns", r.engine_breach_ns)
      .field("engine_latency_ns", r.engine_latency_ns)
      .field("sweep_latency_ns", r.sweep_latency_ns)
      .field("breach_err_ns", r.breach_err_ns)
      .field("engine_shadow_bytes", r.engine_bytes)
      .field("sweep_shadow_bytes", r.sweep_bytes)
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const Scale sc = scale_from_env();
  const bool smoke = flags.get_bool("smoke");
  const std::string json_path = flags.get("json", "BENCH_alert_latency.json");

  banner("alert latency: event-accurate detection vs the periodic sweep",
         "every seeded breach caught strictly inside one sweep period, at "
         "a fraction of the sweep's inspection cost, zero false alerts "
         "when defended",
         sc);

  obs::MetricsRegistry::global().set_enabled(true);
  obs::manual_clock_install();

  // The undefended run's result, with its defended twin's verdict.
  const auto with_twin = [](ScenarioResult r, const ScenarioResult& twin) {
    r.defended_clean = twin.defended_clean;
    r.defended_alerts = twin.defended_alerts;
    return r;
  };
  std::vector<ScenarioResult> results;
  {
    ScenarioResult r;
    r.name = "secret_to_swap";
    results.push_back(with_twin(run_swap_scenario(false, r),
                                run_swap_scenario(true, {})));
    r.name = "secret_frame_merged";
    results.push_back(with_twin(run_merge_scenario(false, r),
                                run_merge_scenario(true, {})));
    r.name = "working_set_overflow";
    results.push_back(with_twin(run_working_set_scenario(false, r),
                                run_working_set_scenario(true, {})));
  }
  BudgetOutcome budget = run_budget_scenario(false, sc);
  budget.r = with_twin(budget.r, run_budget_scenario(true, sc).r);
  results.push_back(budget.r);

  std::printf("[scenarios]  sweep period %.0f ms\n",
              kSweepPeriodNs / 1e6);
  for (const auto& r : results) print_result(r);
  std::printf("\n");

  obs::host_clock_install();
  const Paired oh = run_overhead(smoke, sc);
  const auto pct = [](double ratio) { return (ratio - 1.0) * 100.0; };
  std::printf("[overhead] ssh churn, %d alternating pairs: median %.2f ms "
              "passive, %.2f ms with engine+bus; per-pair overhead median "
              "%.2f%% (p25 %.2f%%, p75 %.2f%%)\n\n",
              oh.pairs, oh.b, oh.a, pct(oh.p50), pct(oh.p25), pct(oh.p75));

  bool ok = true;
  for (const auto& r : results) {
    ok &= shape_check(r.detected && r.alerts >= 1,
                      r.name + ": engine detected the seeded breach");
    ok &= shape_check(r.sweep_detects,
                      r.name + ": sweep baseline confirms (miss before, "
                               "hit after)");
    ok &= shape_check(r.engine_latency_ns < kSweepPeriodNs,
                      r.name + ": latency strictly below one sweep period");
    ok &= shape_check(r.breach_err_ns <= kBreachEpsilonNs,
                      r.name + ": breach timestamp exact (err " +
                          std::to_string(r.breach_err_ns) + " ns <= " +
                          std::to_string(kBreachEpsilonNs) + " ns)");
    ok &= shape_check(r.defended_alerts == 0,
                      r.name + ": defended twin fired zero alerts (" +
                          std::to_string(r.defended_alerts) + ")");
    ok &= shape_check(r.defended_clean,
                      r.name + ": defended twin's verdict is clean");
    ok &= shape_check(r.engine_bytes > 0 && r.sweep_bytes > r.engine_bytes,
                      r.name + ": incremental cost below the sweep's");
  }
  ok &= shape_check(budget.bundle_frozen, "flight recorder froze on breach");
  ok &= shape_check(budget.bundle_exact,
                    "bundle trigger replays the exact breach instant");
  ok &= shape_check(budget.bundle_redacted,
                    "bundle contains no key bytes (raw or hex)");
  ok &= shape_check(oh.p50 <= 1.05,
                    "engine+bus overhead within 5% (median of pairs)");

  util::JsonWriter json;
  obs::begin_report(json, "bench_alert_latency");
  json.field("bench", "alert_latency")
      .field("smoke", smoke)
      .field("full_scale", sc.full)
      .field("sweep_period_ns", kSweepPeriodNs)
      .field("breach_epsilon_ns", kBreachEpsilonNs);
  json.key("scenarios").begin_array();
  for (const auto& r : results) result_to_json(json, r);
  json.end_array();
  json.key("bundle")
      .begin_object()
      .field("frozen", budget.bundle_frozen)
      .field("trigger_breach_ns", budget.bundle_trigger_ns)
      .field("expected_breach_ns", budget.r.true_breach_ns)
      .field("exact", budget.bundle_exact)
      .field("redacted", budget.bundle_redacted)
      .end_object();
  json.key("overhead")
      .begin_object()
      .field("churn_ms_passive", oh.b)
      .field("churn_ms_with_engine", oh.a)
      .field("overhead_pct", pct(oh.p50))
      .field("overhead_pct_p25", pct(oh.p25))
      .field("overhead_pct_p75", pct(oh.p75))
      .field("within_5pct", oh.p50 <= 1.05);
  oh.to_json(json);
  json.end_object();
  json.field("shape_checks_ok", ok);
  obs::write_metrics_field(json, obs::MetricsRegistry::global());
  json.end_object();

  ok &= write_json(json_path, json.str());
  return ok ? 0 : 1;
}
