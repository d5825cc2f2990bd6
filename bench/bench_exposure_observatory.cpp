// Exposure observatory: the paper's Fig. 5/6 timelines rebuilt from the
// ExposureMonitor alone — no scanning on the measurement path — then
// cross-checked against a ground-truth scan_capture sweep at every
// sampled instant. The two must agree copy-for-copy; any drift is a
// monitor bug and fails the bench.
//
//   phase 1  ssh timeline (Fig. 5): ramp / churn / drain under a manual
//            1 s-per-slot clock; per-slot copies + byte*seconds from the
//            monitor, diffed against a full sweep
//   phase 2  multi-key eviction storm (Fig. 6 regime): an SNI frontend
//            with more vhost keys than pool slots, same per-slot diff
//   phase 3  instrumentation overhead: scan time with metrics + tracing
//            enabled vs disabled, median of interleaved pairs; must stay
//            within 5%
//
// Runs argument-free (--smoke shrinks it for CI); KEYGUARD_BENCH_FULL=1
// uses the paper's 256 MB machine. Writes BENCH_exposure_observatory.json
// (schema_version 2 envelope, metrics snapshot embedded) and a span/event
// trace JSONL that tools/trace2timeline.py renders back into the same
// copies-over-time table.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/protection.hpp"
#include "obs/build_info.hpp"
#include "obs/clock.hpp"
#include "obs/exposure_monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "servers/sni_frontend.hpp"
#include "util/json.hpp"

using namespace kgbench;

namespace {

struct Slot {
  std::size_t t = 0;             // seconds since phase start
  std::string workload;
  std::size_t copies = 0;        // monitor's live set
  std::size_t live_bytes = 0;
  double byte_seconds = 0.0;
  std::size_t sweep_copies = 0;  // ground-truth scan of the same instant
  bool agree = false;
};

void print_slots(const char* tag, const std::vector<Slot>& slots) {
  util::Table t({"t(s)", "workload", "copies", "live B", "byte*s", "sweep",
                 "verdict"});
  for (const auto& s : slots) {
    t.add_row({std::to_string(s.t), s.workload, std::to_string(s.copies),
               std::to_string(s.live_bytes), util::fmt(s.byte_seconds, 0),
               std::to_string(s.sweep_copies),
               s.agree ? "match" : "MISMATCH"});
  }
  std::printf("[%s]\n%s\n%s\n", tag, t.render().c_str(),
              t.render_tsv().c_str());
}

void slots_to_json(util::JsonWriter& json, const char* key,
                   const std::vector<Slot>& slots) {
  json.key(key).begin_array();
  for (const auto& s : slots) {
    json.begin_object()
        .field("t_s", static_cast<std::uint64_t>(s.t))
        .field("workload", s.workload)
        .field("copies", static_cast<std::uint64_t>(s.copies))
        .field("live_bytes", static_cast<std::uint64_t>(s.live_bytes))
        .field("byte_seconds", s.byte_seconds)
        .field("sweep_copies", static_cast<std::uint64_t>(s.sweep_copies))
        .field("agree", s.agree)
        .end_object();
  }
  json.end_array();
}

Slot sample_slot(std::size_t t, std::string workload,
                 obs::ExposureMonitor& monitor, const sim::Kernel& kernel) {
  Slot s;
  s.t = t;
  s.workload = std::move(workload);
  s.agree = monitor_matches_sweep(monitor, kernel, &s.sweep_copies);
  double byte_seconds = 0.0;
  std::size_t live_bytes = 0;
  for (std::size_t k = 0; k < monitor.key_count(); ++k) {
    const auto exp = monitor.exposure(k);
    byte_seconds += exp.byte_seconds;
    live_bytes += exp.live_bytes;
  }
  s.copies = monitor.total_copies();
  s.live_bytes = live_bytes;
  s.byte_seconds = byte_seconds;
  monitor.sample(obs::Tracer::global());
  monitor.publish(obs::MetricsRegistry::global());
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const Scale sc = scale_from_env();
  const bool smoke = flags.get_bool("smoke");
  const std::string json_path =
      flags.get("json", "BENCH_exposure_observatory.json");
  const std::string trace_path =
      flags.get("trace", "BENCH_exposure_observatory_trace.jsonl");
  const std::size_t mem_bytes = smoke ? (32ull << 20) : sc.mem_bytes;
  const std::size_t ssh_slots = smoke ? 6 : (sc.full ? 24 : 12);
  const std::size_t storm_slots = smoke ? 4 : (sc.full ? 12 : 8);
  const std::size_t storm_reqs_per_slot = smoke ? 3 : 6;
  const int overhead_pairs = smoke ? 31 : 61;

  banner("exposure observatory: Fig. 5/6 timelines from taint hooks alone",
         "key copies over time, measured continuously instead of by "
         "repeated scans; must agree with a full sweep copy-for-copy",
         sc);

  obs::MetricsRegistry::global().set_enabled(true);
  obs::Tracer::global().set_enabled(true);
  auto& tracer = obs::Tracer::global();

  // ---- phase 1: ssh timeline under a deterministic clock ------------------
  obs::manual_clock_install();
  std::vector<Slot> ssh_series;
  double ssh_final_byte_seconds = 0.0;
  {
    core::ScenarioConfig cfg;
    cfg.mem_bytes = mem_bytes;
    cfg.seed = 56;
    core::Scenario s(cfg);
    obs::ExposureMonitor monitor(s.kernel().memory(),
                                 scan::KeyPatterns::from_key(s.key()));
    s.kernel().attach_taint(&monitor);
    monitor.resync();

    servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
    if (!server.start()) {
      std::fprintf(stderr, "ssh server failed to start\n");
      return 1;
    }
    std::deque<servers::ConnectionId> open;
    for (std::size_t t = 0; t < ssh_slots; ++t) {
      obs::Tracer::Span span(tracer, "bench.slot");
      std::string workload;
      if (t < ssh_slots / 3) {
        if (const auto id = server.open_connection()) open.push_back(*id);
        workload = "open";
      } else if (t < 2 * ssh_slots / 3) {
        server.handle_connection(16ull << 10);
        workload = "churn";
      } else if (!open.empty()) {
        server.close_connection(open.front());
        open.pop_front();
        workload = "close";
      } else {
        workload = "idle";
      }
      obs::manual_clock_advance(obs::kNsPerSec);
      ssh_series.push_back(sample_slot(t + 1, workload, monitor, s.kernel()));
    }
    server.stop();
    ssh_final_byte_seconds = monitor.exposure_window(0);
    s.kernel().attach_taint(nullptr);
  }
  print_slots("phase 1: ssh timeline", ssh_series);

  // ---- phase 2: multi-key eviction storm ----------------------------------
  std::vector<Slot> storm_series;
  std::uint64_t storm_evictions = 0;
  {
    const std::size_t n_keys = 8;
    constexpr std::size_t kPool = 2;  // far fewer slots than keys
    std::vector<crypto::RsaPrivateKey> keys;
    util::Rng keygen(4242);
    for (std::size_t i = 0; i < n_keys; ++i) {
      keys.push_back(crypto::generate_rsa_key(keygen, 512));
    }

    const auto profile =
        core::make_profile(core::ProtectionLevel::kIntegrated, mem_bytes);
    sim::Kernel kernel(profile.kernel);
    obs::ExposureMonitor monitor(kernel.memory(),
                                 scan::KeyPatterns::from_keys(keys));
    kernel.attach_taint(&monitor);

    servers::SniFrontend frontend(kernel, core::sni_config(profile, kPool),
                                  util::Rng(31));
    if (!frontend.start(keys)) {
      std::fprintf(stderr, "sni frontend failed to start\n");
      return 1;
    }
    for (std::size_t t = 0; t < storm_slots; ++t) {
      obs::Tracer::Span span(tracer, "bench.storm_slot");
      for (std::size_t r = 0; r < storm_reqs_per_slot; ++r) {
        // Round-robin over all keys: with pool << keys every wrap is a
        // miss + eviction — the storm the monitor must track exactly.
        if (!frontend.handle_request((t * storm_reqs_per_slot + r) % n_keys)) {
          std::fprintf(stderr, "handshake failed in slot %zu\n", t);
          return 1;
        }
      }
      obs::manual_clock_advance(obs::kNsPerSec);
      storm_series.push_back(sample_slot(t + 1, "storm", monitor, kernel));
    }
    storm_evictions = frontend.keystore().stats().evictions;
    frontend.stop();
    kernel.attach_taint(nullptr);
  }
  print_slots("phase 2: eviction storm", storm_series);

  // ---- phase 3: instrumentation overhead ----------------------------------
  // Same scan, metrics + tracing on vs off, in interleaved pairs; the gate
  // reads the median per-pair time ratio. Host clock: the overhead number
  // must reflect what real deployments pay.
  obs::host_clock_install();
  Paired overhead;
  {
    core::ScenarioConfig cfg;
    cfg.mem_bytes = mem_bytes;
    cfg.seed = 77;
    core::Scenario s(cfg);
    servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
    server.start();
    ssh_churn(server, smoke ? 4 : 8);

    const auto scan_ms = [&](bool enabled) {
      obs::MetricsRegistry::global().set_enabled(enabled);
      obs::Tracer::global().set_enabled(enabled);
      scan::ScanStats stats;
      (void)s.scanner().scan_kernel(s.kernel(), &stats);
      return stats.wall_millis;
    };
    overhead = paired_trials(
        overhead_pairs, [&](int) { return scan_ms(true); },
        [&](int) { return scan_ms(false); });
    obs::MetricsRegistry::global().set_enabled(true);
    obs::Tracer::global().set_enabled(true);
  }
  const double overhead_pct = (overhead.p50 - 1.0) * 100.0;
  const bool within_5pct = overhead.p50 <= 1.05;
  std::printf("[phase 3] scan: %s ms metrics off, %s ms on (medians) -> "
              "%s%% overhead, on/off %s\n\n",
              util::fmt(overhead.b, 2).c_str(), util::fmt(overhead.a, 2).c_str(),
              util::fmt(overhead_pct, 2).c_str(), overhead.ratio().c_str());

  // ---- verdicts -----------------------------------------------------------
  const auto all_agree = [](const std::vector<Slot>& v) {
    return std::all_of(v.begin(), v.end(),
                       [](const Slot& s) { return s.agree; });
  };
  const auto peak = [](const std::vector<Slot>& v) {
    std::size_t m = 0;
    for (const auto& s : v) m = std::max(m, s.copies);
    return m;
  };
  bool ok = true;
  ok &= shape_check(all_agree(ssh_series),
                    "ssh timeline: monitor == full sweep at every instant");
  ok &= shape_check(all_agree(storm_series),
                    "eviction storm: monitor == full sweep at every instant");
  ok &= shape_check(peak(ssh_series) > ssh_series.front().copies,
                    "ssh timeline actually ramps (copies grow past slot 1)");
  ok &= shape_check(storm_evictions > 0,
                    "storm actually evicts (pool smaller than key set)");
  ok &= shape_check(ssh_final_byte_seconds > 0,
                    "exposure integral accrued byte*seconds");
  ok &= shape_check(within_5pct,
                    "instrumentation overhead within 5% on scan time (median of pairs)");

  // ---- reports ------------------------------------------------------------
  util::JsonWriter json;
  obs::begin_report(json, "bench_exposure_observatory");
  json.field("bench", "exposure_observatory")
      .field("smoke", smoke)
      .field("full_scale", sc.full)
      .field("mem_bytes", static_cast<std::uint64_t>(mem_bytes));
  slots_to_json(json, "ssh_timeline", ssh_series);
  json.field("ssh_byte_seconds", ssh_final_byte_seconds);
  slots_to_json(json, "eviction_storm", storm_series);
  json.field("storm_evictions", storm_evictions);
  json.key("overhead")
      .begin_object()
      .field("scan_ms_metrics_off", overhead.b)
      .field("scan_ms_metrics_on", overhead.a)
      .field("overhead_pct", overhead_pct)
      .field("within_5pct", within_5pct);
  overhead.to_json(json);
  json.end_object();
  json.field("shape_checks_ok", ok);
  obs::write_metrics_field(json, obs::MetricsRegistry::global());
  json.end_object();

  ok &= write_json(json_path, json.str());
  ok &= write_json(trace_path, tracer.jsonl());
  return ok ? 0 : 1;
}
