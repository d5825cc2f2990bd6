// Shared plumbing for the per-figure benchmark harnesses.
//
// Every bench binary runs argument-free at a reduced-but-faithful scale
// (full ctest/bench sweeps finish in minutes on one core) and switches to
// the paper's exact scale with KEYGUARD_BENCH_FULL=1. Each prints:
//   * a banner naming the figure and the paper's claim,
//   * the series as both an aligned table and TSV rows (machine readable),
//   * SHAPE CHECK verdict lines comparing the measured shape against the
//     paper's qualitative result.
// Every timed SHAPE CHECK reads one estimator, paired_trials() below: the
// median of per-pair ratios over interleaved runs of the two arms.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "attack/leaks.hpp"
#include "core/scenario.hpp"
#include "obs/exposure_monitor.hpp"
#include "scan/key_scanner.hpp"
#include "servers/apache_server.hpp"
#include "servers/ssh_server.hpp"
#include "servers/timeline.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace kgbench {

using namespace keyguard;  // bench binaries are leaf executables

struct Scale {
  bool full = false;
  std::size_t mem_bytes = 64ull << 20;
  std::size_t key_bits = 1024;

  // Attack sweeps.
  int ext2_trials = 3;         // paper: 15
  int ntty_trials = 5;         // paper: 20
  int max_connections = 250;   // paper: 500 (ext2 sweep x-axis)
  int conn_step = 50;
  int max_directories = 5000;  // paper: 10000
  int dir_step = 1000;
  int ntty_max_connections = 120;  // paper: 120
  int ntty_conn_step = 20;         // paper: 10

  // Performance benches.
  int perf_transfers = 400;    // paper: 4000
  int perf_pairs = 11;         // paper: 16 (ssh)
  int perf_concurrency = 20;   // paper: 20

  // Timelines.
  int transfers_per_slot = 3;
};

inline Scale scale_from_env() {
  Scale s;
  if (util::env_truthy("KEYGUARD_BENCH_FULL")) {
    s.full = true;
    s.mem_bytes = 256ull << 20;  // the paper's 256 MB testbed
    s.ext2_trials = 15;
    s.ntty_trials = 20;
    s.max_connections = 500;
    s.conn_step = 50;
    s.max_directories = 10000;
    s.dir_step = 1000;
    s.ntty_conn_step = 10;
    s.perf_transfers = 4000;
    s.perf_pairs = 16;
  }
  s.mem_bytes = static_cast<std::size_t>(
                    util::env_int("KEYGUARD_BENCH_MEM_MB",
                                  static_cast<std::int64_t>(s.mem_bytes >> 20)))
                << 20;
  return s;
}

inline void banner(const char* figure, const char* paper_claim, const Scale& s) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper: %s\n", paper_claim);
  std::printf("scale: %s (%zu MB RAM, %zu-bit key)%s\n",
              s.full ? "FULL (paper)" : "reduced", s.mem_bytes >> 20, s.key_bits,
              s.full ? "" : "  [KEYGUARD_BENCH_FULL=1 for paper scale]");
  std::printf("================================================================\n\n");
}

inline bool shape_check(bool ok, const std::string& what) {
  std::printf("SHAPE CHECK [%s] %s\n", ok ? "OK" : "FAIL", what.c_str());
  return ok;
}

/// One timed comparison: each arm's median sample and the quartiles of the
/// per-pair ratio a / b.
struct Paired {
  int pairs = 0;
  double a = 0.0;  ///< median sample of arm a
  double b = 0.0;  ///< median sample of arm b
  double p25 = 0.0;
  double p50 = 0.0;  ///< the gate reads this: median of the per-pair a / b
  double p75 = 0.0;

  /// "6.21x (p25-p75 6.02-6.40, 11 pairs)".
  std::string ratio() const {
    return util::fmt(p50) + "x (p25-p75 " + util::fmt(p25) + "-" +
           util::fmt(p75) + ", " + std::to_string(pairs) + " pairs)";
  }

  void to_json(util::JsonWriter& json) const {
    json.field("pairs", static_cast<std::uint64_t>(pairs))
        .field("ratio_p25", p25)
        .field("ratio_p50", p50)
        .field("ratio_p75", p75);
  }
};

/// Runs `pairs` pairs of two arms back to back, swapping which arm goes
/// first every pair (the second run of a pair finds warmer caches). Each
/// arm is called with the pair index and returns one sample (a time or a
/// rate). Single runs swing by tens of percent on a shared host; the
/// median of the per-pair ratios does not.
template <class ArmA, class ArmB>
Paired paired_trials(int pairs, ArmA&& arm_a, ArmB&& arm_b) {
  std::vector<double> a, b, ratio;
  for (int i = 0; i < pairs; ++i) {
    double x = 0.0;
    double y = 0.0;
    if (i % 2 == 0) {
      x = arm_a(i);
      y = arm_b(i);
    } else {
      y = arm_b(i);
      x = arm_a(i);
    }
    a.push_back(x);
    b.push_back(y);
    ratio.push_back(y > 0 ? x / y : 0.0);
  }
  return {pairs,
          util::quantile(a, 0.5),
          util::quantile(b, 0.5),
          util::quantile(ratio, 0.25),
          util::quantile(ratio, 0.5),
          util::quantile(ratio, 0.75)};
}

/// Writes a bench's JSON (or JSONL) artifact to `path`. False, with a
/// message on stderr, when the file cannot be written in full: a bench
/// folds this into its exit status, so a missing artifact fails the run.
inline bool write_json(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return false;
  }
  std::printf("JSON written to %s\n", path.c_str());
  return true;
}

/// ScanStats trailer for benches that time the scanner: one greppable line
/// per scan ("SCAN [tag] 64.0 MB in 4 shards, 4 patterns, ... MB/s").
inline void print_scan_stats(const char* tag, const scan::ScanStats& stats) {
  std::printf("SCAN [%s] %s\n", tag, stats.summary().c_str());
}

inline core::Scenario make_scenario(core::ProtectionLevel level, const Scale& s,
                                    std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.level = level;
  cfg.mem_bytes = s.mem_bytes;
  cfg.key_bits = s.key_bits;
  cfg.seed = seed;
  return core::Scenario(cfg);
}

/// The attack scripts' workload: open N ssh connections (with a transfer),
/// then close them all.
inline void ssh_churn(servers::SshServer& server, int connections,
                      std::size_t transfer_bytes = 16ull << 10) {
  for (int i = 0; i < connections; ++i) server.handle_connection(transfer_bytes);
}

/// Apache equivalent: N HTTPS requests at moderate concurrency.
inline void apache_churn(servers::ApacheServer& server, int requests) {
  for (int i = 0; i < requests; ++i) server.handle_request();
}

/// Diffs an ExposureMonitor's live set against a fresh full sweep of the
/// same RAM, copy for copy (both sides keep (offset, pattern) order).
/// `sweep_copies`, when non-null, receives the sweep's copy count.
inline bool monitor_matches_sweep(const obs::ExposureMonitor& monitor,
                                  const sim::Kernel& kernel,
                                  std::size_t* sweep_copies = nullptr) {
  const scan::KeyScanner scanner(monitor.patterns());
  const auto truth = scanner.scan_capture(kernel.memory().all());
  if (sweep_copies != nullptr) *sweep_copies = truth.size();
  const auto& live = monitor.copies();
  if (live.size() != truth.size()) return false;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i].offset != truth[i].offset ||
        monitor.patterns().patterns[live[i].pattern_index].name != truth[i].part) {
      return false;
    }
  }
  return true;
}

}  // namespace kgbench
