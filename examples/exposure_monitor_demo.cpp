// Live exposure accounting without scanning: the ExposureMonitor rebuilds
// the paper's Fig. 5 "key copies over time" curve from taint hooks alone,
// and this demo proves it by running a ground-truth memory sweep at every
// sampled instant and diffing the two copy lists.
//
// A manual observability clock advances one second per timeline slot, so
// the byte·second exposure integrals are bit-identical across runs.
//
// Usage: exposure_monitor_demo [--slots N] [--level none|...|integrated]
//                              [--mem-mb N] [--transfer-kb N]
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "obs/clock.hpp"
#include "obs/exposure_monitor.hpp"
#include "servers/ssh_server.hpp"
#include "util/flags.hpp"

using namespace keyguard;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get_int("slots", 12));
  const std::string level_name = flags.get("level", "none");
  const auto mem_mb = flags.get_int("mem-mb", 32);
  const auto transfer_kb = flags.get_int("transfer-kb", 8);

  // Deterministic time: every slot is exactly one second of exposure.
  obs::manual_clock_install();

  core::ScenarioConfig cfg;
  for (const auto l : core::kAllProtectionLevels) {
    if (core::protection_name(l) == level_name) cfg.level = l;
  }
  cfg.mem_bytes = static_cast<std::size_t>(mem_mb) << 20;
  cfg.seed = 56;
  core::Scenario s(cfg);

  obs::ExposureMonitor monitor(s.kernel().memory(),
                               scan::KeyPatterns::from_key(s.key()));
  s.kernel().attach_taint(&monitor);
  monitor.resync();  // the boot already staged the key file on disk

  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  if (!server.start()) {
    std::fprintf(stderr, "ssh server failed to start\n");
    return 1;
  }

  std::printf("exposure timeline (level=%s, %lld MB, 1 s per slot)\n",
              level_name.c_str(), static_cast<long long>(mem_mb));
  std::printf("%-5s %-22s %7s %10s %14s %8s\n", "t(s)", "workload", "copies",
              "live B", "byte*seconds", "sweep");

  std::deque<servers::ConnectionId> open;
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < slots; ++t) {
    // Ramp up, churn, ramp down: the connection pattern behind Fig. 5.
    std::string workload;
    if (t < slots / 3) {
      if (const auto id = server.open_connection()) open.push_back(*id);
      workload = "open connection";
    } else if (t < 2 * slots / 3) {
      if (!open.empty()) {
        server.transfer(open.front(),
                        static_cast<std::size_t>(transfer_kb) << 10);
        open.push_back(open.front());
        open.pop_front();
      }
      server.handle_connection(static_cast<std::size_t>(transfer_kb) << 10);
      workload = "scp churn";
    } else {
      if (!open.empty()) {
        server.close_connection(open.front());
        open.pop_front();
        workload = "close connection";
      } else {
        workload = "idle";
      }
    }
    obs::manual_clock_advance(obs::kNsPerSec);

    // Ground truth: a full scan of RAM with the same needles.
    scan::KeyScanner scanner(monitor.patterns());
    const auto truth = scanner.scan_capture(s.kernel().memory().all());
    const auto live = monitor.copies();
    bool agree = live.size() == truth.size();
    for (std::size_t i = 0; agree && i < live.size(); ++i) {
      agree = live[i].offset == truth[i].offset &&
              monitor.patterns().patterns[live[i].pattern].name ==
                  truth[i].part;
    }
    if (!agree) ++mismatches;

    const auto exp = monitor.exposure(0);
    std::printf("%-5zu %-22s %7zu %10zu %14.0f %8s\n", t + 1, workload.c_str(),
                exp.live_copies, exp.live_bytes, exp.byte_seconds,
                agree ? "match" : "MISMATCH");
  }

  server.stop();
  const auto final_exp = monitor.exposure(0);
  std::printf(
      "\nfinal: %zu live copies, %.0f byte*seconds accumulated, peak %zu "
      "copies, %llu created / %llu destroyed over %llu taint events\n",
      final_exp.live_copies, final_exp.byte_seconds, final_exp.peak_copies,
      static_cast<unsigned long long>(final_exp.copies_created),
      static_cast<unsigned long long>(final_exp.copies_destroyed),
      static_cast<unsigned long long>(monitor.event_count()));
  if (mismatches != 0) {
    std::fprintf(stderr, "%zu slot(s) disagreed with the ground-truth sweep\n",
                 mismatches);
  }
  s.kernel().attach_taint(nullptr);
  obs::host_clock_install();
  return mismatches == 0 ? 0 : 1;
}
