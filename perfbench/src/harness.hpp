// Shared plumbing for the four workloads: options, the result report,
// timing, seeded inputs, and the traced/untraced round protocol.
//
// Every workload follows the same shape:
//
//   1. inputs   — keys and request streams drawn from --seed (untimed);
//   2. set-up   — the system under test is built kSetupReps times and the
//                 median build time is `setup_s`; the last build is kept;
//   3. measure  — closed-loop rounds until --seconds elapse, arms
//                 interleaved inside each round, a speed-gauge sample next
//                 to every block; all durations are reported in
//                 reference-machine time (speed.hpp);
//   4. check    — correctness checks against the outputs, untimed.
//
// With --trace 1 the rounds alternate untraced / traced (the library's own
// MetricsRegistry counters and Tracer spans on). Per-layer numbers come
// from the traced rounds only, and the ratio of the primary arm's traced
// rate to its untraced rate is the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "scan/key_scanner.hpp"
#include "speed.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace keyguard;  // leaf executable

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  /// Directory the traced run writes its span log into ("" = none).
  std::string trace_dir;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Seed of every simulated machine's own randomness (page placement). It
/// is fixed: --seed varies the workload's inputs (keys, request streams,
/// handshake secrets), not the machine under test.
inline constexpr std::uint64_t kMachineSeed = 0x6d656d6f7279ULL;

/// Set-up builds per run; `setup_s` is their median.
inline constexpr int kSetupReps = 5;

/// The result of one run: metrics for the final JSON line, human-readable
/// lines for the log, and the correctness verdict.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// End-to-end metric (emitted by untraced runs).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (emitted by traced runs).
  void layer(const std::string& name, double value, const std::string& unit);
  /// A named figure for the log only (the per-workload names such as
  /// ssh.conn_per_s.stock, which the JSON carries under generic slots).
  void show(const std::string& name, double value, const std::string& unit,
            const std::string& detail = {});
  /// Latency of the primary arm. The JSON gets p50_us and p90_us; the log
  /// gets the tail under the per-workload `name` — the highest percentile
  /// with >= 10 samples beyond it, sample count stated, in `unit` (samples
  /// times `scale`) — and the interquartile spread. Too few samples for a
  /// tail fail a check. The gate is p90 because a single run's p99 on a
  /// shared VM spread up to 36% from run to run, wider than any usable
  /// bound.
  void latency(const std::string& name, const std::vector<double>& us, double scale = 1.0,
               const std::string& unit = "us");

  /// Logs how many measured blocks were left out as unsteady (speed.hpp).
  void unsteady_blocks(std::uint64_t unsteady, std::uint64_t blocks);

  /// Records a correctness check; a false one makes the run incorrect.
  bool check(bool ok, const std::string& what);

  void attempt(std::uint64_t n = 1) noexcept { attempted_ += n; }
  void fail(std::uint64_t n = 1) noexcept { failed_ += n; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// Rounds measured (the trial count in the self-description).
  void set_trials(std::uint64_t n) noexcept { trials_ = n; }
  std::uint64_t trials() const noexcept { return trials_; }

  bool correct() const noexcept { return check_failures_ == 0; }

  /// The final line: {"correct","attempted","failed","metrics"}.
  std::string result_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  bool trace_;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t trials_ = 0;
  int check_failures_ = 0;
};

/// Turns the library's process-global metrics registry and tracer on or
/// off together. Registry counters keep their values across toggles.
void set_tracing(bool on);

/// Traced/untraced alternation for one run: round r is traced when the
/// run is a trace run and r is odd (so every run starts untraced).
inline bool round_traced(const Options& opt, std::uint64_t round) {
  return opt.trace && (round % 2 == 1);
}

/// Writes the tracer's span log to <trace_dir>/trace-<workload>.jsonl
/// and clears it.
void dump_trace(const Options& opt);

/// `count` RSA keys of `bits` bits, key i drawn from an Rng derived from
/// (seed, i). Generated on up to four threads; deterministic per seed.
std::vector<crypto::RsaPrivateKey> make_keys(std::uint64_t seed, std::size_t count,
                                             std::size_t bits = 1024);

/// Skewed popularity: the hot fifth of `n` items takes 80% of draws.
std::size_t pick_skewed(util::Rng& rng, std::size_t n);

/// A message below the modulus, for signing / handshake probes.
bn::Bignum random_below(util::Rng& rng, const bn::Bignum& n);

/// Frames holding at least one of `matches`: one key copy per frame.
std::size_t distinct_frames(const std::vector<scan::MemoryMatch>& matches);

/// Match-for-match equality: offset, needle, frame, frame state, owners.
bool same_matches(const std::vector<scan::MemoryMatch>& a,
                  const std::vector<scan::MemoryMatch>& b);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Runs `make` kSetupReps times, keeping only the last result, and
/// reports the median duration (reference-machine time) as setup_s.
template <class Make>
auto timed_setups(Report& report, Make make) -> decltype(make()) {
  SpeedGauge speed(SpeedKernel::kCompute);
  decltype(make()) state;
  std::vector<double> secs;
  for (int i = 0; i < kSetupReps; ++i) {
    state.reset();
    speed.open();
    const auto t0 = Clock::now();
    state = make();
    const double raw = seconds_since(t0);
    secs.push_back(raw * speed.bracket().factor);
  }
  report.e2e("setup_s", median(secs), "s");
  return state;
}

/// The four workloads.
void run_ssh_scp(const Options& opt, Report& report);
void run_sni_tenants(const Options& opt, Report& report);
void run_scan_audit(const Options& opt, Report& report);
void run_host_sign(const Options& opt, Report& report);

/// Bench-owned layer probes (sslsim, bignum, core), run by traced runs.
void run_layer_probes(const crypto::RsaPrivateKey& key, std::uint64_t seed,
                      Report& report);

}  // namespace perfbench
