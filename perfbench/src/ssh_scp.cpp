// ssh_scp: the Fig. 8 loop, three arms interleaved in one process.
//
// One client rotates 20 connection slots; each step closes a slot, opens a
// fresh connection (fork, [re-exec + key reload], RSA handshake) and runs
// one scp transfer, file sizes cycling through the paper's 1..512 KB
// doubling mix. Arms:
//
//   stock       kNone: every connection forks, re-execs and reloads the key.
//   integrated  kIntegrated: sshd -r, aligned mlocked key page, the kernel
//               zeroes pages on free, O_NOCACHE key reads.
//   monitored   kNone with ShadowTaintMap, DirtyFrameJournal and
//               AlertEngine(default_rules()) on a TaintFanout plus the
//               EventBus; a 4-needle incremental sweep after every
//               connection. The obs clock is manual and advances one fixed
//               step per connection, so alert counts repeat exactly.
//
// Rounds run a block of connections on each arm, rotating which arm goes
// first. End-to-end slots: ops_per_s / p50_us / p90_us = integrated,
// ref_ops_per_s = stock, key_copies = frames holding key bytes in the
// integrated machine at run end (the paper's claim: exactly one).
#include "analysis/taint_map.hpp"
#include "core/protection.hpp"
#include "crypto/pem.hpp"
#include "harness.hpp"
#include "obs/alert.hpp"
#include "obs/clock.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "scan/dirty_journal.hpp"
#include "scan/key_scanner.hpp"
#include "servers/ssh_server.hpp"
#include "util/bytes.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMemBytes = 64ull << 20;
constexpr std::size_t kSlots = 20;
constexpr std::size_t kBlock = 10;  // connections per arm per round
constexpr std::uint64_t kMonitorStepNs = 1'000'000;
constexpr std::size_t kFileSizes[10] = {1ull << 10,   2ull << 10,  4ull << 10,
                                        8ull << 10,   16ull << 10, 32ull << 10,
                                        64ull << 10,  128ull << 10, 256ull << 10,
                                        512ull << 10};
constexpr const char* kKeyPath = "/etc/ssh/ssh_host_rsa_key";

enum ArmKind : std::size_t { kStock = 0, kIntegrated = 1, kMonitored = 2 };
constexpr const char* kArmNames[3] = {"stock", "integrated", "monitored"};

/// Per-arm samples; one set for untraced rounds, one for traced rounds.
/// Durations are raw inside a block and reference-machine time once
/// add()ed to an arm's totals.
struct Samples {
  std::vector<double> conn_us, open_us, transfer_us, close_us, sweep_us;
  double busy_s = 0.0;
  std::uint64_t conns = 0;
  std::uint64_t cow_breaks = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t teardowns = 0;
  double live_procs = 0.0;  // summed per connection
  double dirty_frames = 0.0;  // summed per sweep

  double rate() const { return busy_s > 0 ? static_cast<double>(conns) / busy_s : 0.0; }
  double per_conn(double total) const {
    return conns > 0 ? total / static_cast<double>(conns) : 0.0;
  }
  /// Adds a steady block, its durations scaled by the speed factor `f`.
  void add(const Samples& b, double f) {
    for (auto [to, from] : {std::pair{&conn_us, &b.conn_us}, {&open_us, &b.open_us},
                            {&transfer_us, &b.transfer_us}, {&close_us, &b.close_us},
                            {&sweep_us, &b.sweep_us}}) {
      for (const double us : *from) to->push_back(us * f);
    }
    busy_s += b.busy_s * f;
    conns += b.conns;
    cow_breaks += b.cow_breaks;
    swap_ins += b.swap_ins;
    teardowns += b.teardowns;
    live_procs += b.live_procs;
    dirty_frames += b.dirty_frames;
  }
};

struct Arm {
  ArmKind kind = kStock;
  core::ProtectionProfile profile;
  std::unique_ptr<sim::Kernel> kernel;
  // Monitored arm only.
  std::unique_ptr<analysis::ShadowTaintMap> shadow;
  std::unique_ptr<scan::DirtyFrameJournal> journal;
  std::unique_ptr<obs::AlertEngine> alerts;
  sim::TaintFanout fanout;
  scan::SweepCache cache;
  std::vector<scan::MemoryMatch> last_sweep;
  std::uint64_t clock_ns = 0;

  std::unique_ptr<servers::SshServer> server;
  std::vector<servers::ConnectionId> slots;
  std::size_t next_slot = 0;
  std::size_t next_file = 0;
  Samples samples[2];  // [untraced, traced]

  Arm() = default;
  Arm(const Arm&) = delete;
  Arm& operator=(const Arm&) = delete;
  ~Arm() {
    if (alerts) obs::EventBus::global().unsubscribe(alerts.get());
    if (kernel) kernel->attach_taint(nullptr);
  }
};

/// While alive, the monitored arm's observers are live: the event bus is
/// on and the obs clock is the arm's manual clock. Other arms: no-op. The
/// bus is process-global, so it must be off whenever another machine runs.
class MonitorScope {
 public:
  explicit MonitorScope(Arm& arm) : arm_(arm.kind == kMonitored ? &arm : nullptr) {
    if (arm_ == nullptr) return;
    obs::manual_clock_install(arm_->clock_ns);
    obs::EventBus::global().set_enabled(true);
  }
  ~MonitorScope() {
    if (arm_ == nullptr) return;
    obs::EventBus::global().set_enabled(false);
    arm_->clock_ns = obs::now_ns();
    obs::host_clock_install();
  }
  MonitorScope(const MonitorScope&) = delete;
  MonitorScope& operator=(const MonitorScope&) = delete;

 private:
  Arm* arm_;
};

struct State {
  Arm arms[3];
};

void build_arm(Arm& arm, ArmKind kind, const std::string& pem, std::uint64_t seed,
               const scan::KeyScanner& scanner) {
  arm.kind = kind;
  arm.profile = core::make_profile(
      kind == kIntegrated ? core::ProtectionLevel::kIntegrated : core::ProtectionLevel::kNone,
      kMemBytes);
  arm.kernel = std::make_unique<sim::Kernel>(arm.profile.kernel, kMachineSeed);
  arm.kernel->vfs().write_file(kKeyPath, util::to_bytes(pem), sim::TaintTag::kPem);
  if (kind == kMonitored) {
    arm.shadow = std::make_unique<analysis::ShadowTaintMap>(*arm.kernel);
    arm.journal = std::make_unique<scan::DirtyFrameJournal>(arm.kernel->memory().size_bytes());
    arm.alerts = std::make_unique<obs::AlertEngine>(*arm.kernel, *arm.shadow);
    for (auto& rule : obs::default_rules()) arm.alerts->add_rule(std::move(rule));
    arm.fanout.add(arm.shadow.get());
    arm.fanout.add(arm.journal.get());
    arm.fanout.add(arm.alerts.get());
    arm.kernel->attach_taint(&arm.fanout);
    obs::EventBus::global().subscribe(arm.alerts.get());
  }
  MonitorScope scope(arm);
  // Every arm's server draws the same handshake stream.
  arm.server = std::make_unique<servers::SshServer>(
      *arm.kernel, core::ssh_config(arm.profile, kKeyPath), util::Rng(seed ^ 0x737368ULL));
  if (!arm.server->start()) return;
  for (std::size_t i = 0; i < kSlots; ++i) {
    if (const auto id = arm.server->open_connection()) arm.slots.push_back(*id);
  }
  if (kind == kMonitored) {
    arm.last_sweep = scanner.scan_kernel_incremental(*arm.kernel, *arm.journal, arm.cache);
  }
}

/// close -> open -> one transfer (and the monitored sweep). False when the
/// handshake failed.
bool one_connection(Arm& arm, Samples& s, const scan::KeyScanner& scanner) {
  sim::Kernel& kernel = *arm.kernel;
  servers::ConnectionId& slot = arm.slots[arm.next_slot];
  arm.next_slot = (arm.next_slot + 1) % arm.slots.size();
  const std::size_t bytes = kFileSizes[arm.next_file];
  arm.next_file = (arm.next_file + 1) % 10;
  if (arm.kind == kMonitored) obs::manual_clock_advance(kMonitorStepNs);
  const auto cow0 = kernel.cow_break_count();
  const auto swap0 = kernel.swap_in_count();

  const auto t0 = Clock::now();
  arm.server->close_connection(slot);
  const auto t1 = Clock::now();
  const auto id = arm.server->open_connection();
  const auto t2 = Clock::now();
  if (id) {
    slot = *id;
    arm.server->transfer(slot, bytes);
  }
  auto t3 = Clock::now();
  const auto t_transfer_end = t3;
  if (arm.kind == kMonitored) {
    scan::ScanStats st;
    arm.last_sweep = scanner.scan_kernel_incremental(kernel, *arm.journal, arm.cache, &st);
    t3 = Clock::now();
    s.sweep_us.push_back(micros(t_transfer_end, t3));
    s.dirty_frames += static_cast<double>(st.dirty_frames);
  }

  s.close_us.push_back(micros(t0, t1));
  s.open_us.push_back(micros(t1, t2));
  s.transfer_us.push_back(micros(t2, t_transfer_end));
  s.conn_us.push_back(micros(t0, t3));
  s.busy_s += micros(t0, t3) * 1e-6;
  ++s.conns;
  s.cow_breaks += kernel.cow_break_count() - cow0;
  s.swap_ins += kernel.swap_in_count() - swap0;
  s.live_procs += static_cast<double>(kernel.live_process_count());
  return id.has_value();
}

/// p50 and tail of microsecond samples, in ms.
void report_phase(Report& r, const std::string& name, const std::vector<double>& us) {
  r.layer(name + ".p50", median(us) / 1000.0, "ms");
  const auto t = tail(us);
  r.layer(name + ".tail", t ? t->value / 1000.0 : 0.0, "ms");
}

}  // namespace

void run_ssh_scp(const Options& opt, Report& report) {
  const auto key = make_keys(opt.seed, 1).front();
  const std::string pem = crypto::pem_encode_private_key(key);
  scan::KeyScanner scanner(key);
  scanner.set_shards(1);
  if (opt.trace) run_layer_probes(key, opt.seed, report);

  auto state = timed_setups(report, [&] {
    auto st = std::make_unique<State>();
    for (std::size_t a = 0; a < 3; ++a) {
      build_arm(st->arms[a], static_cast<ArmKind>(a), pem, opt.seed, scanner);
    }
    return st;
  });
  for (auto& arm : state->arms) {
    report.check(arm.slots.size() == kSlots,
                 std::string("ssh ") + kArmNames[arm.kind] + ": server up, 20 slots open");
    if (arm.slots.size() != kSlots) return;
  }

  // kernel.execs counts address-space teardowns: exit_process runs the same
  // teardown as exec, so a stock connection (re-exec + exit) counts 2 and
  // an sshd -r connection (exit only) counts 1.
  auto& teardowns = obs::MetricsRegistry::global().counter("kernel.execs");
  SpeedGauge speed(SpeedKernel::kCompute);
  auto run_round = [&](std::uint64_t round, bool counted) {
    const bool traced = round_traced(opt, round);
    set_tracing(traced);
    speed.open();
    for (std::size_t k = 0; k < 3; ++k) {
      Arm& arm = state->arms[(round + k) % 3];
      Samples block;
      {
        MonitorScope scope(arm);
        const auto teardowns0 = teardowns.value();
        for (std::size_t i = 0; i < kBlock; ++i) {
          const bool ok = one_connection(arm, block, scanner);
          if (counted) {
            report.attempt();
            if (!ok) report.fail();
          }
        }
        block.teardowns = teardowns.value() - teardowns0;
      }
      const Bracket b = speed.bracket();
      if (counted && b.steady) arm.samples[traced ? 1 : 0].add(block, b.factor);
    }
    set_tracing(false);
  };

  run_round(0, false);  // warm-up: first-touch page faults, allocator state
  const auto start = Clock::now();
  std::uint64_t rounds = 0;
  while (seconds_since(start) < opt.seconds) run_round(rounds++, true);
  report.set_trials(rounds);
  if (opt.trace) dump_trace(opt);

  // -- correctness, untimed ------------------------------------------------
  Arm& stock = state->arms[kStock];
  Arm& integ = state->arms[kIntegrated];
  Arm& mon = state->arms[kMonitored];
  const auto fresh = scanner.scan_kernel(*mon.kernel);
  report.check(same_matches(mon.last_sweep, fresh),
               "ssh monitored: incremental sweep equals a fresh full scan at run end");
  const auto integ_hits = scanner.scan_kernel(*integ.kernel);
  const std::size_t copies = distinct_frames(integ_hits);
  report.check(copies <= 1, "ssh integrated: key_copies <= 1 (paper: exactly one)");

  // -- end-to-end: untraced rounds ----------------------------------------
  const Samples& si = integ.samples[0];
  const Samples& ss = stock.samples[0];
  const Samples& sm = mon.samples[0];
  report.e2e("ops_per_s", si.rate(), "1/s");
  report.e2e("ref_ops_per_s", ss.rate(), "1/s");
  report.latency("ssh.conn_p99_ms", si.conn_us, 1e-3, "ms");
  report.e2e("key_copies", static_cast<double>(copies), "count");
  report.show("ssh.conn_per_s", si.rate(), "1/s", "(integrated)");
  report.show("ssh.conn_per_s.stock", ss.rate(), "1/s");
  report.show("ssh.conn_per_s.monitored", sm.rate(), "1/s");
  report.show("key_copies", static_cast<double>(copies), "frames",
              "(" + std::to_string(integ_hits.size()) + " needle hits, integrated)");
  report.unsteady_blocks(speed.unsteady(), speed.blocks());

  if (!opt.trace) return;
  // -- per-layer: traced rounds (rates from the untraced ones) --------------
  for (const Arm& arm : state->arms) {
    const std::string n = kArmNames[arm.kind];
    const Samples& t = arm.samples[1];
    report_phase(report, "ssh.open_ms." + n, t.open_us);
    report_phase(report, "ssh.transfer_ms." + n, t.transfer_us);
    report_phase(report, "ssh.close_ms." + n, t.close_us);
    report.layer("kernel.cow_breaks.per_conn." + n, t.per_conn(t.cow_breaks), "count");
    report.layer("kernel.swap_ins.per_conn." + n, t.per_conn(t.swap_ins), "count");
    report.layer("kernel.teardowns.per_conn." + n, t.per_conn(t.teardowns), "count");
    report.layer("kernel.live_procs." + n, t.per_conn(t.live_procs), "count");
  }
  report.layer("ssh.conn_per_s.monitored", sm.rate(), "1/s");
  const Samples& tm = mon.samples[1];
  report.layer("scan.incremental_ms", median(tm.sweep_us) / 1000.0, "ms");
  report.layer("scan.dirty_frames",
               tm.sweep_us.empty() ? 0.0 : tm.dirty_frames / tm.sweep_us.size(), "count");
  report.layer("monitor.hook_us_per_conn",
               mean(sm.conn_us) - mean(ss.conn_us) - mean(sm.sweep_us), "us");
  report.layer("obs.alerts.total", static_cast<double>(mon.alerts->alerts_fired()), "count");
  report.layer("trace.overhead", si.rate() > 0 ? integ.samples[1].rate() / si.rate() : 0.0,
               "ratio");
}

}  // namespace perfbench
