// scan_audit: the scanmemory auditor over the paper's 256 MB testbed.
//
// Set-up fills a 256 MB stock machine with seeded churn from a stock sshd
// (re-exec per connection, scp transfers) and a stock SNI frontend (16
// plaintext tenant keys), leaving some connections open, so key residue
// sits in both allocated and free frames. The timed loop then runs
// back-to-back full KeyScanner::scan_kernel sweeps, alternating two needle
// sets:
//
//   single   the paper's 4 needles of the host key (d, P, Q, PEM); kAuto
//            sends this to the legacy per-needle loop;
//   tenants  the 16 tenant keys' 64 needles; kAuto sends this to the SIMD
//            skim.
//
// The walk is pinned serial (set_shards(1)): the thread pool's
// parallel_for_blocks completion race can abort or hang sharded scans, and
// a sharded workload comes with its fix. Traced rounds also time
// scan::sharded_scan over the raw physical bytes with the same needles,
// which splits a sweep into matcher time and frame-resolution time.
//
// End-to-end slots: ops_per_s / p50_us / p90_us = single-set sweeps,
// ref_ops_per_s = tenant-set sweeps (MB/s = sweeps/s * 256 in the log),
// key_copies = frames holding single-set hits.
#include "core/protection.hpp"
#include "crypto/pem.hpp"
#include "harness.hpp"
#include "scan/key_scanner.hpp"
#include "servers/sni_frontend.hpp"
#include "servers/ssh_server.hpp"
#include "util/bytes.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMemBytes = 256ull << 20;
constexpr double kMemMb = 256.0;
constexpr std::size_t kTenants = 16;
constexpr std::size_t kVhosts = 64;
constexpr std::size_t kChurnSteps = 400;
constexpr std::size_t kLeftOpen = 10;
constexpr const char* kKeyPath = "/etc/ssh/ssh_host_rsa_key";

enum SetKind : std::size_t { kSingle = 0, kTenantSet = 1 };
constexpr const char* kSetNames[2] = {"single", "tenants"};

struct State {
  std::unique_ptr<sim::Kernel> kernel;
  std::unique_ptr<servers::SshServer> ssh;
  std::unique_ptr<servers::SniFrontend> sni;
  bool ok = false;
};

/// Sweep timings in reference-machine time (steady sweeps only).
struct SetSamples {
  std::vector<double> sweep_us[2];  // [untraced, traced]
  std::vector<double> matcher_ms, resolve_ms;
  std::vector<scan::MemoryMatch> first;
  bool have_first = false;
  bool stable = true;
  bool matcher_agrees = true;
  scan::SimdKind simd = scan::SimdKind::kNone;

  double rate(int traced) const {
    double s = 0.0;
    for (const double us : sweep_us[traced]) s += us * 1e-6;
    return s > 0 ? static_cast<double>(sweep_us[traced].size()) / s : 0.0;
  }
};

std::unique_ptr<State> build(const std::vector<crypto::RsaPrivateKey>& keys,
                             std::uint64_t seed) {
  auto st = std::make_unique<State>();
  const auto profile = core::make_profile(core::ProtectionLevel::kNone, kMemBytes);
  st->kernel = std::make_unique<sim::Kernel>(profile.kernel, kMachineSeed);
  st->kernel->vfs().write_file(
      kKeyPath, util::to_bytes(crypto::pem_encode_private_key(keys.front())),
      sim::TaintTag::kPem);
  st->ssh = std::make_unique<servers::SshServer>(
      *st->kernel, core::ssh_config(profile, kKeyPath), util::Rng(seed ^ 0x737368ULL));
  st->sni = std::make_unique<servers::SniFrontend>(*st->kernel, core::sni_config(profile, 8),
                                                   util::Rng(seed ^ 0x736e69ULL));
  std::vector<crypto::RsaPrivateKey> vhost_keys;
  for (std::size_t i = 0; i < kVhosts; ++i) vhost_keys.push_back(keys[i % kTenants]);
  if (!st->ssh->start() || !st->sni->start(vhost_keys)) return st;

  // The churn's shape is fixed (ssh and SNI steps alternate, transfers
  // cycle 1..512 KB) so the residue census depends on the seed only
  // through the keys, the vhost picks and the machine's own randomness.
  util::Rng picks(seed ^ 0x636875726eULL);
  bool ok = true;
  for (std::size_t i = 0; i < kChurnSteps; ++i) {
    if (i % 2 == 0) {
      ok = st->ssh->handle_connection((1ull << 10) << (i / 2 % 10)) && ok;
    } else {
      ok = st->sni->handle_request(pick_skewed(picks, kVhosts)) && ok;
    }
  }
  for (std::size_t i = 0; i < kLeftOpen; ++i) {
    const auto id = st->ssh->open_connection();
    ok = id.has_value() && ok;
    if (id) st->ssh->transfer(*id, 64ull << 10);
  }
  st->ok = ok;
  return st;
}

std::vector<std::span<const std::byte>> needles_of(const scan::KeyScanner& scanner) {
  std::vector<std::span<const std::byte>> out;
  for (const auto& p : scanner.patterns().patterns) out.emplace_back(p.bytes);
  return out;
}

}  // namespace

void run_scan_audit(const Options& opt, Report& report) {
  const auto keys = make_keys(opt.seed, kTenants);
  if (opt.trace) run_layer_probes(keys.front(), opt.seed, report);
  auto state = timed_setups(report, [&] { return build(keys, opt.seed); });
  if (!report.check(state->ok, "scan_audit: churn set-up served every request")) return;

  scan::KeyScanner scanners[2] = {scan::KeyScanner(keys.front()),
                                  scan::KeyScanner(scan::KeyPatterns::from_keys(keys))};
  const std::vector<std::span<const std::byte>> needles[2] = {needles_of(scanners[0]),
                                                              needles_of(scanners[1])};
  SetSamples sets[2];
  const sim::Kernel& kernel = *state->kernel;

  for (auto& scanner : scanners) scanner.set_shards(1);
  SpeedGauge speed(SpeedKernel::kStream);

  auto sweep = [&](std::size_t k, bool traced, bool counted) {
    const scan::KeyScanner& scanner = scanners[k];
    SetSamples& s = sets[k];
    scan::ScanStats stats;
    const auto t0 = Clock::now();
    auto matches = scanner.scan_kernel(kernel, &stats);
    const auto t1 = Clock::now();
    s.simd = stats.simd_kind;
    if (!s.have_first) {
      s.first = std::move(matches);
      s.have_first = true;
    } else {
      s.stable = same_matches(matches, s.first) && s.stable;
    }
    if (!counted) return;
    report.attempt();
    double matcher_ms = 0.0;
    if (traced) {
      const auto t2 = Clock::now();
      const auto raw = scan::sharded_scan(kernel.memory().all(), needles[k], 1);
      matcher_ms = micros(t2, Clock::now()) / 1000.0;
      s.matcher_agrees = raw.size() == s.first.size() && s.matcher_agrees;
    }
    const Bracket b = speed.bracket();
    if (!b.steady) return;
    s.sweep_us[traced ? 1 : 0].push_back(micros(t0, t1) * b.factor);
    if (!traced) return;
    s.matcher_ms.push_back(matcher_ms * b.factor);
    s.resolve_ms.push_back((micros(t0, t1) / 1000.0 - matcher_ms) * b.factor);
  };

  set_tracing(false);
  sweep(kSingle, false, false);  // warm-up and the reference results
  sweep(kTenantSet, false, false);
  const auto start = Clock::now();
  std::uint64_t rounds = 0;
  while (seconds_since(start) < opt.seconds) {
    const bool traced = round_traced(opt, rounds);
    speed.open();
    set_tracing(traced);
    sweep(rounds % 2, traced, true);
    sweep((rounds + 1) % 2, traced, true);
    set_tracing(false);
    ++rounds;
  }
  report.set_trials(rounds);
  if (opt.trace) dump_trace(opt);

  // -- correctness, untimed ------------------------------------------------
  for (std::size_t k = 0; k < 2; ++k) {
    SetSamples& s = sets[k];
    const std::string n = kSetNames[k];
    report.check(s.stable, "scan_audit " + n + ": every sweep returns the first sweep's matches");
    if (!opt.trace) {
      const auto raw = scan::sharded_scan(kernel.memory().all(), needles[k], 1);
      s.matcher_agrees = raw.size() == s.first.size();
    }
    report.check(s.matcher_agrees,
                 "scan_audit " + n + ": sharded_scan agrees with scan_kernel on the hit count");
    report.check(!s.first.empty(), "scan_audit " + n + ": residue present");
  }
  const std::size_t copies = distinct_frames(sets[kSingle].first);
  std::size_t unallocated = 0;
  for (const auto& m : sets[kSingle].first) unallocated += m.allocated() ? 0 : 1;
  report.check(unallocated > 0 && unallocated < sets[kSingle].first.size(),
               "scan_audit: residue in both allocated and free frames");

  const SetSamples& single = sets[kSingle];
  const SetSamples& tenants = sets[kTenantSet];
  report.e2e("ops_per_s", single.rate(0), "1/s");
  report.e2e("ref_ops_per_s", tenants.rate(0), "1/s");
  report.latency("scan.sweep_ms.single", single.sweep_us[0], 1e-3, "ms");
  report.e2e("key_copies", static_cast<double>(copies), "count");
  report.show("scan.mb_per_s", kMemMb * single.rate(0), "MB/s", "(4 needles)");
  report.show("scan.mb_per_s.tenants", kMemMb * tenants.rate(0), "MB/s", "(64 needles)");
  report.show("key_copies", static_cast<double>(copies), "frames",
              "(" + std::to_string(single.first.size()) + " hits, " +
                  std::to_string(unallocated) + " unallocated)");
  report.unsteady_blocks(speed.unsteady(), speed.blocks());

  if (!opt.trace) return;
  for (std::size_t k = 0; k < 2; ++k) {
    const SetSamples& s = sets[k];
    const std::string n = kSetNames[k];
    report.layer("scan.matcher_ms." + n, median(s.matcher_ms), "ms");
    report.layer("scan.resolve_ms." + n, median(s.resolve_ms), "ms");
    report.layer("scan.matches." + n, static_cast<double>(s.first.size()), "count");
  }
  report.layer("scan.simd_kind", static_cast<double>(tenants.simd), "code");
  report.show("scan.simd_kind", static_cast<double>(tenants.simd), "code",
              scan::simd_kind_name(tenants.simd));
  report.layer("trace.overhead", single.rate(0) > 0 ? single.rate(1) / single.rate(0) : 0.0,
               "ratio");
}

}  // namespace perfbench
