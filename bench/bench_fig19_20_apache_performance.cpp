// Figures 19 & 20: Apache performance before vs after the integrated
// defense, Siege-style: 4000 HTTPS transactions at 20 attempted concurrent
// connections. Metrics: average response time, throughput, transaction
// rate, concurrency. Both arms run one seed per pair, alternating which
// goes first; the check reads the median per-pair rate ratio
// (paired_trials, common.hpp).
#include <chrono>

#include "common.hpp"

using namespace kgbench;

namespace {

constexpr std::size_t kResponseBytes = 32ull << 10;

/// Completed transactions per second of one rep.
double run_rep(core::ProtectionLevel level, const Scale& scale, std::uint64_t seed) {
  auto s = make_scenario(level, scale, seed);
  auto cfg = s.apache_config();
  cfg.start_servers = 4;
  cfg.response_bytes = kResponseBytes;
  servers::ApacheServer server(s.kernel(), cfg, s.make_rng());
  if (!server.start()) return 0.0;
  server.set_concurrency(scale.perf_concurrency);

  const auto begin = std::chrono::steady_clock::now();
  int done = 0;
  for (int t = 0; t < scale.perf_transfers; ++t) {
    if (server.handle_request()) ++done;
  }
  const auto end = std::chrono::steady_clock::now();
  server.stop();
  return done / std::chrono::duration<double>(end - begin).count();
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  banner("Figures 19 & 20 — Apache performance: stock vs integrated defense",
         "response time, throughput, transaction rate and concurrency all "
         "unchanged — no performance penalty",
         scale);
  std::printf("workload: %d HTTPS transactions x %d interleaved pairs, %d "
              "attempted concurrent (Siege style)\n\n",
              scale.perf_transfers, scale.perf_pairs, scale.perf_concurrency);

  // Same seed within a pair; the ratio is multilevel / original.
  const auto arm = [&](core::ProtectionLevel level) {
    return [&scale, level](int pair) {
      return run_rep(level, scale, 1900 + static_cast<std::uint64_t>(pair));
    };
  };
  const Paired rate = paired_trials(scale.perf_pairs,
                                    arm(core::ProtectionLevel::kIntegrated),
                                    arm(core::ProtectionLevel::kNone));
  // Response time is 1/rate and throughput rate x response size, so both
  // follow from the rate's medians and per-pair ratios.
  const auto inv = [](double r) { return r > 0 ? 1.0 / r : 0.0; };
  const auto mb = [](double r) { return r * static_cast<double>(kResponseBytes) / 1e6; };
  const auto spread = [](double lo, double hi) {
    return util::fmt(lo, 3) + "-" + util::fmt(hi, 3);
  };

  util::Table table({"metric", "original", "multilevel", "ratio p50", "p25-p75"});
  table.add_row({"response time (ms)", util::fmt(1000.0 * inv(rate.b), 3),
                 util::fmt(1000.0 * inv(rate.a), 3), util::fmt(inv(rate.p50), 3),
                 spread(inv(rate.p75), inv(rate.p25))});
  table.add_row({"throughput (MB/s)", util::fmt(mb(rate.b), 2),
                 util::fmt(mb(rate.a), 2), util::fmt(rate.p50, 3),
                 spread(rate.p25, rate.p75)});
  table.add_row({"transaction rate (trans/s)", util::fmt(rate.b, 1),
                 util::fmt(rate.a, 1), util::fmt(rate.p50, 3),
                 spread(rate.p25, rate.p75)});
  table.add_row({"concurrency", std::to_string(scale.perf_concurrency),
                 std::to_string(scale.perf_concurrency), "1.000", "-"});
  std::printf("%s\n", table.render().c_str());

  const bool ok = shape_check(rate.p50 > 0.80 && rate.p50 < 1.25,
                              "defense within noise of the stock system "
                              "(paper: no performance penalty): rate " +
                                  rate.ratio());
  return ok ? 0 : 1;
}
