// Figure 8: OpenSSH performance before vs after the integrated defense.
//
// The paper's benchmark: 20 concurrent scp connections repeatedly transfer
// 10 files (1 KB .. 512 KB, average 102.3 KB) until 4000 transfers
// complete, repeated 16 times; metrics are transaction rate (files/s) and
// throughput (Mbit/s). We time the simulated workload host-side: the
// defense's extra work (page clearing, mlock, alignment copies, cache
// disable) all executes inside the simulation, so a penalty would show.
// Both arms run one seed per pair, alternating which goes first; the check
// reads the median per-pair rate ratio (paired_trials, common.hpp).
#include <algorithm>
#include <chrono>

#include "common.hpp"

using namespace kgbench;

namespace {

// The paper's file mix: 1..512 KB doubling, average 102.3 KB.
constexpr std::size_t kFileSizes[10] = {1ull << 10, 2ull << 10,  4ull << 10,
                                        8ull << 10, 16ull << 10, 32ull << 10,
                                        64ull << 10, 128ull << 10, 256ull << 10,
                                        512ull << 10};

/// Transfers per second of one rep.
double run_rep(core::ProtectionLevel level, const Scale& scale, std::uint64_t seed) {
  auto s = make_scenario(level, scale, seed);
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  if (!server.start()) return 0.0;

  std::vector<servers::ConnectionId> slots;
  for (int i = 0; i < scale.perf_concurrency; ++i) {
    const auto id = server.open_connection();
    if (id) slots.push_back(*id);
  }

  const auto begin = std::chrono::steady_clock::now();
  for (int t = 0; t < scale.perf_transfers; ++t) {
    auto& slot = slots[static_cast<std::size_t>(t) % slots.size()];
    // scp: one connection per file.
    server.close_connection(slot);
    const auto id = server.open_connection();
    if (!id) break;
    slot = *id;
    server.transfer(slot, kFileSizes[static_cast<std::size_t>(t) % 10]);
  }
  const auto end = std::chrono::steady_clock::now();
  for (const auto id : slots) server.close_connection(id);
  server.stop();
  return scale.perf_transfers / std::chrono::duration<double>(end - begin).count();
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  banner("Figure 8 — OpenSSH performance: stock vs integrated defense",
         "transaction rate and throughput unchanged — the defense imposes no "
         "performance penalty",
         scale);
  std::printf("workload: %d transfers x %d interleaved pairs, %d concurrent, "
              "files 1..512 KB (avg 102.3 KB)\n\n",
              scale.perf_transfers, scale.perf_pairs, scale.perf_concurrency);

  // Same seed within a pair; the ratio is multilevel / original.
  const auto arm = [&](core::ProtectionLevel level) {
    return [&scale, level](int pair) {
      return run_rep(level, scale, 800 + static_cast<std::uint64_t>(pair));
    };
  };
  const Paired rate = paired_trials(scale.perf_pairs,
                                    arm(core::ProtectionLevel::kIntegrated),
                                    arm(core::ProtectionLevel::kNone));
  // Every rep moves the same file mix, so throughput is the rate times a
  // constant and shares its per-pair ratio.
  double mbit_per_transfer = 0.0;
  for (int t = 0; t < scale.perf_transfers; ++t) {
    mbit_per_transfer += static_cast<double>(kFileSizes[t % 10]) * 8.0 / 1e6;
  }
  mbit_per_transfer /= scale.perf_transfers;
  const double tput_orig = rate.b * mbit_per_transfer;
  const double tput_all = rate.a * mbit_per_transfer;

  util::Table table({"metric", "original", "multilevel", "ratio p50", "p25-p75"});
  const std::string spread = util::fmt(rate.p25, 3) + "-" + util::fmt(rate.p75, 3);
  table.add_row({"transaction rate (transfers/s)", util::fmt(rate.b, 1),
                 util::fmt(rate.a, 1), util::fmt(rate.p50, 3), spread});
  table.add_row({"throughput (Mbit/s)", util::fmt(tput_orig, 1),
                 util::fmt(tput_all, 1), util::fmt(rate.p50, 3), spread});
  std::printf("%s\n", table.render().c_str());
  std::printf("bars (left original, right multilevel; medians):\n");
  const double rate_max = std::max(rate.a, rate.b);
  const double tput_max = std::max(tput_orig, tput_all);
  std::printf("  rate  %s | %s\n", util::bar(rate.b, rate_max, 25).c_str(),
              util::bar(rate.a, rate_max, 25).c_str());
  std::printf("  tput  %s | %s\n\n", util::bar(tput_orig, tput_max, 25).c_str(),
              util::bar(tput_all, tput_max, 25).c_str());
  // The multilevel arm may lead: stock sshd re-executes itself for every
  // connection (fresh image, key re-read and re-parsed from disk), while
  // the integrated profile runs sshd -r and skips both (kernel.execs per
  // transfer measured 2.10 vs 1.05; EXPERIMENTS.md, "One timing gate").
  const bool ok = shape_check(rate.p50 > 0.80 && rate.p50 < 1.25,
                              "defense within noise of the stock system "
                              "(paper: no performance penalty): rate " +
                                  rate.ratio());
  return ok ? 0 : 1;
}
