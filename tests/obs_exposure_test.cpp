// ExposureMonitor: event-driven copy accounting must equal a ground-truth
// scan at every instant, and the byte·second integral must be exact under
// the manual clock. The eviction-storm case also reconciles the monitor
// against the ShadowTaintMap auditor — two independent observers fed by
// the same hooks, three-way agreement with the scanner.
#include "obs/exposure_monitor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "core/protection.hpp"
#include "obs/clock.hpp"
#include "servers/sni_frontend.hpp"
#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace keyguard::obs {
namespace {

scan::KeyPatterns make_patterns(util::Rng& rng, std::size_t n_keys = 1,
                                std::size_t len = 48) {
  scan::KeyPatterns p;
  for (std::size_t k = 0; k < n_keys; ++k) {
    scan::KeyPatterns::Pattern pat;
    pat.name = n_keys == 1 ? "d" : ("d#" + std::to_string(k));
    pat.key = k;
    pat.bytes.resize(len);
    rng.fill_bytes(pat.bytes);
    pat.bytes[0] = std::byte{0xA5};  // never a zero-filled false positive
    p.patterns.push_back(std::move(pat));
  }
  return p;
}

bool monitor_equals_sweep(const ExposureMonitor& monitor,
                          const sim::Kernel& kernel) {
  scan::KeyScanner scanner(monitor.patterns());
  const auto truth = scanner.scan_capture(kernel.memory().all());
  const auto live = monitor.copies();
  if (live.size() != truth.size()) return false;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i].offset != truth[i].offset ||
        monitor.patterns().patterns[live[i].pattern_index].name != truth[i].part) {
      return false;
    }
  }
  return true;
}

class ExposureTest : public ::testing::Test {
 protected:
  void SetUp() override { manual_clock_install(0); }
  void TearDown() override { host_clock_install(); }
};

TEST_F(ExposureTest, PlantOverwriteRecreate) {
  sim::Kernel kernel({.mem_bytes = 4ull << 20});
  util::Rng rng(9);
  const auto patterns = make_patterns(rng);
  const auto needle = patterns.patterns[0].bytes;
  ExposureMonitor monitor(kernel.memory(), patterns);
  kernel.attach_taint(&monitor);

  auto& p = kernel.spawn("victim");
  const auto addr = kernel.heap_alloc(p, 4096, "buf");
  ASSERT_NE(addr, 0u);
  EXPECT_EQ(monitor.total_copies(), 0u);

  kernel.mem_write(p, addr, needle);
  EXPECT_EQ(monitor.total_copies(), 1u);
  EXPECT_EQ(monitor.copy_count(0), 1u);
  EXPECT_EQ(monitor.live_bytes(0), needle.size());
  EXPECT_TRUE(monitor_equals_sweep(monitor, kernel));

  // One corrupted byte in the middle kills the copy...
  const std::byte flip[] = {std::byte{0x00}};
  kernel.mem_write(p, addr + 10, flip);
  EXPECT_EQ(monitor.total_copies(), 0u);
  EXPECT_TRUE(monitor_equals_sweep(monitor, kernel));

  // ...and restoring it resurrects the copy (dirty-window rescan).
  const std::byte orig[] = {needle[10]};
  kernel.mem_write(p, addr + 10, orig);
  EXPECT_EQ(monitor.total_copies(), 1u);
  EXPECT_TRUE(monitor_equals_sweep(monitor, kernel));

  kernel.heap_clear_free(p, addr);
  EXPECT_EQ(monitor.total_copies(), 0u);
  EXPECT_TRUE(monitor_equals_sweep(monitor, kernel));
  const auto exp = monitor.exposure(0);
  EXPECT_EQ(exp.copies_created, 2u);
  EXPECT_EQ(exp.copies_destroyed, 2u);
  kernel.attach_taint(nullptr);
}

TEST_F(ExposureTest, AdjacentCopiesAreDistinct) {
  sim::Kernel kernel({.mem_bytes = 4ull << 20});
  util::Rng rng(10);
  const auto patterns = make_patterns(rng, 1, 32);
  const auto& needle = patterns.patterns[0].bytes;
  ExposureMonitor monitor(kernel.memory(), patterns);
  kernel.attach_taint(&monitor);

  auto& p = kernel.spawn("victim");
  const auto addr = kernel.heap_alloc(p, 4096, "buf");
  // Back-to-back copies: the seam-window logic must see both.
  std::vector<std::byte> two;
  two.insert(two.end(), needle.begin(), needle.end());
  two.insert(two.end(), needle.begin(), needle.end());
  kernel.mem_write(p, addr, two);
  EXPECT_EQ(monitor.total_copies(), 2u);
  EXPECT_TRUE(monitor_equals_sweep(monitor, kernel));
  kernel.attach_taint(nullptr);
}

TEST_F(ExposureTest, IntegralIsExactUnderManualClock) {
  sim::Kernel kernel({.mem_bytes = 4ull << 20});
  util::Rng rng(11);
  const std::size_t len = 64;
  const auto patterns = make_patterns(rng, 1, len);
  ExposureMonitor monitor(kernel.memory(), patterns);
  kernel.attach_taint(&monitor);

  auto& p = kernel.spawn("victim");
  const auto addr = kernel.heap_alloc(p, 4096, "buf");
  kernel.mem_write(p, addr, patterns.patterns[0].bytes);

  manual_clock_advance(5 * kNsPerSec);
  // One L-byte copy alive for 5 s == exactly 5 L byte·seconds.
  EXPECT_DOUBLE_EQ(monitor.exposure_window(0), 5.0 * static_cast<double>(len));

  // Destroy it; the integral stops accruing.
  kernel.heap_clear_free(p, addr);
  manual_clock_advance(100 * kNsPerSec);
  EXPECT_DOUBLE_EQ(monitor.exposure_window(0), 5.0 * static_cast<double>(len));
  EXPECT_EQ(monitor.exposure(0).peak_copies, 1u);
  kernel.attach_taint(nullptr);
}

TEST_F(ExposureTest, ResyncPicksUpPreAttachCopies) {
  sim::Kernel kernel({.mem_bytes = 4ull << 20});
  util::Rng rng(12);
  const auto patterns = make_patterns(rng);
  auto& p = kernel.spawn("early");
  const auto addr = kernel.heap_alloc(p, 4096, "buf");
  kernel.mem_write(p, addr, patterns.patterns[0].bytes);  // before attach

  ExposureMonitor monitor(kernel.memory(), patterns);
  kernel.attach_taint(&monitor);
  EXPECT_EQ(monitor.total_copies(), 0u);  // missed the write
  monitor.resync();
  EXPECT_EQ(monitor.total_copies(), 1u);
  EXPECT_TRUE(monitor_equals_sweep(monitor, kernel));
  kernel.attach_taint(nullptr);
}

// resync settles the written frames and the frames of the live copies: a
// copy whose frame was cleared while the monitor was detached (its bit is
// clear again) leaves, a copy written meanwhile joins.
TEST_F(ExposureTest, ResyncDropsCopiesInFramesClearedWhileDetached) {
  sim::Kernel kernel({.mem_bytes = 4ull << 20, .zero_on_free = true});
  util::Rng rng(14);
  const auto patterns = make_patterns(rng);
  ExposureMonitor monitor(kernel.memory(), patterns);
  kernel.attach_taint(&monitor);
  auto& doomed = kernel.spawn("doomed");
  const auto gone_at = kernel.mmap_anon(doomed, sim::kPageSize, false);
  kernel.mem_write(doomed, gone_at, patterns.patterns[0].bytes);
  ASSERT_EQ(monitor.total_copies(), 1u);
  const std::size_t stale = monitor.copies()[0].offset;

  kernel.attach_taint(nullptr);
  auto& late = kernel.spawn("late");
  const auto addr = kernel.heap_alloc(late, 4096, "buf");
  kernel.mem_write(late, addr, patterns.patterns[0].bytes);
  kernel.exit_process(doomed);  // zero_on_free clears the frame
  const auto frames = kernel.memory().written_bitmap();
  const std::size_t f = stale / sim::kPageSize;
  ASSERT_EQ((frames[f / 64] >> (f % 64)) & 1u, 0u);  // cleared, not written
  EXPECT_EQ(monitor.total_copies(), 1u);              // still the stale one

  kernel.attach_taint(&monitor);
  monitor.resync();
  ASSERT_EQ(monitor.total_copies(), 1u);
  EXPECT_NE(monitor.copies()[0].offset, stale);
  EXPECT_TRUE(monitor_equals_sweep(monitor, kernel));
  EXPECT_EQ(monitor.exposure(0).copies_destroyed, 1u);
  kernel.attach_taint(nullptr);
}

TEST_F(ExposureTest, MultiKeyPatternNamesMapToKeyIndices) {
  sim::Kernel kernel({.mem_bytes = 4ull << 20});
  util::Rng rng(13);
  const auto patterns = make_patterns(rng, 3);
  ExposureMonitor monitor(kernel.memory(), patterns);
  kernel.attach_taint(&monitor);
  EXPECT_EQ(monitor.key_count(), 3u);
  EXPECT_EQ(monitor.pattern_key(0), 0u);
  EXPECT_EQ(monitor.pattern_key(2), 2u);

  auto& p = kernel.spawn("victim");
  const auto addr = kernel.heap_alloc(p, 4096, "buf");
  kernel.mem_write(p, addr, patterns.patterns[1].bytes);
  EXPECT_EQ(monitor.copy_count(1), 1u);
  EXPECT_EQ(monitor.copy_count(0), 0u);
  EXPECT_EQ(monitor.copy_count(2), 0u);
  kernel.attach_taint(nullptr);
}

// The satellite equivalence test: an SNI keystore eviction storm with the
// ShadowTaintMap AND the ExposureMonitor both listening through a
// TaintFanout. At every sampled instant: monitor == scanner sweep
// copy-for-copy, and the auditor's cross-check fully covers the same
// scanner hits — three observers, one story.
TEST_F(ExposureTest, EvictionStormMonitorAuditorScannerAgree) {
  const std::size_t n_keys = 6;
  constexpr std::size_t kPool = 2;
  std::vector<crypto::RsaPrivateKey> keys;
  util::Rng keygen(4242);
  for (std::size_t i = 0; i < n_keys; ++i) {
    keys.push_back(crypto::generate_rsa_key(keygen, 512));
  }

  const auto profile =
      core::make_profile(core::ProtectionLevel::kIntegrated, 32ull << 20);
  sim::Kernel kernel(profile.kernel);
  analysis::ShadowTaintMap taint_map(kernel);
  ExposureMonitor monitor(kernel.memory(), scan::KeyPatterns::from_keys(keys));
  sim::TaintFanout fanout;
  fanout.add(&taint_map);
  fanout.add(&monitor);
  kernel.attach_taint(&fanout);

  servers::SniFrontend frontend(kernel, core::sni_config(profile, kPool),
                                util::Rng(31));
  ASSERT_TRUE(frontend.start(keys));

  analysis::TaintAuditor auditor(taint_map);
  scan::KeyScanner scanner(monitor.patterns());
  std::uint64_t evictions = 0;
  for (std::size_t r = 0; r < 18; ++r) {
    ASSERT_TRUE(frontend.handle_request(r % n_keys));
    manual_clock_advance(kNsPerSec);
    if (r % 3 != 2) continue;

    // Monitor vs sweep, copy for copy.
    EXPECT_TRUE(monitor_equals_sweep(monitor, kernel)) << "request " << r;
    // Auditor vs the same scanner hits: every needle image the scanner
    // sees must be secret-tainted in the shadow map.
    const auto matches = scanner.scan_kernel(kernel);
    const auto cross = auditor.cross_check(scanner.patterns(), matches);
    EXPECT_TRUE(cross.all_hits_covered()) << "request " << r;
    EXPECT_EQ(cross.scanner_hits, monitor.total_copies()) << "request " << r;
  }
  evictions = frontend.keystore().stats().evictions;
  EXPECT_GT(evictions, 0u);  // the storm actually stormed
  EXPECT_GT(monitor.event_count(), 0u);

  // Shutdown scrubs the pool; all three observers must converge on zero
  // live plaintext in RAM.
  frontend.stop();
  EXPECT_TRUE(monitor_equals_sweep(monitor, kernel));
  kernel.attach_taint(nullptr);
}

/// A needle set whose patterns carry their key index: `per_key` needles
/// for each of `n_keys` keys, lengths 16..63. Needle 1 of every key is a
/// prefix of needle 0 (two copies at one offset), and key 0's needle 2 has
/// period 8, so periodic runs hold overlapping copies of it.
scan::KeyPatterns keyed_needles(util::Rng& rng, std::size_t n_keys,
                                std::size_t per_key) {
  scan::KeyPatterns p;
  for (std::size_t k = 0; k < n_keys; ++k) {
    for (std::size_t j = 0; j < per_key; ++j) {
      scan::KeyPatterns::Pattern pat;
      pat.name = "n" + std::to_string(j) + "#" + std::to_string(k);
      pat.key = k;
      pat.bytes.resize(16 + rng.next_below(48));
      rng.fill_bytes(pat.bytes);
      if (j == 1) {
        const auto& longer = p.patterns[p.patterns.size() - 1].bytes;
        pat.bytes.assign(longer.begin(), longer.begin() + 16);
      }
      pat.bytes[0] = std::byte{0xA5};  // never a zero-filled false positive
      if (k == 0 && j == 2) {
        for (std::size_t i = 8; i < pat.bytes.size(); ++i) {
          pat.bytes[i] = pat.bytes[i % 8];
        }
      }
      p.patterns.push_back(std::move(pat));
    }
  }
  return p;
}

/// Sits behind the monitor in a TaintFanout and, after every hook, holds
/// it to a fresh sweep: copies() equals scan_capture, each key's live
/// count equals the sweep's, and created - destroyed equals live.
class SweepChecker final : public sim::TaintTracker {
 public:
  SweepChecker(ExposureMonitor& monitor, const sim::Kernel& kernel)
      : monitor_(monitor), kernel_(kernel), scanner_(monitor.patterns()) {
    scanner_.set_shards(1);
  }

  void on_phys_store(std::size_t, std::size_t, sim::TaintTag) override { check(); }
  void on_phys_copy(std::size_t, std::size_t, std::size_t) override { check(); }
  void on_phys_clear(std::size_t, std::size_t) override { check(); }
  void on_swap_store(std::uint32_t, std::size_t) override { check(); }
  void on_swap_load(std::size_t, std::uint32_t) override { check(); }
  void on_swap_clear(std::uint32_t) override { check(); }

  std::size_t hooks = 0;
  std::size_t failures = 0;

 private:
  void check() {
    ++hooks;
    const auto truth = scanner_.scan_capture(kernel_.memory().all());
    const auto& live = monitor_.copies();
    bool ok = live.size() == truth.size();
    std::vector<std::size_t> per_key(monitor_.key_count(), 0);
    for (std::size_t i = 0; ok && i < live.size(); ++i) {
      const auto& name = monitor_.patterns().patterns[live[i].pattern_index].name;
      ok = live[i].offset == truth[i].offset && name == truth[i].part;
      per_key[monitor_.pattern_key(live[i].pattern_index)] += 1;
    }
    for (std::size_t k = 0; ok && k < monitor_.key_count(); ++k) {
      const KeyExposure e = monitor_.exposure(k);
      ok = e.live_copies == per_key[k] &&
           e.copies_created - e.copies_destroyed == e.live_copies;
    }
    if (!ok && failures++ == 0) {
      ADD_FAILURE() << "hook " << hooks << ": monitor holds " << live.size()
                    << " copies, sweep finds " << truth.size();
    }
  }

  ExposureMonitor& monitor_;
  const sim::Kernel& kernel_;
  scan::KeyScanner scanner_;
};

std::uint64_t total(ExposureMonitor& monitor, bool created) {
  std::uint64_t n = 0;
  for (std::size_t k = 0; k < monitor.key_count(); ++k) {
    const auto e = monitor.exposure(k);
    n += created ? e.copies_created : e.copies_destroyed;
  }
  return n;
}

void storm(std::uint64_t seed, std::size_t n_keys, std::size_t per_key) {
  util::Rng rng(seed);
  const auto patterns = keyed_needles(rng, n_keys, per_key);
  sim::Kernel kernel({.mem_bytes = 1ull << 20, .swap_pages = 64});
  ExposureMonitor monitor(kernel.memory(), patterns);
  SweepChecker checker(monitor, kernel);
  sim::TaintFanout fanout;
  fanout.add(&monitor);
  fanout.add(&checker);
  kernel.attach_taint(&fanout);

  constexpr std::size_t kRegion = 4 * sim::kPageSize;
  auto& root = kernel.spawn("root");
  const sim::VirtAddr base = kernel.mmap_anon(root, kRegion, false);
  std::vector<sim::Pid> pids{root.pid()};  // forks map the region too
  std::vector<std::pair<sim::VirtAddr, std::size_t>> planted;
  const auto needle = [&] {
    return patterns.patterns[rng.next_below(patterns.patterns.size())].bytes;
  };
  std::size_t identical_rewrites = 0;
  for (std::size_t step = 0; step < 240; ++step) {
    auto* p = kernel.find_process(pids[rng.next_below(pids.size())]);
    ASSERT_NE(p, nullptr);
    const auto at = [&](std::size_t len) {
      return base + rng.next_below(kRegion - len);
    };
    switch (rng.next_below(8)) {
      case 0: {  // byte-granular: a needle, one byte per write
        const auto n = needle();
        const auto a = at(n.size());
        const std::size_t upto = rng.next_below(2) == 0 ? n.size()
                                                        : 1 + rng.next_below(n.size());
        for (std::size_t i = 0; i < upto; ++i) {
          kernel.mem_write(*p, a + i, std::span(n).subspan(i, 1));
        }
        planted.emplace_back(a, n.size());
        break;
      }
      case 1: {  // adjacent or overlapping copies in one write
        std::vector<std::byte> buf = needle();
        const auto second = needle();
        const std::size_t shift = rng.next_below(buf.size() + 1);
        buf.resize(shift);
        buf.insert(buf.end(), second.begin(), second.end());
        const auto a = at(buf.size());
        kernel.mem_write(*p, a, buf);
        planted.emplace_back(a, buf.size());
        break;
      }
      case 2: {  // periodic run: overlapping copies of key 0's needle 2
        const auto& n = patterns.patterns[2].bytes;
        std::vector<std::byte> run(n.size() + 8 * (1 + rng.next_below(4)));
        for (std::size_t i = 0; i < run.size(); ++i) run[i] = n[i % 8];
        kernel.mem_write(*p, at(run.size()), run);
        break;
      }
      case 3: {  // identical rewrite of a planted copy: changes nothing
        if (planted.empty()) break;
        const auto [a, len] = planted[rng.next_below(planted.size())];
        std::vector<std::byte> same(len);
        kernel.mem_read(*p, a, same);
        kernel.mem_write(*p, a, same);  // may break COW: a new frame's copies
        const auto created = total(monitor, true);
        const auto destroyed = total(monitor, false);
        const std::size_t before = monitor.copies().size();
        kernel.mem_write(*p, a, same);
        EXPECT_EQ(total(monitor, true), created) << "step " << step;
        EXPECT_EQ(total(monitor, false), destroyed) << "step " << step;
        EXPECT_EQ(monitor.copies().size(), before) << "step " << step;
        ++identical_rewrites;
        break;
      }
      case 4: {  // noise over part of the region
        std::vector<std::byte> noise(1 + rng.next_below(256));
        rng.fill_bytes(noise);
        kernel.mem_write(*p, at(noise.size()), noise);
        break;
      }
      case 5:  // fork: COW-shared frames, then a write breaks one
        if (pids.size() < 6) {
          auto& child = kernel.fork(*p, "child");
          pids.push_back(child.pid());
          const auto n = needle();
          kernel.mem_write(child, at(n.size()), n);
        }
        break;
      case 6: {  // swap round trip: out, then a read faults it back in
        kernel.swap_out_pages(*p, 1 + rng.next_below(3));
        std::byte b;
        for (std::size_t off = 0; off < kRegion; off += sim::kPageSize) {
          kernel.mem_read(*p, base + off, {&b, 1});
        }
        break;
      }
      default: {  // a whole needle, possibly on top of others
        const auto n = needle();
        const auto a = at(n.size());
        kernel.mem_write(*p, a, n);
        planted.emplace_back(a, n.size());
        break;
      }
    }
  }
  EXPECT_GT(identical_rewrites, 0u);
  EXPECT_GT(checker.hooks, 500u);
  EXPECT_GT(monitor.swap_in_events(), 0u);
  EXPECT_GT(monitor.total_copies(), 0u);
  EXPECT_EQ(checker.failures, 0u);
  kernel.attach_taint(nullptr);
}

// Every hook the kernel fires is followed by a full sweep of RAM: the
// eagerly settled live set never drifts from it, over a 4-needle set and
// a 16-key set.
TEST_F(ExposureTest, EveryHookEqualsAFreshSweep) {
  storm(2024, 1, 4);
  storm(2025, 16, 4);
}

}  // namespace
}  // namespace keyguard::obs
