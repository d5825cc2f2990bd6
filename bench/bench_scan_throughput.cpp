// Scan-throughput bench: serial scanmemory walk vs the parallel sharded
// engine, the legacy per-needle oracle vs the MultiMatcher's scalar walk,
// that scalar walk vs the production path (the SIMD candidate skim where
// the CPU has it), full sweeps vs journal-driven incremental sweeps, and
// in-memory vs streamed captures.
//
// The paper's LKM took "about 5 seconds for 256 MB" — a serial linear
// walk over four needles. This bench measures five axes over the same
// machine state:
//   1. shard sweep (1/2/4/8/auto): parallel speedup, byte-identity vs
//      the serial walk;
//   2. needle-count sweep (1/8/64/512): the legacy oracle's
//      O(needles x bytes) vs the MultiMatcher scalar walk's ~one pass,
//      byte-identity between the two;
//   2b. SIMD sweep (same counts): the scalar walk vs the production
//      sharded_scan, which runs the AVX2/AVX-512BW candidate skim — the
//      ratio gate runs only when the hardware has the instructions, the
//      identity gate always does (on scalar machines production IS the
//      scalar walk);
//   3. incremental: full sweeps vs delta sweeps rescanning only the
//      ~0.5% of frames the DirtyFrameJournal recorded;
//   4. streaming: a sparse capture several times the simulated RAM size
//      scanned through CaptureStream in bounded windows — MB/s, a peak-
//      RSS bound of O(window), and byte-identity vs the one-shot scan.
//
// Runs argument-free at 64 MB; --smoke shrinks it for CI,
// KEYGUARD_BENCH_FULL=1 uses the paper's 256 MB, KEYGUARD_BENCH_MEM_MB
// overrides directly. Writes a schema v2 JSON report to BENCH_scan.json
// (--json PATH overrides); tools/check_scan_baseline.py gates CI on the
// machine-independent speedup ratios in it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "scan/capture_stream.hpp"
#include "scan/dirty_journal.hpp"
#include "scan/key_scanner.hpp"
#include "scan/multi_matcher.hpp"
#include "support/legacy_scan.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace kgbench;

namespace {

/// Process high-water resident set in bytes (Linux ru_maxrss is KB).
std::size_t peak_rss_bytes() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

bool same_matches(const std::vector<scan::MemoryMatch>& a,
                  const std::vector<scan::MemoryMatch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].phys_offset != b[i].phys_offset || a[i].part != b[i].part ||
        a[i].state != b[i].state) {
      return false;
    }
  }
  return true;
}

bool same_raw(const std::vector<scan::RawMatch>& a,
              const std::vector<scan::RawMatch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].offset != b[i].offset || a[i].pattern_index != b[i].pattern_index ||
        a[i].matched_bytes != b[i].matched_bytes || a[i].full != b[i].full) {
      return false;
    }
  }
  return true;
}

/// The MultiMatcher's scalar walk over the whole buffer, compile included
/// (sharded_scan compiles per call too, so the columns compare alike).
std::vector<scan::RawMatch> scalar_scan(
    std::span<const std::byte> buffer,
    std::span<const std::span<const std::byte>> needles) {
  std::vector<scan::RawMatch> out;
  scan::MultiMatcher(needles).scan_scalar(buffer, 0, buffer.size(),
                                          buffer.size(), out);
  return out;
}

/// Wall time of fn() in ms; fn's result lands in `out`.
template <class Fn>
double timed_ms(std::vector<scan::RawMatch>& out, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  out = fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke");
  Scale s = scale_from_env();
  if (smoke) {
    s.mem_bytes = std::min<std::size_t>(s.mem_bytes, 32ull << 20);
    s.key_bits = 512;
  }
  const std::string json_path = flags.get("json", "BENCH_scan.json");

  banner("scan throughput: shards x matcher x incremental",
         "scanning the full 256 MB took about 5 seconds (serial LKM walk)", s);

  obs::MetricsRegistry::global().set_enabled(true);
  util::JsonWriter json;
  obs::begin_report(json, "bench_scan_throughput");
  json.field("bench", "scan_throughput")
      .field("smoke", smoke)
      .field("full_scale", s.full)
      .field("mem_mb", static_cast<std::uint64_t>(s.mem_bytes >> 20));

  bool ok = true;

  // ---- phase 1: shard sweep ------------------------------------------------
  // A populated machine: server churn leaves key copies in live heaps,
  // page cache, and unallocated residue, so the scan has real hits.
  auto scenario = make_scenario(core::ProtectionLevel::kNone, s, 260);
  servers::SshServer server(scenario.kernel(), scenario.ssh_config(),
                            scenario.make_rng());
  server.start();
  ssh_churn(server, smoke ? 6 : 12);

  auto& scanner = scenario.scanner();
  scanner.set_shards(1);
  const auto serial_matches = scanner.scan_kernel(scenario.kernel());

  const std::size_t auto_shards = util::ThreadPool::shared().size() + 1;
  std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  if (auto_shards > 8) shard_counts.push_back(auto_shards);

  const int reps = smoke ? 2 : std::max(3, s.perf_reps / 4);
  util::Table table({"shards", "MB/s mean", "MB/s max", "stddev", "speedup",
                     "matches", "identical"});
  double serial_mean = 0.0;
  bool all_identical = true;
  json.key("shard_sweep");
  json.begin_array();
  for (const std::size_t shards : shard_counts) {
    scanner.set_shards(shards);
    util::RunningStats mbps;
    bool identical = true;
    std::size_t match_count = 0;
    scan::ScanStats stats;
    for (int r = 0; r < reps; ++r) {
      const auto matches = scanner.scan_kernel(scenario.kernel(), &stats);
      mbps.add(stats.mb_per_sec());
      match_count = matches.size();
      identical = identical && same_matches(serial_matches, matches);
    }
    if (shards == 1) serial_mean = mbps.mean();
    all_identical = all_identical && identical;
    const double speedup = serial_mean > 0 ? mbps.mean() / serial_mean : 0.0;
    print_scan_stats(("shards=" + std::to_string(shards)).c_str(), stats);
    table.add_row({std::to_string(shards), util::fmt(mbps.mean(), 1),
                   util::fmt(mbps.max(), 1), util::fmt(mbps.stddev(), 1),
                   util::fmt(speedup), std::to_string(match_count),
                   identical ? "yes" : "NO"});
    json.begin_object();
    json.field("shards", static_cast<std::uint64_t>(shards));
    json.field("mb_per_sec", mbps.mean());
    json.field("speedup", speedup);
    json.field("matches", static_cast<std::uint64_t>(match_count));
    json.field("identical", identical);
    json.end_object();
  }
  json.end_array();

  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n", table.render_tsv().c_str());
  std::printf("hardware: %u cores, shared pool %zu workers (+1 caller)\n\n",
              std::thread::hardware_concurrency(),
              util::ThreadPool::shared().size());

  ok &= shape_check(all_identical,
                    "parallel match lists byte-identical to the serial walk "
                    "at every shard count");
  ok &= shape_check(!serial_matches.empty(),
                    "workload left key copies for the scan to find");
  // Parallel speedup is hardware-dependent (a 1-core container cannot beat
  // the serial walk), so it is reported but only checked with the cores
  // to parallelize. Matcher and incremental speedups below are algorithmic
  // ratios and are checked everywhere.
  if (std::thread::hardware_concurrency() >= 4) {
    scanner.set_shards(4);
    scan::ScanStats stats;
    (void)scanner.scan_kernel(scenario.kernel(), &stats);
    ok &= shape_check(stats.mb_per_sec() > serial_mean,
                      "4-shard scan beats the serial walk on this hardware");
  }

  // ---- phase 2: needle-count sweep ----------------------------------------
  // Synthetic buffer + synthetic 32-byte needles so the needle count is a
  // free axis. Serial on both sides: the legacy oracle against the scalar
  // walk, so the ratio is a property of the matchers, not of the
  // machine's core count or vector unit.
  {
    const std::size_t buf_bytes = smoke ? (4ull << 20) : (8ull << 20);
    util::Rng rng(9001);
    std::vector<std::byte> buffer(buf_bytes);
    rng.fill_bytes(buffer);

    const int nreps = smoke ? 2 : 3;
    util::Table ntable({"needles", "legacy ms", "multi ms", "speedup",
                        "matches", "identical"});
    double speedup_at_64 = 0.0;
    bool needle_identical = true;
    json.key("needle_sweep");
    json.begin_array();
    for (const std::size_t count : {1u, 8u, 64u, 512u}) {
      std::vector<std::vector<std::byte>> needles(count);
      std::vector<std::span<const std::byte>> views;
      views.reserve(count);
      for (auto& n : needles) {
        n.resize(32);
        rng.fill_bytes(n);
      }
      for (const auto& n : needles) views.emplace_back(n);
      // Plant ~4 copies of a sample of needles so matches exist.
      for (std::size_t p = 0; p < 4 * std::min<std::size_t>(count, 32); ++p) {
        const auto& n = needles[rng.next_below(count)];
        const std::size_t off = rng.next_below(buffer.size() - n.size());
        std::copy(n.begin(), n.end(), buffer.begin() + off);
      }
      util::RunningStats legacy_ms;
      util::RunningStats multi_ms;
      std::vector<scan::RawMatch> legacy;
      std::vector<scan::RawMatch> multi;
      bool identical = true;
      for (int r = 0; r < nreps; ++r) {
        legacy_ms.add(timed_ms(legacy, [&] { return scan::legacy_scan(buffer, views); }));
        multi_ms.add(timed_ms(multi, [&] { return scalar_scan(buffer, views); }));
        identical = identical && same_raw(legacy, multi);
      }
      needle_identical = needle_identical && identical;
      const double speedup =
          multi_ms.mean() > 0 ? legacy_ms.mean() / multi_ms.mean() : 0.0;
      if (count == 64) speedup_at_64 = speedup;
      ntable.add_row({std::to_string(count), util::fmt(legacy_ms.mean(), 2),
                      util::fmt(multi_ms.mean(), 2), util::fmt(speedup),
                      std::to_string(legacy.size()),
                      identical ? "yes" : "NO"});
      json.begin_object();
      json.field("needles", static_cast<std::uint64_t>(count));
      json.field("legacy_ms", legacy_ms.mean());
      json.field("multi_ms", multi_ms.mean());
      json.field("speedup", speedup);
      json.field("matches", static_cast<std::uint64_t>(legacy.size()));
      json.field("identical", identical);
      json.end_object();
    }
    json.end_array();
    std::printf("needle-count sweep (serial, %zu MB, 32-byte needles):\n%s\n%s\n",
                buf_bytes >> 20, ntable.render().c_str(),
                ntable.render_tsv().c_str());
    ok &= shape_check(needle_identical,
                      "MultiMatcher results byte-identical to the legacy loop "
                      "at every needle count");
    ok &= shape_check(speedup_at_64 >= 4.0,
                      "single-pass matcher >= 4x the legacy loop at 64 needles "
                      "(got " + util::fmt(speedup_at_64) + "x)");
  }

  // ---- phase 2b: SIMD sweep ------------------------------------------------
  // The scalar walk vs the production path (serial sharded_scan, which
  // runs the vector candidate skim), same serial protocol as phase 2 so
  // the ratio is a matcher property. Needle first bytes are drawn from
  // an 8-value alphabet the way real key patterns cluster (DER tag
  // bytes, PEM armor dashes, shared headers) —
  // the regime the shufti classifier targets; the fully random regime that
  // saturates its nibble tables is covered by the dense-guard row below,
  // where the matcher must FALL BACK rather than regress. The identity
  // gate is unconditional; the speedup gate only applies when the hardware
  // has the vector instructions — on scalar machines production IS the
  // scalar walk, so the checker sees simd_kind == "none" and skips the
  // floor.
  {
    const scan::SimdKind hw = scan::simd_available();
    const char* hw_name = scan::simd_kind_name(hw);
    const std::size_t buf_bytes = smoke ? (4ull << 20) : (8ull << 20);
    util::Rng rng(9002);
    std::vector<std::byte> buffer(buf_bytes);
    rng.fill_bytes(buffer);
    const unsigned char alphabet[8] = {0x02, 0x30, 0x82, 0x81,
                                       '-',  'M',  'I',  0x04};

    const int nreps = smoke ? 2 : 3;
    util::Table stable({"needles", "multi ms", "simd ms", "speedup",
                        "matches", "identical"});
    double simd_at_64 = 0.0;
    double simd_at_512 = 0.0;
    bool simd_identical = true;
    json.field("simd_kind", hw_name);
    json.key("simd_sweep");
    json.begin_array();
    for (const std::size_t count : {1u, 8u, 64u, 512u}) {
      std::vector<std::vector<std::byte>> needles(count);
      std::vector<std::span<const std::byte>> views;
      views.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        auto& n = needles[i];
        n.resize(32);
        rng.fill_bytes(n);
        n[0] = static_cast<std::byte>(alphabet[i & 7]);
      }
      for (const auto& n : needles) views.emplace_back(n);
      for (std::size_t p = 0; p < 4 * std::min<std::size_t>(count, 32); ++p) {
        const auto& n = needles[rng.next_below(count)];
        const std::size_t off = rng.next_below(buffer.size() - n.size());
        std::copy(n.begin(), n.end(), buffer.begin() + off);
      }
      util::RunningStats multi_ms;
      util::RunningStats simd_ms;
      std::vector<scan::RawMatch> multi;
      std::vector<scan::RawMatch> simd;
      bool identical = true;
      for (int r = 0; r < nreps; ++r) {
        multi_ms.add(timed_ms(multi, [&] { return scalar_scan(buffer, views); }));
        simd_ms.add(timed_ms(simd, [&] { return scan::sharded_scan(buffer, views, 1); }));
        identical = identical && same_raw(multi, simd);
      }
      simd_identical = simd_identical && identical;
      const double speedup =
          simd_ms.mean() > 0 ? multi_ms.mean() / simd_ms.mean() : 0.0;
      if (count == 64) simd_at_64 = speedup;
      if (count == 512) simd_at_512 = speedup;
      stable.add_row({std::to_string(count), util::fmt(multi_ms.mean(), 2),
                      util::fmt(simd_ms.mean(), 2), util::fmt(speedup),
                      std::to_string(multi.size()),
                      identical ? "yes" : "NO"});
      json.begin_object();
      json.field("needles", static_cast<std::uint64_t>(count));
      json.field("multi_ms", multi_ms.mean());
      json.field("simd_ms", simd_ms.mean());
      json.field("speedup", speedup);
      json.field("simd_kind", hw_name);
      json.field("matches", static_cast<std::uint64_t>(multi.size()));
      json.field("identical", identical);
      json.end_object();
    }
    json.end_array();
    std::printf("SIMD sweep (serial, %zu MB, 32-byte needles, hw=%s):\n%s\n%s\n",
                buf_bytes >> 20, hw_name, stable.render().c_str(),
                stable.render_tsv().c_str());
    ok &= shape_check(simd_identical,
                      "production results byte-identical to the scalar walk "
                      "at every needle count");
    if (hw != scan::SimdKind::kNone) {
      ok &= shape_check(simd_at_64 >= 2.0,
                        "vector stage >= 2x the scalar multi walk at 64 "
                        "needles (got " + util::fmt(simd_at_64) + "x)");
      // At 512 needles the shared verify stage (real two-byte collisions,
      // ~needles/65536 of all positions) dominates BOTH columns; the skim
      // can only delete the per-byte pair loop, so the achievable ratio
      // shrinks as the needle count grows. The floor asserts the skim
      // still pays, not the 64-needle ratio.
      ok &= shape_check(simd_at_512 >= 1.25,
                        "vector stage >= 1.25x the scalar multi walk at 512 "
                        "needles (got " + util::fmt(simd_at_512) + "x)");
    } else {
      std::printf("[skip] no vector unit on this machine: simd speedup "
                  "floors not applied (fallback path verified identical)\n");
    }

    // Dense-set guard: 512 fully random needles saturate the 8-bucket
    // nibble tables (candidate rate approaches every position), so the
    // matcher's build-time density check must disable the skim — the
    // production run then takes the scalar walk (simd_kind "none"),
    // stays bit-identical, and costs ~the same as the scalar walk called
    // directly. The floor protects against re-introducing the regression
    // this check fixed.
    {
      std::vector<std::vector<std::byte>> dense(512);
      std::vector<std::span<const std::byte>> dviews;
      dviews.reserve(dense.size());
      for (auto& n : dense) {
        n.resize(32);
        rng.fill_bytes(n);
      }
      for (const auto& n : dense) dviews.emplace_back(n);
      for (std::size_t p = 0; p < 128; ++p) {
        const auto& n = dense[rng.next_below(dense.size())];
        const std::size_t off = rng.next_below(buffer.size() - n.size());
        std::copy(n.begin(), n.end(), buffer.begin() + off);
      }
      util::RunningStats multi_ms;
      util::RunningStats simd_ms;
      std::vector<scan::RawMatch> multi;
      std::vector<scan::RawMatch> simd;
      scan::ScanStats vs;
      for (int r = 0; r < nreps; ++r) {
        multi_ms.add(timed_ms(multi, [&] { return scalar_scan(buffer, dviews); }));
        simd_ms.add(timed_ms(simd, [&] {
          return scan::sharded_scan(buffer, dviews, 1, 0, &vs);
        }));
      }
      const bool identical = same_raw(multi, simd);
      const double speedup =
          simd_ms.mean() > 0 ? multi_ms.mean() / simd_ms.mean() : 0.0;
      std::printf("dense guard (512 random needles): scalar %.2f ms vs "
                  "production %.2f ms (%.2fx), simd_kind=%s, %s\n\n",
                  multi_ms.mean(), simd_ms.mean(), speedup,
                  scan::simd_kind_name(vs.simd_kind),
                  identical ? "identical" : "DIVERGED");
      json.key("simd_dense_guard");
      json.begin_object();
      json.field("needles", std::uint64_t{512});
      json.field("multi_ms", multi_ms.mean());
      json.field("simd_ms", simd_ms.mean());
      json.field("speedup", speedup);
      json.field("simd_kind", scan::simd_kind_name(vs.simd_kind));
      json.field("identical", identical);
      json.end_object();
      ok &= shape_check(identical,
                        "dense-set production run byte-identical to the "
                        "scalar walk");
      ok &= shape_check(vs.simd_kind == scan::SimdKind::kNone,
                        "dense needle set visibly downgraded to the scalar "
                        "walk (simd_kind none)");
      ok &= shape_check(speedup >= 0.75,
                        "dense-set fallback costs ~nothing vs the scalar walk (got " +
                            util::fmt(speedup) + "x)");
    }
  }

  // ---- phase 3: incremental sweeps ----------------------------------------
  // Journal-driven delta sweeps against full sweeps of the same kernel:
  // each round dirties ~0.5% of frames through ordinary kernel writes,
  // then both sweep flavours run and must agree exactly.
  {
    auto& kernel = scenario.kernel();
    scan::DirtyFrameJournal journal(kernel.memory().all().size());
    kernel.attach_taint(&journal);
    scanner.set_shards(0);  // auto: the production configuration

    scan::SweepCache cache;
    scanner.scan_kernel_incremental(kernel, journal, cache);  // prime

    auto& churner = kernel.spawn("churner");
    const std::size_t total_frames = journal.frame_count();
    const std::size_t dirty_target = std::max<std::size_t>(1, total_frames / 200);
    const sim::VirtAddr span_addr =
        kernel.mmap_anon(churner, dirty_target * sim::kPageSize, false);

    util::Rng rng(1234);
    util::RunningStats full_ms;
    util::RunningStats incr_ms;
    util::RunningStats dirty_frames;
    bool incr_identical = true;
    const int irounds = smoke ? 3 : 5;
    for (int round = 0; round < irounds; ++round) {
      std::vector<std::byte> noise(64);
      for (std::size_t f = 0; f < dirty_target; ++f) {
        rng.fill_bytes(noise);
        kernel.mem_write(churner, span_addr + f * sim::kPageSize +
                                      rng.next_below(sim::kPageSize - noise.size()),
                         noise);
      }
      scan::ScanStats istats;
      const auto incr =
          scanner.scan_kernel_incremental(kernel, journal, cache, &istats);
      incr_ms.add(istats.wall_millis);
      dirty_frames.add(static_cast<double>(istats.dirty_frames));
      scan::ScanStats fstats;
      const auto full = scanner.scan_kernel(kernel, &fstats);
      full_ms.add(fstats.wall_millis);
      incr_identical = incr_identical && same_matches(incr, full);
      print_scan_stats(("incremental round " + std::to_string(round)).c_str(),
                       istats);
    }
    const double incr_speedup =
        incr_ms.mean() > 0 ? full_ms.mean() / incr_ms.mean() : 0.0;
    const double dirty_fraction =
        dirty_frames.mean() / static_cast<double>(total_frames);
    std::printf("\nincremental: full %.2f ms vs delta %.2f ms (%.1fx) at "
                "%.2f%% dirty frames\n\n",
                full_ms.mean(), incr_ms.mean(), incr_speedup,
                100.0 * dirty_fraction);
    json.key("incremental");
    json.begin_object();
    json.field("full_ms", full_ms.mean());
    json.field("incremental_ms", incr_ms.mean());
    json.field("speedup", incr_speedup);
    json.field("dirty_frames", dirty_frames.mean());
    json.field("dirty_fraction", dirty_fraction);
    json.field("identical", incr_identical);
    json.end_object();
    ok &= shape_check(incr_identical,
                      "incremental sweeps byte-identical to fresh full sweeps "
                      "every round");
    ok &= shape_check(incr_speedup >= 10.0,
                      "delta sweep >= 10x a full sweep at <= 1% dirty frames "
                      "(got " + util::fmt(incr_speedup) + "x)");
    kernel.attach_taint(nullptr);
  }

  // ---- phase 4: streaming capture ------------------------------------------
  // A capture 4x the simulated RAM, scanned through CaptureStream in
  // bounded windows by the production matcher. Three gates: the
  // streamed match list is byte-identical to a one-shot scan of the whole
  // file, the capture really is >= 4x the RAM the shard sweep ran over,
  // and the streaming walk's peak-RSS delta stays O(window) — measured
  // BEFORE the one-shot oracle loads the file whole, so the oracle's
  // allocation cannot mask an RSS leak in the stream. The capture file is
  // written sparse (plants + one tail byte), so disk use stays small even
  // when the logical size is multi-GB.
  {
    const std::size_t window_bytes = smoke ? (16ull << 20) : (64ull << 20);
    const std::size_t capture_bytes = 4 * s.mem_bytes;
    const std::size_t seams = capture_bytes / window_bytes;

    // 64 synthetic 32-byte needles with the structured first-byte alphabet
    // from the SIMD sweep, so the vector candidate stage is actually
    // engaged while streaming.
    util::Rng rng(4242);
    const unsigned char alphabet[8] = {0x02, 0x30, 0x82, 0x81,
                                       '-',  'M',  'I',  0x04};
    std::vector<std::vector<std::byte>> needles(64);
    std::vector<std::span<const std::byte>> views;
    views.reserve(needles.size());
    for (std::size_t i = 0; i < needles.size(); ++i) {
      auto& n = needles[i];
      n.resize(32);
      rng.fill_bytes(n);
      n[0] = static_cast<std::byte>(alphabet[i & 7]);
    }
    for (const auto& n : needles) views.emplace_back(n);
    const std::size_t max_len = 32;

    const std::string cap_path = json_path + ".capture.tmp";
    bool wrote = false;
    if (std::FILE* f = std::fopen(cap_path.c_str(), "wb")) {
      wrote = true;
      const auto plant = [&](std::size_t off) {
        const auto& n = needles[rng.next_below(needles.size())];
        if (off + n.size() > capture_bytes) return;
        std::fseek(f, static_cast<long>(off), SEEK_SET);
        std::fwrite(n.data(), 1, n.size(), f);
      };
      for (std::size_t b = 1; b < seams; ++b) {
        const std::size_t boundary = b * window_bytes;
        plant(boundary - max_len);      // ends exactly at the seam
        plant(boundary - max_len / 2);  // straddles the seam
      }
      for (int p = 0; p < 64; ++p) {
        plant(rng.next_below(capture_bytes - max_len));
      }
      // One tail byte pins the logical size without materializing blocks.
      std::fseek(f, static_cast<long>(capture_bytes - 1), SEEK_SET);
      const char zero = 0;
      std::fwrite(&zero, 1, 1, f);
      std::fclose(f);
    }
    ok &= shape_check(wrote, "streaming phase could create the capture file");

    std::vector<scan::RawMatch> streamed;
    std::size_t windows = 0;
    std::size_t bytes_streamed = 0;
    bool stream_ok = false;
    bool mapped = false;
    double wall_ms = 0.0;
    const std::size_t rss_before = peak_rss_bytes();
    {
      scan::CaptureStream stream(cap_path, window_bytes);
      stream_ok = stream.ok();
      mapped = stream.mapped();
      stream.rewind(max_len - 1);
      const auto t0 = std::chrono::steady_clock::now();
      while (auto w = stream.next()) {
        auto part = scan::sharded_scan_window(w->bytes, w->payload, views, 1);
        for (auto& r : part) r.offset += w->offset;
        streamed.insert(streamed.end(), part.begin(), part.end());
        bytes_streamed += w->payload;
        ++windows;
      }
      const auto t1 = std::chrono::steady_clock::now();
      wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      stream_ok = stream_ok && stream.ok();
    }
    const std::size_t rss_after = peak_rss_bytes();
    const std::size_t rss_delta = rss_after - rss_before;
    const std::size_t rss_limit = 3 * window_bytes + (32ull << 20);
    const bool rss_bounded = rss_delta <= rss_limit;
    const double mbps = wall_ms > 0
        ? (static_cast<double>(capture_bytes) / (1024.0 * 1024.0)) /
              (wall_ms / 1000.0)
        : 0.0;
    const double capture_ratio =
        static_cast<double>(capture_bytes) / static_cast<double>(s.mem_bytes);

    // One-shot oracle: only now load the file whole.
    std::vector<std::byte> whole(capture_bytes);
    bool read_back = false;
    if (std::FILE* f = std::fopen(cap_path.c_str(), "rb")) {
      read_back =
          std::fread(whole.data(), 1, whole.size(), f) == whole.size();
      std::fclose(f);
    }
    const auto oneshot = scalar_scan(whole, views);
    const bool identical = read_back && same_raw(oneshot, streamed);
    std::remove(cap_path.c_str());

    std::printf("streaming: %zu MB capture (%.1fx sim RAM) in %zu x %zu MB "
                "windows [%s]: %.1f MB/s, %zu matches, peak-RSS delta "
                "%zu MB (limit %zu MB)%s\n\n",
                capture_bytes >> 20, capture_ratio, windows,
                window_bytes >> 20, mapped ? "mmap" : "read", mbps,
                streamed.size(), rss_delta >> 20, rss_limit >> 20,
                rss_bounded ? "" : " RSS NOT BOUNDED");
    json.key("streaming");
    json.begin_object();
    json.field("capture_bytes", static_cast<std::uint64_t>(capture_bytes));
    json.field("bytes_streamed", static_cast<std::uint64_t>(bytes_streamed));
    json.field("mem_bytes", static_cast<std::uint64_t>(s.mem_bytes));
    json.field("capture_ratio", capture_ratio);
    json.field("window_bytes", static_cast<std::uint64_t>(window_bytes));
    json.field("windows", static_cast<std::uint64_t>(windows));
    json.field("mb_per_sec", mbps);
    json.field("rss_delta_bytes", static_cast<std::uint64_t>(rss_delta));
    json.field("rss_limit_bytes", static_cast<std::uint64_t>(rss_limit));
    json.field("rss_bounded", rss_bounded);
    json.field("mapped", mapped);
    json.field("simd_kind", scan::simd_kind_name(scan::simd_available()));
    json.field("matches", static_cast<std::uint64_t>(streamed.size()));
    json.field("identical", identical);
    json.end_object();
    ok &= shape_check(stream_ok, "capture stream walked cleanly");
    ok &= shape_check(!streamed.empty(),
                      "seam plants produced streamed matches");
    ok &= shape_check(identical,
                      "streamed windows byte-identical to the one-shot scan "
                      "of the whole capture");
    ok &= shape_check(capture_ratio >= 4.0,
                      "capture >= 4x the simulated RAM size (got " +
                          util::fmt(capture_ratio) + "x)");
    ok &= shape_check(rss_bounded,
                      "streaming peak-RSS delta bounded by ~3 windows (" +
                          std::to_string(rss_delta >> 20) + " MB vs limit " +
                          std::to_string(rss_limit >> 20) + " MB)");
  }

  json.field("shape_checks_ok", ok);
  obs::write_metrics_field(json, obs::MetricsRegistry::global());
  json.end_object();
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fwrite(json.str().data(), 1, json.str().size(), f);
    std::fclose(f);
    std::printf("JSON written to %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
