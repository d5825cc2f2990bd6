#include "scan/scan_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scan/multi_matcher.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace keyguard::scan {

namespace {

using Clock = std::chrono::steady_clock;

double millis_since(Clock::time_point t0) {
  // Clamped: steady_clock is monotonic, but a zero-width interval must
  // never turn into a negative duration through double rounding.
  return std::max(
      0.0, std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
}

}  // namespace

double ShardStats::mb_per_sec() const {
  if (millis <= 0.0) return 0.0;  // sub-tick shard: report 0, not inf
  return (static_cast<double>(bytes) / (1024.0 * 1024.0)) / (millis / 1000.0);
}

double ScanStats::mb_per_sec() const {
  if (wall_millis <= 0.0) return 0.0;
  return (static_cast<double>(bytes_scanned) / (1024.0 * 1024.0)) /
         (wall_millis / 1000.0);
}

std::string ScanStats::summary() const {
  constexpr double kMb = 1024.0 * 1024.0;
  char read[48] = "";
  if (bytes_read != bytes_scanned) {
    std::snprintf(read, sizeof(read), " (%.2f MB read)",
                  static_cast<double>(bytes_read) / kMb);
  }
  char depth[32] = "";
  if (skim_depth > 0) std::snprintf(depth, sizeof(depth), ", depth %zu", skim_depth);
  char buf[296];
  std::snprintf(buf, sizeof(buf),
                "%.1f MB%s in %zu shard%s, %zu patterns, %.2f ms, %.1f MB/s "
                "[%s%s%s%s]",
                static_cast<double>(bytes_scanned) / kMb, read,
                shard_count, shard_count == 1 ? "" : "s", pattern_count,
                wall_millis, mb_per_sec(), simd_kind_name(simd_kind), depth,
                incremental ? ", incremental" : "",
                bytes_streamed > 0 ? ", streamed" : "");
  return buf;
}

void ScanStats::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.field("bytes_scanned", static_cast<std::uint64_t>(bytes_scanned));
  w.field("bytes_read", static_cast<std::uint64_t>(bytes_read));
  w.field("match_count", static_cast<std::uint64_t>(match_count));
  w.field("shards", static_cast<std::uint64_t>(shard_count));
  w.field("patterns", static_cast<std::uint64_t>(pattern_count));
  w.field("overlap_bytes", static_cast<std::uint64_t>(overlap_bytes));
  w.field("wall_ms", wall_millis);
  w.field("mb_per_sec", mb_per_sec());
  w.field("simd_kind", simd_kind_name(simd_kind));
  w.field("skim_depth", static_cast<std::uint64_t>(skim_depth));
  w.field("bytes_streamed", static_cast<std::uint64_t>(bytes_streamed));
  w.field("incremental", incremental);
  w.field("dirty_frames", static_cast<std::uint64_t>(dirty_frames));
  w.key("shard_list");
  w.begin_array();
  for (const auto& s : shards) {
    w.begin_object();
    w.field("index", static_cast<std::uint64_t>(s.index));
    w.field("offset", static_cast<std::uint64_t>(s.offset));
    w.field("bytes", static_cast<std::uint64_t>(s.bytes));
    w.field("matches", static_cast<std::uint64_t>(s.matches));
    w.field("wall_ms", s.millis);
    w.field("mb_per_sec", s.mb_per_sec());
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void ScanStats::publish(obs::MetricsRegistry& reg) const {
  reg.counter("scan.scans").add(1);
  reg.counter("scan.bytes").add(bytes_scanned);
  reg.counter("scan.bytes_read").add(bytes_read);
  reg.counter("scan.matches").add(match_count);
  reg.gauge("scan.mb_per_sec").set(mb_per_sec());
  reg.gauge("scan.shards").set(static_cast<double>(shard_count));
  reg.histogram("scan.wall_ms").record(wall_millis);
  reg.gauge("scan.simd_kind").set(static_cast<double>(simd_kind));
  reg.gauge("scan.skim_depth").set(static_cast<double>(skim_depth));
  if (bytes_streamed > 0) {
    reg.counter("scan.bytes_streamed").add(bytes_streamed);
  }
  if (incremental) {
    reg.counter("scan.incremental_scans").add(1);
    reg.gauge("scan.dirty_frames").set(static_cast<double>(dirty_frames));
  }
}

ShardPlan plan_shards(std::size_t total_bytes, std::size_t max_needle_len,
                      std::size_t requested_shards, std::size_t frame_bytes) {
  ShardPlan plan;
  plan.overlap = max_needle_len > 0 ? max_needle_len - 1 : 0;
  if (total_bytes == 0 || requested_shards <= 1) {
    plan.shard_count = 1;
    plan.shard_bytes = total_bytes;
    return plan;
  }
  // Whole-frame pieces: ceil-divide into `requested_shards`, cap at
  // kMaxShardBytes, then round up to frame granularity so frames never
  // straddle a seam.
  const std::size_t raw = std::min(
      kMaxShardBytes, (total_bytes + requested_shards - 1) / requested_shards);
  plan.shard_bytes = ((raw + frame_bytes - 1) / frame_bytes) * frame_bytes;
  // Rounding up can leave trailing pieces empty; clamp the count so every
  // piece owns at least one payload byte.
  plan.shard_count = (total_bytes + plan.shard_bytes - 1) / plan.shard_bytes;
  return plan;
}

std::vector<RawMatch> sharded_scan(std::span<const std::byte> buffer,
                                   std::span<const std::span<const std::byte>> needles,
                                   std::size_t requested_shards,
                                   std::size_t min_prefix_bytes,
                                   ScanStats* stats) {
  const MultiMatcher mm(needles, min_prefix_bytes);
  const ByteRun all{0, buffer.size()};
  return sharded_scan_runs(buffer, buffer.size(), {&all, 1}, mm, requested_shards, stats);
}

std::vector<RawMatch> sharded_scan_runs(std::span<const std::byte> buffer,
                                        std::size_t covered_bytes,
                                        std::span<const ByteRun> runs,
                                        const MultiMatcher& mm,
                                        std::size_t requested_shards,
                                        ScanStats* stats) {
  // Observability gate: the timed walk costs the same with the sinks on
  // or off. Each piece reads the clock twice either way (its ShardStats
  // time); the spans are built from those reads and emitted, and the
  // metrics published, after wall_millis is taken. The ≤5% budget
  // bench_exposure_observatory enforces on a sweep of a few dozen written
  // frames rides on this.
  auto& reg = obs::MetricsRegistry::global();
  auto& tracer = obs::Tracer::global();
  const bool metrics_on = reg.enabled();
  const bool tracing = tracer.enabled();
  ScanStats local_stats;
  if (stats == nullptr && metrics_on) {
    stats = &local_stats;
  }

  const auto t0 = Clock::now();
  // The plan works in payload coordinates: the windows laid end to end,
  // starts[j] being window j's first payload byte.
  std::vector<std::size_t> starts(runs.size() + 1, 0);
  for (std::size_t j = 0; j < runs.size(); ++j) {
    starts[j + 1] = starts[j] + (runs[j].hi - runs[j].lo);
  }
  const std::size_t payload = starts.back();
  const ShardPlan plan = plan_shards(payload, mm.max_needle_len(), requested_shards);
  std::vector<std::vector<RawMatch>> per_shard(plan.shard_count);
  std::vector<Clock::time_point> shard_time(2 * plan.shard_count);  // start, end
  std::vector<std::size_t> shard_offset(plan.shard_count, 0);
  // One body for every count: a one-piece plan or a payload under
  // kMinPoolBytes runs inline on this thread, more pieces of a larger
  // payload are claimed by the pool. A piece scans its part of each window
  // it overlaps, `overlap` bytes past each part's end, clamped at the end
  // of the buffer (which may reach into a stream window's overlap view),
  // and keeps only the hits whose first byte it owns. One MultiMatcher
  // serves every piece: scan() is const over immutable tables, so
  // concurrent pieces read it without locking.
  const auto piece = [&](std::size_t i) {
    shard_time[2 * i] = Clock::now();
    const std::size_t begin = plan.shard_begin(i);
    const std::size_t end = plan.shard_end(i, payload);
    std::size_t j = static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end() - 1, begin) - starts.begin());
    j = j > 0 ? j - 1 : 0;
    if (j < runs.size()) shard_offset[i] = runs[j].lo + (begin - starts[j]);
    for (std::size_t at = begin; at < end; ++j) {
      const std::size_t lo = runs[j].lo + (at - starts[j]);
      const std::size_t hi = runs[j].lo + (std::min(end, starts[j + 1]) - starts[j]);
      mm.scan(buffer, lo, hi, std::min(buffer.size(), hi + plan.overlap), per_shard[i]);
      at = starts[j + 1];
    }
    shard_time[2 * i + 1] = Clock::now();
  };
  if (payload < kMinPoolBytes) {
    for (std::size_t i = 0; i < plan.shard_count; ++i) piece(i);
  } else {
    util::ThreadPool::shared().parallel_for(plan.shard_count, piece);
  }

  // Deterministic merge: pieces are disjoint ascending offset ranges and
  // each piece's list is already (offset, pattern_index)-sorted, so plain
  // concatenation in index order preserves the serial walk's order.
  std::vector<RawMatch> merged;
  std::size_t total = 0;
  for (const auto& s : per_shard) total += s.size();
  merged.reserve(total);
  for (auto& s : per_shard) {
    merged.insert(merged.end(), s.begin(), s.end());
  }
  const double wall_millis = millis_since(t0);
  const auto shard_millis = [&](std::size_t i) {
    return std::max(0.0, std::chrono::duration<double, std::milli>(
                             shard_time[2 * i + 1] - shard_time[2 * i])
                             .count());
  };

  if (stats != nullptr) {
    stats->bytes_scanned = covered_bytes;
    stats->bytes_read = payload;
    stats->match_count = merged.size();
    stats->shard_count = plan.shard_count;
    stats->overlap_bytes = plan.overlap;
    stats->pattern_count = mm.active_needles();
    stats->simd_kind = mm.simd_kind();
    stats->skim_depth = mm.skim_depth();
    stats->bytes_streamed = 0;
    stats->incremental = false;
    stats->dirty_frames = 0;
    stats->shards.clear();
    stats->shards.reserve(plan.shard_count);
    for (std::size_t i = 0; i < plan.shard_count; ++i) {
      stats->shards.push_back({i, shard_offset[i],
                               plan.shard_end(i, payload) - plan.shard_begin(i),
                               per_shard[i].size(), shard_millis(i)});
    }
    stats->wall_millis = wall_millis;
    if (metrics_on) {
      stats->publish(reg);
    }
  }
  // One complete "scan.shard" span per piece, emitted by the caller. The
  // host obs clock is steady_clock, so the piece's own clock reads serve;
  // under the manual clock a span sits at the current instant with no
  // width, as one timed in place would.
  const bool manual = obs::manual_clock_active();
  for (std::size_t i = 0; tracing && i < plan.shard_count; ++i) {
    const auto ns = [](Clock::duration d) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
    };
    obs::TraceEvent ev;
    ev.name = "scan.shard";
    ev.phase = 'X';
    ev.ts_ns = manual ? obs::now_ns() : ns(shard_time[2 * i].time_since_epoch());
    ev.dur_ns = manual ? 0 : ns(shard_time[2 * i + 1] - shard_time[2 * i]);
    ev.args = {obs::TraceAttr::n("shard", static_cast<double>(i)),
               obs::TraceAttr::n("bytes", static_cast<double>(plan.shard_end(i, payload) -
                                                              plan.shard_begin(i))),
               obs::TraceAttr::n("matches", static_cast<double>(per_shard[i].size()))};
    tracer.emit(std::move(ev));
  }
  return merged;
}

}  // namespace keyguard::scan
