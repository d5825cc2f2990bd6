#include "scan/scan_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

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
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "%.1f MB in %zu shard%s, %zu patterns, %.2f ms, %.1f MB/s "
                "[%s%s%s]",
                static_cast<double>(bytes_scanned) / (1024.0 * 1024.0),
                shard_count, shard_count == 1 ? "" : "s", pattern_count,
                wall_millis, mb_per_sec(), simd_kind_name(simd_kind),
                incremental ? ", incremental" : "",
                bytes_streamed > 0 ? ", streamed" : "");
  return buf;
}

void ScanStats::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.field("bytes_scanned", static_cast<std::uint64_t>(bytes_scanned));
  w.field("match_count", static_cast<std::uint64_t>(match_count));
  w.field("shards", static_cast<std::uint64_t>(shard_count));
  w.field("patterns", static_cast<std::uint64_t>(pattern_count));
  w.field("overlap_bytes", static_cast<std::uint64_t>(overlap_bytes));
  w.field("wall_ms", wall_millis);
  w.field("mb_per_sec", mb_per_sec());
  w.field("simd_kind", simd_kind_name(simd_kind));
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
  reg.counter("scan.matches").add(match_count);
  reg.gauge("scan.mb_per_sec").set(mb_per_sec());
  reg.gauge("scan.shards").set(static_cast<double>(shard_count));
  reg.histogram("scan.wall_ms").record(wall_millis);
  reg.gauge("scan.simd_kind").set(static_cast<double>(simd_kind));
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
  // Whole-frame shards: ceil-divide into `requested_shards`, then round the
  // shard size up to frame granularity so frames never straddle a seam.
  const std::size_t raw = (total_bytes + requested_shards - 1) / requested_shards;
  plan.shard_bytes = ((raw + frame_bytes - 1) / frame_bytes) * frame_bytes;
  if (plan.shard_bytes == 0) plan.shard_bytes = frame_bytes;
  // Rounding up can leave trailing shards empty; clamp the count so every
  // shard owns at least one payload byte.
  plan.shard_count = (total_bytes + plan.shard_bytes - 1) / plan.shard_bytes;
  return plan;
}

std::vector<RawMatch> sharded_scan(std::span<const std::byte> buffer,
                                   std::span<const std::span<const std::byte>> needles,
                                   std::size_t requested_shards,
                                   std::size_t min_prefix_bytes,
                                   ScanStats* stats) {
  return sharded_scan_window(buffer, buffer.size(), needles, requested_shards,
                             min_prefix_bytes, stats);
}

std::vector<RawMatch> sharded_scan_window(std::span<const std::byte> buffer,
                                          std::size_t payload_bytes,
                                          std::span<const std::span<const std::byte>> needles,
                                          std::size_t requested_shards,
                                          std::size_t min_prefix_bytes,
                                          ScanStats* stats) {
  const std::size_t payload = std::min(payload_bytes, buffer.size());
  // Observability gate: when both sinks are off this whole scan pays two
  // relaxed atomic loads — the ≤5% budget bench_exposure_observatory
  // enforces against bench_scan_throughput rides on this being cheap.
  auto& reg = obs::MetricsRegistry::global();
  auto& tracer = obs::Tracer::global();
  const bool metrics_on = reg.enabled();
  ScanStats local_stats;
  if (stats == nullptr && metrics_on) {
    stats = &local_stats;
  }

  const auto t0 = Clock::now();
  // One dispatch table shared by every chunk: MultiMatcher::scan is const
  // over immutable state, so concurrent chunks read it without locking.
  const MultiMatcher mm(needles, min_prefix_bytes);

  const ShardPlan plan = plan_shards(payload, mm.max_needle_len(), requested_shards);
  std::vector<std::vector<RawMatch>> per_shard(plan.shard_count);
  std::vector<double> shard_millis(plan.shard_count, 0.0);

  if (plan.shard_count == 1) {
    // Serial oracle: one thread, one window, no chunking — the reference
    // both the equivalence tests and the bench speedup columns compare to.
    // The window extends past the payload into the stream-overlap view
    // (when the caller supplied one) so boundary-straddling matches
    // complete, clamped at the true end of the buffer.
    obs::Tracer::Span span(tracer, "scan.shard");  // inert when disabled
    const auto ts = Clock::now();
    mm.scan(buffer, 0, payload, std::min(buffer.size(), payload + plan.overlap),
            per_shard[0]);
    shard_millis[0] = millis_since(ts);
    if (span.live()) {
      span.add(obs::TraceAttr::n("shard", 0.0));
      span.add(obs::TraceAttr::n("bytes", static_cast<double>(payload)));
      span.add(obs::TraceAttr::n("matches",
                                 static_cast<double>(per_shard[0].size())));
    }
  } else {
    // Work-stealing chunks: split every shard's payload into ~1 MiB runs of
    // whole frames and let pool workers claim them from a shared counter,
    // so one match-dense shard is spread across idle threads instead of
    // bounding wall time. Chunks inherit the shard seam rule — each scans
    // `overlap` bytes past its end and keeps only first-byte-inside hits —
    // so the reduction below is byte-identical to unchunked shards.
    constexpr std::size_t kChunkBytes = 1u << 20;
    struct Chunk {
      std::size_t shard;
      std::size_t begin;
      std::size_t end;
    };
    std::vector<Chunk> chunks;
    for (std::size_t i = 0; i < plan.shard_count; ++i) {
      const std::size_t begin = plan.shard_begin(i);
      const std::size_t end = std::min(payload, begin + plan.shard_bytes);
      for (std::size_t cb = begin; cb < end; cb += kChunkBytes) {
        chunks.push_back({i, cb, std::min(end, cb + kChunkBytes)});
      }
    }
    std::vector<std::vector<RawMatch>> per_chunk(chunks.size());
    std::vector<double> chunk_millis(chunks.size(), 0.0);
    util::ThreadPool::shared().parallel_for(chunks.size(), [&](std::size_t ci) {
      obs::Tracer::Span span(tracer, "scan.chunk");  // inert when disabled
      const auto ts = Clock::now();
      const Chunk& c = chunks[ci];
      const std::size_t window_end = std::min(buffer.size(), c.end + plan.overlap);
      mm.scan(buffer, c.begin, c.end, window_end, per_chunk[ci]);
      chunk_millis[ci] = millis_since(ts);
      if (span.live()) {
        span.add(obs::TraceAttr::n("shard", static_cast<double>(c.shard)));
        span.add(obs::TraceAttr::n("bytes", static_cast<double>(c.end - c.begin)));
        span.add(obs::TraceAttr::n("matches",
                                   static_cast<double>(per_chunk[ci].size())));
      }
    });
    // Reduce chunks into shards after the join (single-threaded, no races).
    // Chunks were emitted shard-by-shard in ascending offset order and each
    // chunk's list is already sorted, so appending in index order rebuilds
    // exactly the per-shard lists the unchunked scan would produce.
    for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
      auto& dst = per_shard[chunks[ci].shard];
      dst.insert(dst.end(), per_chunk[ci].begin(), per_chunk[ci].end());
      shard_millis[chunks[ci].shard] += chunk_millis[ci];
    }
  }

  // Deterministic merge: shards are disjoint ascending offset ranges and
  // each shard's list is already (offset, pattern_index)-sorted, so plain
  // concatenation preserves the serial walk's order.
  std::vector<RawMatch> merged;
  std::size_t total = 0;
  for (const auto& s : per_shard) total += s.size();
  merged.reserve(total);
  for (auto& s : per_shard) {
    merged.insert(merged.end(), s.begin(), s.end());
  }

  if (stats != nullptr) {
    stats->bytes_scanned = payload;
    stats->match_count = merged.size();
    stats->shard_count = plan.shard_count;
    stats->overlap_bytes = plan.overlap;
    stats->pattern_count = mm.active_needles();
    stats->simd_kind = mm.simd_kind();
    stats->bytes_streamed = 0;
    stats->incremental = false;
    stats->dirty_frames = 0;
    stats->shards.clear();
    stats->shards.reserve(plan.shard_count);
    for (std::size_t i = 0; i < plan.shard_count; ++i) {
      const std::size_t begin = plan.shard_begin(i);
      const std::size_t end =
          std::min(payload,
                   begin + (plan.shard_count == 1 ? payload : plan.shard_bytes));
      stats->shards.push_back(
          {i, begin, end - begin, per_shard[i].size(), shard_millis[i]});
    }
    stats->wall_millis = millis_since(t0);
    if (metrics_on) {
      stats->publish(reg);
    }
  }
  return merged;
}

}  // namespace keyguard::scan
