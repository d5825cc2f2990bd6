// Parallel sharded scan engine.
//
// The paper's scanmemory LKM walks physical memory linearly ("about 5
// seconds for 256 MB"). This engine runs one inner loop, the single-pass
// MultiMatcher (scan/multi_matcher.hpp), in place of the LKM's per-needle
// memchr-then-compare walk, splits the buffer into per-thread shards of
// whole 4 KB frames, scans the shards concurrently over util::ThreadPool,
// and merges per-shard results into the exact byte order the serial walk
// produces.
//
// Correctness at shard seams: a needle that starts in shard i may continue
// into shard i+1, so every shard scans an overlap window of
// `max_needle_len - 1` extra bytes past its end, and a hit is attributed
// to the shard that contains its FIRST byte. Each offset is therefore
// found exactly once, and the merged result is byte-for-byte identical to
// a single-shard scan — the equivalence and boundary test batteries in
// tests/scan_parallel_test.cpp and tests/scan_boundary_test.cpp enforce
// this for every shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace keyguard::util {
class JsonWriter;
}
namespace keyguard::obs {
class MetricsRegistry;
}

namespace keyguard::scan {

/// Which vector ISA the MultiMatcher's candidate skim runs on. Detected
/// once at startup via CPUID; KEYGUARD_SCAN_SIMD=none|avx2 caps (never
/// raises) the level so the scalar walk and the 32-byte kernel are
/// testable on AVX-512 hardware.
enum class SimdKind : std::uint8_t {
  kNone = 0,  ///< no usable vector ISA — scans run the scalar walk
  kAvx2,      ///< 32 positions per iteration
  kAvx512,    ///< 64 positions per iteration (AVX-512F + AVX-512BW)
};

/// "none" / "avx2" / "avx512" — ScanStats::simd_kind's JSON spelling.
const char* simd_kind_name(SimdKind k) noexcept;

/// The vector level scans will actually use (CPUID ∧ KEYGUARD_SCAN_SIMD
/// cap), computed once and cached.
SimdKind simd_available() noexcept;

/// Per-shard accounting for one scan. With the chunked scheduler a
/// shard's frames may be scanned by several threads; `millis` is the sum
/// of its chunks' wall times (CPU-time-like), so mb_per_sec() reports
/// per-shard scan cost rather than elapsed wall time.
struct ShardStats {
  std::size_t index = 0;    ///< shard number, 0-based
  std::size_t offset = 0;   ///< first payload byte
  std::size_t bytes = 0;    ///< payload bytes (overlap window excluded)
  std::size_t matches = 0;  ///< hits attributed to this shard
  double millis = 0.0;      ///< summed chunk wall time of this shard

  /// Guarded against zero/sub-tick timings: returns 0 instead of inf/nan
  /// when the clock was too coarse to time the shard.
  double mb_per_sec() const;
};

/// Aggregate scan metrics, reported by KeyScanner::scan_kernel /
/// scan_capture / scan_capture_prefix and printed by the benches.
struct ScanStats {
  std::size_t bytes_scanned = 0;  ///< payload bytes == buffer size
  std::size_t match_count = 0;
  std::size_t shard_count = 0;
  std::size_t overlap_bytes = 0;  ///< per-shard seam window
  std::size_t pattern_count = 0;  ///< needles actually searched
  double wall_millis = 0.0;       ///< end-to-end, including the merge
  /// Vector ISA the scan ran on: kNone means the bytes went through the
  /// scalar pair-bitmap walk, because the CPU (or the KEYGUARD_SCAN_SIMD
  /// cap) offers no vector level or because the needle set is too dense
  /// for the skim (MultiMatcher::simd_profitable). CI's schema check
  /// reads this field so the downgrade is visible, not just slow.
  SimdKind simd_kind = SimdKind::kNone;
  /// Capture bytes walked by a streaming scan (CaptureStream): the file
  /// size, while bytes_scanned stays the payload actually matched. 0 for
  /// in-memory scans.
  std::size_t bytes_streamed = 0;
  /// Delta sweep (KeyScanner::scan_kernel_incremental): bytes_scanned is
  /// the rescanned window total, shards lists the rescan windows, and
  /// dirty_frames counts the frames the journal reported.
  bool incremental = false;
  std::size_t dirty_frames = 0;
  std::vector<ShardStats> shards;

  /// Guarded like ShardStats::mb_per_sec — 0 when wall time measured 0.
  double mb_per_sec() const;
  /// One-line human summary, e.g.
  /// "64.0 MB in 4 shards, 4 patterns, 31.2 ms, 2051.3 MB/s [avx512]".
  std::string summary() const;

  /// Emits the stats as an object *value* (caller supplies the key).
  /// Field names are the schema aliases every consumer already reads —
  /// "bytes_scanned"/"shards"/"patterns"/"wall_ms"/"mb_per_sec" — plus
  /// "match_count"/"overlap_bytes" and a per-shard "shard_list" array.
  void write_json(util::JsonWriter& w) const;

  /// Publishes into a registry: scan.scans / scan.bytes / scan.matches
  /// counters, scan.mb_per_sec / scan.shards gauges, scan.wall_ms
  /// histogram. sharded_scan calls this automatically when the global
  /// registry is enabled.
  void publish(obs::MetricsRegistry& reg) const;
};

/// A raw engine hit: which needle matched where. The KeyScanner layers
/// pattern names, frame metadata, and provenance on top.
struct RawMatch {
  std::size_t offset = 0;
  std::size_t pattern_index = 0;
  std::size_t matched_bytes = 0;  ///< == needle size unless prefix mode
  bool full = true;
};

/// How a buffer is split: `shard_count` shards of `shard_bytes` payload
/// (whole frames, last shard takes the remainder) with `overlap` extra
/// bytes scanned past each seam.
struct ShardPlan {
  std::size_t shard_count = 1;
  std::size_t shard_bytes = 0;
  std::size_t overlap = 0;

  std::size_t shard_begin(std::size_t i) const { return i * shard_bytes; }
};

/// Computes the plan for `total_bytes` split `requested_shards` ways.
/// Shard payloads are rounded up to whole frames (frame_bytes granularity)
/// so frames never straddle a seam; the count is clamped so every shard
/// has at least one payload byte. requested_shards == 0 means one shard.
ShardPlan plan_shards(std::size_t total_bytes, std::size_t max_needle_len,
                      std::size_t requested_shards,
                      std::size_t frame_bytes = 4096);

/// Scans `buffer` for every needle across `requested_shards` concurrent
/// shards and returns all hits sorted by (offset, pattern_index) — the
/// serial walk's order, with the needle list order breaking offset ties.
///
/// min_prefix_bytes == 0: exact whole-needle matches (RawMatch::full true,
/// matched_bytes == needle size). min_prefix_bytes > 0: the LKM's partial
/// path — needles shorter than the minimum are skipped, each hit of the
/// first min_prefix_bytes is extended while bytes keep agreeing, and
/// `full` flags complete matches.
///
/// `stats`, when non-null, receives per-shard and aggregate metrics.
///
/// Scheduling: when more than one shard is requested, each shard's frames
/// are split into ~1 MiB chunks claimed dynamically from the thread
/// pool's shared counter, so one match-dense shard no longer bounds wall
/// time (the chunks of a slow shard are stolen by idle workers). A
/// single-shard request stays a true serial walk — the timing oracle the
/// benches compare against.
std::vector<RawMatch> sharded_scan(std::span<const std::byte> buffer,
                                   std::span<const std::span<const std::byte>> needles,
                                   std::size_t requested_shards,
                                   std::size_t min_prefix_bytes = 0,
                                   ScanStats* stats = nullptr);

/// sharded_scan over a window of a larger stream: only the first
/// `payload_bytes` of `buffer` are payload (shards are planned over them
/// and every reported first byte lies inside them); the bytes past the
/// payload are the seam-overlap view into the NEXT window, scanned so a
/// match that starts in this payload and continues across the boundary is
/// still found whole — the same rule a shard seam follows, which is what
/// makes concatenated window results bit-identical to a one-shot scan of
/// the stream (tests/scan_stream_test.cpp). Offsets are buffer-local; the
/// caller rebases them. payload_bytes is clamped to buffer.size(), and
/// sharded_scan is exactly this call with payload_bytes == buffer.size().
std::vector<RawMatch> sharded_scan_window(std::span<const std::byte> buffer,
                                          std::size_t payload_bytes,
                                          std::span<const std::span<const std::byte>> needles,
                                          std::size_t requested_shards,
                                          std::size_t min_prefix_bytes = 0,
                                          ScanStats* stats = nullptr);

}  // namespace keyguard::scan
