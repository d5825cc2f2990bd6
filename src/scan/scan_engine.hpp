// Parallel sharded scan engine.
//
// The paper's scanmemory LKM walks physical memory linearly ("about 5
// seconds for 256 MB"). This engine runs one inner loop, the single-pass
// MultiMatcher (scan/multi_matcher.hpp), in place of the LKM's per-needle
// memchr-then-compare walk, over a run list: ascending, disjoint windows
// of the buffer. A dense scan of a capture is the one-run case; a full
// kernel sweep passes the windows around the frames ever written
// (scan/settle.hpp, written_runs), because every other frame is all zero.
// One plan (plan_shards) cuts the concatenated window payloads into
// pieces of whole 4 KB frames (in payload coordinates): a single piece
// for a serial scan, pieces of at most 1 MiB otherwise. One
// util::ThreadPool::parallel_for runs them, and their results concatenate
// into the exact byte order the serial walk produces.
//
// Correctness at seams: a needle that starts in piece i may continue into
// piece i+1, so every piece scans an overlap window of
// `max_needle_len - 1` extra bytes past its end, and a hit is attributed
// to the piece that contains its FIRST byte. A window's end is a seam of
// the same kind. Each offset is therefore found exactly once, and the
// merged result is byte-for-byte identical to a single-piece scan — the
// equivalence and boundary test batteries in tests/scan_parallel_test.cpp
// and tests/scan_boundary_test.cpp enforce this for every shard count.
#pragma once

#include <algorithm>
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

class MultiMatcher;

/// Bytes [lo, hi) of a scanned buffer: a changed run (settle) or a window
/// the engine reads (sharded_scan_runs).
struct ByteRun {
  std::size_t lo = 0;
  std::size_t hi = 0;  ///< exclusive
};

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

/// Per-piece accounting for one scan: one entry per planned piece (a
/// stream's windows and a delta sweep's rescan windows reuse it).
/// `millis` is the piece's own wall time, so mb_per_sec() reports the
/// piece's scan rate, not the whole scan's elapsed time.
struct ShardStats {
  std::size_t index = 0;    ///< piece number, 0-based
  std::size_t offset = 0;   ///< buffer offset of the first payload byte
  std::size_t bytes = 0;    ///< payload bytes read (overlap window excluded)
  std::size_t matches = 0;  ///< hits attributed to this piece
  double millis = 0.0;      ///< wall time of this piece

  /// Guarded against zero/sub-tick timings: returns 0 instead of inf/nan
  /// when the clock was too coarse to time the shard.
  double mb_per_sec() const;
};

/// Aggregate scan metrics, reported by KeyScanner::scan_kernel /
/// scan_capture / scan_capture_prefix and printed by the benches.
struct ScanStats {
  /// Bytes the scan covers: the payload of a capture scan, all of RAM for
  /// a full kernel sweep (a delta sweep: its rescanned windows).
  std::size_t bytes_scanned = 0;
  /// Window payloads the matcher actually read (seams excluded). Equals
  /// bytes_scanned for dense scans; a kernel sweep reads only the windows
  /// around the written frames.
  std::size_t bytes_read = 0;
  std::size_t match_count = 0;
  std::size_t shard_count = 0;    ///< pieces planned (== shards.size())
  std::size_t overlap_bytes = 0;  ///< per-piece seam window
  std::size_t pattern_count = 0;  ///< needles actually searched
  /// Walk and merge; the engine's clock starts after the matcher compile.
  double wall_millis = 0.0;
  /// Vector ISA the scan ran on: kNone means the bytes went through the
  /// scalar pair-bitmap walk, because the CPU (or the KEYGUARD_SCAN_SIMD
  /// cap) offers no vector level or because the needle set is too dense
  /// for the skim (MultiMatcher::simd_profitable). CI's schema check
  /// reads this field so the downgrade is visible, not just slow.
  SimdKind simd_kind = SimdKind::kNone;
  /// Bytes the skim classified per position (MultiMatcher::skim_depth):
  /// 2 to 4, or 0 on the scalar walk.
  std::size_t skim_depth = 0;
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

  /// bytes_scanned per second of wall time (the covered rate, so a
  /// sparse sweep reads as the RAM it vouches for). Guarded like
  /// ShardStats::mb_per_sec — 0 when wall time measured 0.
  double mb_per_sec() const;
  /// One-line human summary, e.g. "64.0 MB (1.70 MB read) in 4 shards,
  /// 4 patterns, 0.91 ms, 70329.7 MB/s [avx512, depth 2]"; the "read"
  /// part only appears when it differs from the covered bytes, the depth
  /// only when the skim ran.
  std::string summary() const;

  /// Emits the stats as an object *value* (caller supplies the key).
  /// Field names are the schema aliases every consumer already reads —
  /// "bytes_scanned"/"shards"/"patterns"/"wall_ms"/"mb_per_sec" — plus
  /// "bytes_read"/"match_count"/"overlap_bytes" and a per-shard
  /// "shard_list" array.
  void write_json(util::JsonWriter& w) const;

  /// Publishes into a registry: scan.scans / scan.bytes / scan.bytes_read
  /// / scan.matches counters, scan.mb_per_sec / scan.shards /
  /// scan.simd_kind / scan.skim_depth gauges, scan.wall_ms histogram. The
  /// engine calls this automatically when the global registry is enabled.
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

/// Largest piece a multi-shard plan hands to one claim of the pool.
inline constexpr std::size_t kMaxShardBytes = std::size_t{1} << 20;

/// Smallest payload whose pieces go to the pool. Below it the pieces run
/// on the caller, in order: waking the pool costs a round trip (10-20 us
/// on a 4-vCPU VM, EXPERIMENTS "Sparse full sweeps") that a walk of under
/// ~50 us does not earn back, and its timing would hang on when the host
/// schedules the workers. A sparse kernel sweep usually reads less.
inline constexpr std::size_t kMinPoolBytes = std::size_t{256} << 10;

/// How a buffer is split: `shard_count` pieces of `shard_bytes` payload
/// (whole frames, the last piece takes the remainder) with `overlap`
/// extra bytes scanned past each seam.
struct ShardPlan {
  std::size_t shard_count = 1;
  std::size_t shard_bytes = 0;
  std::size_t overlap = 0;

  std::size_t shard_begin(std::size_t i) const { return i * shard_bytes; }
  /// One past piece i's last payload byte, for a plan over `total` bytes.
  std::size_t shard_end(std::size_t i, std::size_t total) const {
    return std::min(total, shard_begin(i) + shard_bytes);
  }
};

/// The one scan plan, over `total_bytes` of payload (a run list's window
/// payloads laid end to end). requested_shards <= 1 gives one piece, the
/// whole payload: the serial walk. n >= 2 gives pieces of
/// min(kMaxShardBytes, ceil(total_bytes / n)) rounded up to whole frames
/// (frame_bytes granularity), so frames never straddle a seam; buffers of
/// up to n MiB get about n pieces, larger ones 1 MiB pieces that the pool
/// balances dynamically. The count is clamped so every piece has at least
/// one payload byte.
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
/// `stats`, when non-null, receives per-piece and aggregate metrics.
///
/// Scheduling: the pieces of plan_shards run in one
/// util::ThreadPool::parallel_for. A one-piece plan runs inline on the
/// caller, a true serial walk and the timing oracle the benches compare
/// against; more pieces are claimed one at a time from the pool's shared
/// counter, so one match-dense piece never bounds wall time. A payload
/// under kMinPoolBytes runs its pieces on the caller. This is
/// sharded_scan_runs over the one run [0, buffer.size()).
std::vector<RawMatch> sharded_scan(std::span<const std::byte> buffer,
                                   std::span<const std::span<const std::byte>> needles,
                                   std::size_t requested_shards,
                                   std::size_t min_prefix_bytes = 0,
                                   ScanStats* stats = nullptr);

/// The engine: scans the windows `runs` of `buffer` (ascending, disjoint,
/// each inside the buffer) with `mm` and returns every hit whose first
/// byte lies in a window, sorted by (offset, pattern_index). Each window
/// reads max_needle_len - 1 seam bytes past its end (clamped to the
/// buffer), so the hits are exactly those a dense scan of the buffer finds
/// in the windows. The plan cuts the window payloads laid end to end
/// (plan_shards), so a piece may span several windows or part of one; one
/// piece runs inline, more run on the pool. `stats` gets one ShardStats
/// per piece, bytes_read = the window payloads, bytes_scanned =
/// `covered_bytes` (the extent the runs stand for). wall_millis times the
/// walk and merge; the caller's matcher compile is outside it.
///
/// A capture-stream window is the one run [0, payload) of a buffer whose
/// bytes past the payload view the NEXT window: a match that starts in
/// the payload and crosses the boundary is found whole, the same rule a
/// piece seam follows, so concatenated window results equal a one-shot
/// scan of the stream (KeyScanner::stream_raw, tests/scan_stream_test.cpp).
std::vector<RawMatch> sharded_scan_runs(std::span<const std::byte> buffer,
                                        std::size_t covered_bytes,
                                        std::span<const ByteRun> runs,
                                        const MultiMatcher& mm,
                                        std::size_t requested_shards,
                                        ScanStats* stats = nullptr);

}  // namespace keyguard::scan
