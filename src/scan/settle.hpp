// The one rule that keeps a cached match list equal to a full sweep.
//
// A change to bytes [lo, hi) can create or destroy only the matches whose
// FIRST byte lies in [lo - reach, hi), reach = max_needle_len - 1. settle()
// widens each changed run by reach to the left, merges runs that then
// touch, rescans each window with MultiMatcher::scan (seam of reach bytes
// on the right) and splices the fresh matches over the cached ones that
// start in it. DESIGN.md §8 has the exactness argument and its two
// drivers: obs::ExposureMonitor settles eagerly, one run per taint hook;
// KeyScanner::scan_kernel_incremental settles lazily, one run per frame
// the DirtyFrameJournal recorded since the last sweep.
//
// A full sweep is the same rule measured against the all-zero machine the
// simulator boots with: the changed runs are the frames
// sim::PhysicalMemory marked written (written_runs), widen_runs turns
// them into windows, and the engine scans those (sharded_scan_runs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "scan/multi_matcher.hpp"
#include "scan/scan_engine.hpp"

namespace keyguard::scan {

/// settle's window rule: each run of `changed` (ascending) widened by
/// `reach` to the left and clamped to [0, size); a run whose widened
/// start falls inside or right at the end of the previous window extends
/// it. Replaces `windows` with the disjoint, ascending result.
void widen_runs(std::span<const ByteRun> changed, std::size_t reach,
                std::size_t size, std::vector<ByteRun>& windows);

/// The maximal runs of frames whose bit is set in `frames` (bit f % 64 of
/// word f / 64, one frame per `frame_bytes` of a `size`-byte buffer), as
/// ascending byte runs, extracted a word at a time. Every byte outside
/// them is zero, so only matches that reach into them can exist — unless
/// some needle's required bytes are all zero (mm.matches_zeros()); then
/// the one run is the whole buffer.
std::vector<ByteRun> written_runs(std::span<const std::uint64_t> frames,
                                  std::size_t frame_bytes, std::size_t size,
                                  const MultiMatcher& mm);

/// Brings `live` (exact matches of `mm` over `buffer`, (offset, pattern)
/// sorted) up to date after the bytes in `changed` (ascending runs)
/// changed. `gone` / `born`, when non-null, receive the matches that left
/// or joined the set, in order; a rewrite with identical bytes reports
/// neither. `live` is rebuilt only when some window's matches differ.
/// `windows`, when non-null, receives one entry per rescanned window.
/// Returns the bytes rescanned (window payloads, seams excluded).
std::size_t settle(std::span<const std::byte> buffer, const MultiMatcher& mm,
                   std::span<const ByteRun> changed,
                   std::vector<RawMatch>& live,
                   std::vector<RawMatch>* gone = nullptr,
                   std::vector<RawMatch>* born = nullptr,
                   std::vector<ShardStats>* windows = nullptr);

}  // namespace keyguard::scan
