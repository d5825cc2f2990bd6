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
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "scan/multi_matcher.hpp"
#include "scan/scan_engine.hpp"

namespace keyguard::scan {

/// Changed bytes [lo, hi) of the settled buffer.
struct ByteRun {
  std::size_t lo = 0;
  std::size_t hi = 0;  ///< exclusive
};

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
