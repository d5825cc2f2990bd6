// Reference oracle for the scan engine: the paper's scanmemory inner loop
// (memchr for the first byte, then compare) run once per needle.
//
// Production scans go through scan::MultiMatcher only. This walk is kept
// out of the library, linked by the scan tests and bench_scan_throughput
// alone, so the single-pass matcher (vector skim and scalar walk alike)
// is always held to the simplest loop that could possibly be right.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "scan/scan_engine.hpp"

namespace keyguard::scan {

/// Scans buffer bytes [begin, window_end) once per needle and appends
/// every match whose FIRST byte lies in [begin, end), (offset,
/// pattern_index)-sorted — MultiMatcher::scan's window contract.
/// min_prefix_bytes > 0 selects the LKM's partial path: needles shorter
/// than the minimum are skipped and each prefix hit is extended while the
/// bytes keep agreeing, never past window_end.
void legacy_scan(std::span<const std::byte> buffer, std::size_t begin,
                 std::size_t end, std::size_t window_end,
                 std::span<const std::span<const std::byte>> needles,
                 std::size_t min_prefix_bytes, std::vector<RawMatch>& out);

/// legacy_scan over the whole buffer.
std::vector<RawMatch> legacy_scan(std::span<const std::byte> buffer,
                                  std::span<const std::span<const std::byte>> needles,
                                  std::size_t min_prefix_bytes = 0);

}  // namespace keyguard::scan
