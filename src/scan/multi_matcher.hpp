// Single-pass multi-pattern matcher.
//
// The paper's LKM runs its memchr-then-memcmp loop once per needle, so a
// sweep over P patterns costs O(P × bytes) — ruinous for the
// multi-tenant workloads PR 3 made common (1000 vhosts = 4000 needles).
// This matcher walks the buffer ONCE: a 65536-bit two-byte-prefix bitmap
// rejects almost every position with one predictable branch (P needles
// occupy ~P of 65536 pairs, so the skip branch is taken >99% of the time
// and predicts near-perfectly — a one-byte starter table mispredicts
// ~P/256 of the time, which dominates the walk), a 256-entry first-byte
// dispatch table maps survivors to the bucket of needles starting with
// that byte (a binary search then narrows to the run sharing the actual
// SECOND byte, so huge buckets cost log, not linear, time per candidate),
// an 8-byte SWAR prefix filter ((load ^ prefix) & mask, built
// with memcpy so it is endian-neutral) rejects accidental pair hits in
// one compare, and only survivors of THAT pay a memcmp of the tail. Cost
// is ~one pass plus work proportional to real candidate hits,
// independent of needle count. Needles whose required match length is 1
// set every pair for their first byte, so the bitmap never produces a
// false negative.
//
// This is the engine's only production inner loop. Ahead of the pair
// bitmap sits a vector candidate skim (AVX2/AVX-512BW, simd_match.hpp)
// that scan() runs whenever the CPU has it and the compiled tables are
// sparse enough to pay; otherwise scan() runs the scalar walk. Which one
// ran is reported by simd_kind(), never chosen by a caller.
//
// Equivalence contract: for the same (begin, end, window_end) window the
// output is offset-for-offset identical to the legacy per-needle walk —
// positions are visited ascending and each bucket keeps needle order, so
// matches emerge already (offset, pattern_index)-sorted, which is exactly
// the order the legacy walk's final sort produces. Prefix mode (the LKM's
// partial-match path) replicates the same extend-while-agreeing loop with
// the same window bounds. tests/scan_matcher_test.cpp fuzzes both modes,
// through the skim and through the scalar walk, against the legacy oracle
// kept in tests/support/legacy_scan.hpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "scan/scan_engine.hpp"
#include "scan/simd_match.hpp"

namespace keyguard::scan {

class MultiMatcher {
 public:
  /// Compiles the dispatch table. `needles` views must outlive the
  /// matcher. min_prefix_bytes == 0 selects exact whole-needle matching;
  /// > 0 selects the LKM's partial path (needles shorter than the minimum
  /// are skipped, hits extend while bytes keep agreeing).
  MultiMatcher(std::span<const std::span<const std::byte>> needles,
               std::size_t min_prefix_bytes = 0);

  /// Needles that survived the empty/too-short filter.
  std::size_t active_needles() const noexcept { return entries_.size(); }
  /// Longest active needle (0 when none): a seam window reaches this - 1
  /// bytes past its payload.
  std::size_t max_needle_len() const noexcept { return max_len_; }
  /// max_needle_len() - 1 (0 when none): how far a match reaches past its
  /// first byte, so the seam every window and piece scans past its end.
  std::size_t reach() const noexcept { return max_len_ > 0 ? max_len_ - 1 : 0; }
  /// True when some active needle's required bytes (all of it, or the
  /// first min_prefix_bytes in prefix mode) are all zero: it can match in
  /// memory nothing ever wrote, so no sweep may skip such memory.
  bool matches_zeros() const noexcept { return matches_zeros_; }

  /// Scans buffer bytes [begin, window_end) and appends every match whose
  /// FIRST byte lies in [begin, end), in (offset, pattern_index) order.
  /// Runs the vector skim at the level simd_kind() reports: 32/64
  /// positions per iteration are classified skim_depth() bytes deep
  /// against the shufti tables, survivors re-check the exact pair bitmap
  /// and fall through to the same bucket walk, and the scalar loop
  /// finishes the sub-vector tail.
  /// With simd_kind() == kNone it is exactly scan_scalar(). Thread-safe:
  /// const over immutable tables, so sharded_scan shares one instance
  /// across all pieces.
  void scan(std::span<const std::byte> buffer, std::size_t begin,
            std::size_t end, std::size_t window_end,
            std::vector<RawMatch>& out) const;

  /// The scalar pair-bitmap walk alone, with scan()'s window contract and
  /// bit-identical output. Production scans never pick it directly; it
  /// stays callable as the vector skim's oracle in tests and benches.
  void scan_scalar(std::span<const std::byte> buffer, std::size_t begin,
                   std::size_t end, std::size_t window_end,
                   std::vector<RawMatch>& out) const;

  /// Vector level scan() runs at: simd_available(), or kNone when the
  /// tables are too dense for the skim to pay (!simd_profitable()).
  SimdKind simd_kind() const noexcept {
    return simd_profitable_ ? simd_available() : SimdKind::kNone;
  }

  /// False when the compiled shufti tables are too dense to pay for the
  /// vector stage: the ctor counts the byte pairs the two-byte nibble
  /// classifier passes and disables the skim if more than a quarter of
  /// them would survive (hundreds of needles with unstructured prefixes
  /// saturate the 8-bucket nibble tables; the candidate stream then
  /// approaches every position and the skim costs more than the scalar
  /// pair-bitmap walk it feeds). scan() runs the scalar walk then, and
  /// ScanStats::simd_kind reports kNone so the downgrade is visible.
  bool simd_profitable() const noexcept { return simd_profitable_; }

  /// Bytes the vector skim classifies per position (2 to 4), or 0 when
  /// scan() runs the scalar walk (simd_kind() == kNone). The ctor starts
  /// at 2 and deepens while the survival under uniform bytes, computed
  /// exactly from the tables, is above 1/1024 and the next layer at least
  /// halves it: a key's four needles stay at 2, dozens of needles that
  /// saturate the buckets go to 3 or 4.
  std::size_t skim_depth() const noexcept {
    return simd_kind() == SimdKind::kNone ? 0 : shufti_.depth;
  }

 private:
  /// Scalar hot loop over [pos, pair_limit) plus the final-byte walk up
  /// to `limit` — shared by scan_scalar() (whole range) and scan() (the
  /// sub-vector tail).
  void walk_scalar(const unsigned char* base, std::size_t buf_size,
                   std::size_t pos, std::size_t pair_limit, std::size_t limit,
                   std::size_t window_end, std::vector<RawMatch>& out) const;
  struct Entry {
    std::uint64_t prefix = 0;       ///< first cmp_len bytes (memcpy image)
    std::uint64_t mask = 0;         ///< 0xFF per prefix byte (memcpy image)
    const std::byte* bytes = nullptr;  ///< full needle
    std::uint32_t len = 0;          ///< full needle length
    std::uint32_t match_len = 0;    ///< len (exact) or min_prefix (prefix mode)
    std::uint32_t pattern_index = 0;
    /// Second needle byte, cached inline so the bucket binary search walks
    /// the contiguous entry array instead of chasing needle pointers.
    std::uint8_t second = 0;
  };

  /// Emits every needle matching at `pos` (bucket walk + SWAR + tail).
  void check_candidate(const unsigned char* base, std::size_t buf_size,
                       std::size_t pos, std::size_t window_end,
                       std::vector<RawMatch>& out) const;

  std::size_t min_prefix_ = 0;
  std::size_t max_len_ = 0;
  /// Grouped by first byte; within a bucket the length-1 needles (which
  /// match regardless of the second byte) come first in pattern order,
  /// then the rest sorted by (second byte, pattern order) so
  /// check_candidate can binary-search straight to the run matching the
  /// buffer's actual second byte — with hundreds of needles sharing a
  /// first byte (multi-tenant pattern sets) the walk touches ~the needles
  /// that can still match instead of the whole bucket. The two runs merge
  /// by pattern index at emit time, restoring the legacy loop's order.
  std::vector<Entry> entries_;
  std::array<std::uint32_t, 256> bucket_begin_{};  ///< index into entries_
  std::array<std::uint32_t, 256> short_end_{};     ///< end of len-1 run
  std::array<std::uint32_t, 256> bucket_end_{};
  /// Bit (b0 | b1<<8) set iff some needle requires first bytes b0,b1 (or
  /// requires only b0 and may be followed by anything). 8 KB, L1-resident.
  std::array<std::uint64_t, 1024> pair_bits_{};
  /// Nibble-classification tables for the vector first stage — a superset
  /// filter over pair_bits_ (and, past two bytes, over the needles' next
  /// bytes), built alongside it with its depth (see simd_match.hpp).
  simd_detail::ShuftiTables shufti_{};
  bool simd_profitable_ = false;  ///< shufti density below the skim cutoff
  bool matches_zeros_ = false;
};

}  // namespace keyguard::scan
