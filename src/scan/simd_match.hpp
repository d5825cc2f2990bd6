// Vector candidate finder for the MultiMatcher's first stage.
//
// The scalar multi path tests ONE position per iteration against the
// two-byte-prefix bitmap; that single L1 load per byte is the throughput
// ceiling the ROADMAP names. This stage tests 32 (AVX2) or 64 (AVX-512BW)
// positions per iteration with the classic two-nibble PSHUFB
// classification ("shufti"), D bytes deep (D = ShuftiTables::depth, 2 to
// 4): each needle's first byte is assigned one of eight buckets, and for
// every depth k < D a pair of 16-entry tables (low and high nibble of
// the byte at p + k) is built so that
//
//   classes_k[p] = lo[k][b[p+k] & 15] & hi[k][b[p+k] >> 4]
//   candidate(p) ⟺ (classes_0[p] & ... & classes_{D-1}[p]) != 0
//
// A needle sets its bucket's bit for its own byte at every depth k below
// its required length, and for every byte at the depths past it (a
// wildcard: a one-byte needle matches under any second byte). Every real
// match therefore keeps its bucket's bit through all D layers, so the
// candidate mask is a SUPERSET of the true hits — never a false negative.
// False positives (nibble cross-products inside a bucket, bucket
// collisions past eight distinct first bytes) are cheap: each surviving
// position re-checks the exact 65536-bit pair bitmap and then walks the
// ordinary bucket/SWAR/tail verify, so the emitted matches are
// bit-identical to the scalar walk by construction. Deeper layers cost a
// load and two shuffles each per block and cut the false positives of
// needle sets that saturate the buckets; MultiMatcher picks the
// shallowest depth that rejects enough (multi_matcher.hpp).
//
// This header is an internal seam between multi_matcher.cpp and the
// target-attributed kernels in simd_match.cpp; the public surface
// (SimdKind, simd_kind_name, simd_available) lives in scan_engine.hpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "scan/scan_engine.hpp"

namespace keyguard::scan::simd_detail {

/// Deepest skim: bytes classified per position.
inline constexpr std::size_t kMaxSkimDepth = 4;

/// The nibble-classification tables, one low/high pair per depth. Built
/// for every depth; the kernels read the first `depth` pairs.
struct ShuftiTables {
  alignas(64) std::uint8_t lo[kMaxSkimDepth][16] = {};  ///< byte p+k low nibble -> buckets
  std::uint8_t hi[kMaxSkimDepth][16] = {};              ///< byte p+k high nibble -> buckets
  std::size_t depth = 2;  ///< bytes classified per position, 2..kMaxSkimDepth
};

/// Where a skim stopped and how many candidates it wrote.
struct Skimmed {
  std::size_t resume = 0;      ///< first position left to the scalar loop
  std::size_t candidates = 0;  ///< entries written to `out`
};

/// Scans positions [pos, limit) in whole 32/64-byte blocks and writes every
/// candidate, as its offset from `pos` and in ascending order, to `out`,
/// which must have room for limit - pos entries (limit - pos < 2^32).
/// Writing to a plain array keeps calls out of the loop, so the tables
/// stay in vector registers. Stops at the last position that still
/// leaves a full vector inside [pos, limit) — the caller finishes the
/// tail with the scalar loop. The classifier reads base[p + depth - 1],
/// so `limit` + tables.depth - 1 must not exceed the buffer size. `kind`
/// must be a level simd_available() reported (kNone skims nothing).
Skimmed collect_candidates(SimdKind kind, const unsigned char* base,
                           std::size_t pos, std::size_t limit,
                           const ShuftiTables& tables, std::uint32_t* out);

}  // namespace keyguard::scan::simd_detail
