// Matcher-equivalence battery: the single-pass MultiMatcher must be
// byte-for-byte identical to the legacy per-needle walk — same offsets,
// same (offset, pattern_index) order, same matched_bytes/full flags — in
// exact AND prefix mode, over adversarial needle sets (shared first
// bytes, shared 8-byte SWAR prefixes, needle-is-prefix-of-needle,
// overlapping self-similar needles, duplicates) and randomized windows.
// The legacy loop (tests/support/legacy_scan.hpp) is the oracle; any
// divergence is a MultiMatcher bug. ctest runs this binary three times:
// as-is, under KEYGUARD_SCAN_SIMD=avx2 (the ".avx2" cases) and under
// KEYGUARD_SCAN_SIMD=none (the ".scalar" cases).
#include "scan/multi_matcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "scan/key_scanner.hpp"
#include "scan/scan_engine.hpp"
#include "support/legacy_scan.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::scan {
namespace {

using Needles = std::vector<std::vector<std::byte>>;

std::vector<std::span<const std::byte>> views(const Needles& n) {
  std::vector<std::span<const std::byte>> out;
  out.reserve(n.size());
  for (const auto& v : n) out.emplace_back(v);
  return out;
}

void expect_same_raw(const std::vector<RawMatch>& legacy,
                     const std::vector<RawMatch>& multi,
                     const std::string& label) {
  ASSERT_EQ(legacy.size(), multi.size()) << label;
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i].offset, multi[i].offset) << label << ", match " << i;
    EXPECT_EQ(legacy[i].pattern_index, multi[i].pattern_index)
        << label << ", match " << i;
    EXPECT_EQ(legacy[i].matched_bytes, multi[i].matched_bytes)
        << label << ", match " << i;
    EXPECT_EQ(legacy[i].full, multi[i].full) << label << ", match " << i;
  }
}

/// Runs the oracle, the scalar walk and the production scan over the same
/// window and compares outputs. scan() runs whatever level
/// simd_available() reports (run_sanitized.sh re-runs this binary under
/// KEYGUARD_SCAN_SIMD=avx2 and =none, so every kernel and the scalar walk
/// all face the same oracle).
void check_window(std::span<const std::byte> buffer, std::size_t begin,
                  std::size_t end, std::size_t window_end, const Needles& n,
                  std::size_t min_prefix, const std::string& label) {
  const auto nv = views(n);
  const MultiMatcher mm(nv, min_prefix);
  std::vector<RawMatch> legacy;
  std::vector<RawMatch> scalar;
  std::vector<RawMatch> production;
  legacy_scan(buffer, begin, end, window_end, nv, min_prefix, legacy);
  mm.scan_scalar(buffer, begin, end, window_end, scalar);
  mm.scan(buffer, begin, end, window_end, production);
  expect_same_raw(legacy, scalar, label);
  expect_same_raw(legacy, production, label + " (production)");
}

void check_full_buffer(std::span<const std::byte> buffer, const Needles& n,
                       std::size_t min_prefix, const std::string& label) {
  check_window(buffer, 0, buffer.size(), buffer.size(), n, min_prefix, label);
}

TEST(MultiMatcherEquivalence, SharedFirstBytes) {
  // Every needle starts with 'K': one bucket holds them all, and the SWAR
  // filter is the only thing separating candidates.
  Needles n;
  for (const char* s : {"KEY-ALPHA", "KEY-BETA", "KEYRING", "K", "KA", "KEY"}) {
    n.push_back(util::to_bytes(s));
  }
  std::vector<std::byte> hay(8192, std::byte{'x'});
  util::Rng rng(101);
  for (int i = 0; i < 200; ++i) {
    const auto& pick = n[rng.next_below(n.size())];
    const std::size_t off = rng.next_below(hay.size() - pick.size());
    std::copy(pick.begin(), pick.end(), hay.begin() + off);
  }
  check_full_buffer(hay, n, 0, "shared first bytes");
}

TEST(MultiMatcherEquivalence, SharedEightBytePrefixes) {
  // Identical first 8 bytes: the SWAR filter passes every bucket entry and
  // only the memcmp tail separates them — the worst case for the filter.
  Needles n;
  for (const char* s :
       {"PREFIX00-tailA", "PREFIX00-tailB", "PREFIX00", "PREFIX00-tailA-longer",
        "PREFIX00-x"}) {
    n.push_back(util::to_bytes(s));
  }
  std::vector<std::byte> hay(4096, std::byte{0});
  util::Rng rng(202);
  rng.fill_bytes(hay);
  for (int i = 0; i < 60; ++i) {
    const auto& pick = n[rng.next_below(n.size())];
    const std::size_t off = rng.next_below(hay.size() - pick.size());
    std::copy(pick.begin(), pick.end(), hay.begin() + off);
  }
  check_full_buffer(hay, n, 0, "shared 8-byte prefixes");
}

TEST(MultiMatcherEquivalence, NeedleIsPrefixOfNeedle) {
  // "secret" ⊂ "secret-key" ⊂ "secret-key-material": every long-needle hit
  // must also report each shorter needle at the same offset, in needle
  // order (the tie-break the engine's contract documents).
  Needles n;
  n.push_back(util::to_bytes("secret-key-material"));
  n.push_back(util::to_bytes("secret"));
  n.push_back(util::to_bytes("secret-key"));
  std::vector<std::byte> hay(4096, std::byte{'.'});
  const auto longest = n[0];
  for (const std::size_t off : {10u, 500u, 1000u, 4000u}) {
    std::copy(longest.begin(), longest.end(), hay.begin() + off);
  }
  const auto shortest = n[1];
  std::copy(shortest.begin(), shortest.end(), hay.begin() + 2000);
  check_full_buffer(hay, n, 0, "needle prefix of needle");
}

TEST(MultiMatcherEquivalence, OverlappingSelfSimilarNeedles) {
  // Runs of a repeated byte: overlapping self-matches at every offset, the
  // densest hit pattern possible.
  Needles n;
  n.push_back(std::vector<std::byte>(8, std::byte{0xAA}));
  n.push_back(std::vector<std::byte>(12, std::byte{0xAA}));
  n.push_back(std::vector<std::byte>(4, std::byte{0xAA}));
  n.push_back(util::to_bytes("ababab"));
  n.push_back(util::to_bytes("abab"));
  std::vector<std::byte> hay(2048, std::byte{0xAA});
  for (std::size_t i = 1024; i + 2 <= 1536; i += 2) {
    hay[i] = std::byte{'a'};
    hay[i + 1] = std::byte{'b'};
  }
  check_full_buffer(hay, n, 0, "self-similar needles");
}

TEST(MultiMatcherEquivalence, DuplicateAndDegenerateNeedles) {
  // Duplicates must both report (distinct pattern indices); empty needles
  // are skipped by both paths.
  Needles n;
  n.push_back(util::to_bytes("dup"));
  n.push_back(util::to_bytes("dup"));
  n.push_back({});  // empty: skipped
  n.push_back(util::to_bytes("d"));
  std::vector<std::byte> hay = util::to_bytes("xxdupxxdxxdupdup");
  check_full_buffer(hay, n, 0, "duplicates");
}

TEST(MultiMatcherEquivalence, PrefixModeAcrossSwarBoundary) {
  // min_prefix below, at, and above the 8-byte SWAR width; needles shorter
  // than the minimum are skipped by both paths.
  Needles n;
  n.push_back(util::to_bytes("LONG-NEEDLE-ONE-abcdef"));
  n.push_back(util::to_bytes("LONG-NEEDLE-TWO-abcdef"));
  n.push_back(util::to_bytes("LONG-NEEDLE"));   // shares the long prefix
  n.push_back(util::to_bytes("short"));         // skipped when min_prefix > 5
  std::vector<std::byte> hay(4096, std::byte{'-'});
  util::Rng rng(303);
  for (int i = 0; i < 40; ++i) {
    const auto& pick = n[rng.next_below(n.size())];
    if (pick.empty()) continue;
    const std::size_t off = rng.next_below(hay.size() - pick.size());
    std::copy(pick.begin(), pick.end(), hay.begin() + off);
    // Mutate one tail byte half the time so partial (non-full) extensions
    // exist alongside full matches.
    if (rng.next_below(2) == 0 && pick.size() > 12) {
      hay[off + pick.size() - 3] = std::byte{'?'};
    }
  }
  for (const std::size_t min_prefix : {4u, 8u, 11u, 16u}) {
    check_full_buffer(hay, n, min_prefix,
                      "prefix mode, min=" + std::to_string(min_prefix));
  }
}

TEST(MultiMatcherEquivalence, RandomizedWindowsFuzz) {
  // Randomized buffers, adversarial needle families, and random
  // (begin, end, window_end) triples — the seam-window semantics both
  // matchers must share.
  util::Rng rng(8675309);
  for (int round = 0; round < 40; ++round) {
    const std::size_t size = 512 + rng.next_below(8192);
    std::vector<std::byte> hay(size);
    rng.fill_bytes(hay);
    // Low-entropy overlay so accidental partial matches are common.
    for (std::size_t i = 0; i < size; ++i) {
      if (rng.next_below(4) == 0) hay[i] = std::byte(rng.next_below(4));
    }
    Needles n;
    const std::size_t count = 1 + rng.next_below(24);
    for (std::size_t k = 0; k < count; ++k) {
      std::vector<std::byte> needle(1 + rng.next_below(40));
      switch (rng.next_below(4)) {
        case 0:  // random bytes
          rng.fill_bytes(needle);
          break;
        case 1:  // low-entropy (collides with the overlay)
          for (auto& b : needle) b = std::byte(rng.next_below(4));
          break;
        case 2:  // substring of the haystack: guaranteed hits
          if (needle.size() < size) {
            const std::size_t at = rng.next_below(size - needle.size());
            std::copy(hay.begin() + at, hay.begin() + at + needle.size(),
                      needle.begin());
          }
          break;
        default:  // prefix of an earlier needle
          if (!n.empty()) {
            const auto& prev = n[rng.next_below(n.size())];
            needle.assign(prev.begin(),
                          prev.begin() + 1 + rng.next_below(prev.size()));
          } else {
            rng.fill_bytes(needle);
          }
          break;
      }
      n.push_back(std::move(needle));
    }
    // Plant a few guaranteed full hits.
    for (int p = 0; p < 6; ++p) {
      const auto& pick = n[rng.next_below(n.size())];
      if (pick.empty() || pick.size() >= size) continue;
      const std::size_t off = rng.next_below(size - pick.size());
      std::copy(pick.begin(), pick.end(), hay.begin() + off);
    }
    const std::size_t begin = rng.next_below(size);
    const std::size_t end = begin + 1 + rng.next_below(size - begin);
    const std::size_t window_end = end + rng.next_below(size - end + 1);
    const std::size_t min_prefix = rng.next_below(3) == 0 ? 4 + rng.next_below(12) : 0;
    check_window(hay, begin, end, window_end, n, min_prefix,
                 "fuzz round " + std::to_string(round));
    check_full_buffer(hay, n, min_prefix,
                      "fuzz round " + std::to_string(round) + " (full)");
  }
}

TEST(MultiMatcherEquivalence, ShardedScanLegacyVsMultiAllShardCounts) {
  // End-to-end through sharded_scan: the production path must agree with
  // the legacy oracle at every shard count.
  util::Rng rng(424242);
  std::vector<std::byte> hay(3 * 4096 + 777);
  rng.fill_bytes(hay);
  Needles n;
  for (int k = 0; k < 16; ++k) {
    std::vector<std::byte> needle(8 + rng.next_below(24));
    rng.fill_bytes(needle);
    n.push_back(std::move(needle));
  }
  for (int p = 0; p < 24; ++p) {
    const auto& pick = n[rng.next_below(n.size())];
    const std::size_t off = rng.next_below(hay.size() - pick.size());
    std::copy(pick.begin(), pick.end(), hay.begin() + off);
  }
  const auto nv = views(n);
  const auto legacy = legacy_scan(hay, nv);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    // Same bytes as the oracle, and the stats name the vector level the
    // scan actually ran on (kNone == the scalar walk, visibly).
    ScanStats stats;
    const auto multi = sharded_scan(hay, nv, shards, 0, &stats);
    expect_same_raw(legacy, multi, "sharded, " + std::to_string(shards));
    EXPECT_EQ(stats.simd_kind, simd_available());
  }
}

TEST(SimdEquivalence, DenseNeedleSetFallsBackToScalarVisibly) {
  // 512 random 32-byte needles saturate the 8-bucket shufti nibble tables
  // (most byte pairs survive the classifier), so MultiMatcher's build-time
  // density check must route scans through the scalar walk:
  // simd_profitable() false, stats simd_kind == kNone even on vector
  // hardware, and the bytes still come out identical to the oracle. A
  // sparse structured set built the same way stays profitable — the
  // cutoff discriminates, it doesn't blanket-disable.
  util::Rng rng(717);
  std::vector<std::byte> hay(32 * 1024);
  rng.fill_bytes(hay);
  Needles dense;
  for (int k = 0; k < 512; ++k) {
    std::vector<std::byte> needle(32);
    rng.fill_bytes(needle);
    dense.push_back(std::move(needle));
  }
  const auto dv = views(dense);
  EXPECT_FALSE(MultiMatcher(dv, 0).simd_profitable());
  ScanStats stats;
  const auto multi = sharded_scan(hay, dv, 1, 0, &stats);
  expect_same_raw(legacy_scan(hay, dv), multi, "dense fallback");
  EXPECT_EQ(stats.simd_kind, SimdKind::kNone);  // visible downgrade
  // ...under the spellings the JSON envelope and CI read.
  EXPECT_STREQ(simd_kind_name(SimdKind::kNone), "none");
  EXPECT_STREQ(simd_kind_name(SimdKind::kAvx2), "avx2");
  EXPECT_STREQ(simd_kind_name(SimdKind::kAvx512), "avx512");

  Needles sparse;
  for (int k = 0; k < 64; ++k) {
    std::vector<std::byte> needle(32);
    rng.fill_bytes(needle);
    needle[0] = std::byte{'K'};  // one shared first byte: one tight bucket
    sparse.push_back(std::move(needle));
  }
  EXPECT_TRUE(MultiMatcher(views(sparse), 0).simd_profitable());
}

TEST(SimdEquivalence, NeedleCountSweepFuzz) {
  // The fuzz grid: needle counts spanning one bucket to heavy
  // bucket collision (512 needles over 8 shufti buckets), random and
  // low-entropy haystacks, exact and prefix mode. check_window runs the
  // three-way compare, so the vector skim faces the legacy oracle directly.
  util::Rng rng(550);
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{8}, std::size_t{64}, std::size_t{512}}) {
    std::vector<std::byte> hay(64 * 1024);
    rng.fill_bytes(hay);
    for (std::size_t i = 0; i < hay.size(); ++i) {
      if (rng.next_below(8) == 0) hay[i] = std::byte(rng.next_below(3));
    }
    Needles n;
    for (std::size_t k = 0; k < count; ++k) {
      std::vector<std::byte> needle(1 + rng.next_below(40));
      if (rng.next_below(2) == 0) {
        rng.fill_bytes(needle);
      } else {
        for (auto& b : needle) b = std::byte(rng.next_below(3));
      }
      n.push_back(std::move(needle));
    }
    for (std::size_t p = 0; p < 4 * count; ++p) {
      const auto& pick = n[rng.next_below(n.size())];
      if (pick.size() >= hay.size()) continue;
      const std::size_t off = rng.next_below(hay.size() - pick.size());
      std::copy(pick.begin(), pick.end(), hay.begin() + off);
    }
    const std::string label = "needle count " + std::to_string(count);
    check_full_buffer(hay, n, 0, label);
    check_full_buffer(hay, n, 12, label + " (prefix)");
  }
}

TEST(SimdEquivalence, VectorBoundaryStraddleAndUnalignedWindows) {
  // Matches planted so they straddle every 32- and 64-byte lane boundary
  // (the v0/v1 shifted-load seam), plus window starts at every offset in
  // [0, 130) — the vector loop must agree with the oracle no matter how
  // the window start misaligns the lanes.
  Needles n;
  n.push_back(util::to_bytes("XYZZY-needle"));
  n.push_back(util::to_bytes("XY"));
  n.push_back(util::to_bytes("Q"));
  std::vector<std::byte> hay(4096, std::byte{'.'});
  const auto& m0 = n[0];
  // One copy ENDING at, one STRADDLING, each multiple of 32 up to 512.
  for (std::size_t b = 32; b <= 512; b += 32) {
    if (b >= m0.size()) {
      std::copy(m0.begin(), m0.end(), hay.begin() + (b - m0.size()));
    }
    std::copy(m0.begin(), m0.end(), hay.begin() + b + 512 - m0.size() / 2);
  }
  hay[63] = std::byte{'Q'};
  hay[64] = std::byte{'X'};
  hay[65] = std::byte{'Y'};  // "XY" straddling a 64-byte boundary
  for (std::size_t begin = 0; begin < 130; ++begin) {
    check_window(hay, begin, hay.size(), hay.size(), n, 0,
                 "window begin " + std::to_string(begin));
  }
  // Window END misalignment: every end in the last two vectors' range.
  for (std::size_t end = hay.size() - 130; end <= hay.size(); ++end) {
    check_window(hay, 0, end, end, n, 0, "window end " + std::to_string(end));
  }
}

TEST(SimdEquivalence, WindowsShorterThanOneVector) {
  // Sub-vector windows never enter the vector loop — the scalar tail must
  // handle everything, including 0- and 1-byte windows.
  Needles n;
  n.push_back(util::to_bytes("ab"));
  n.push_back(util::to_bytes("a"));
  n.push_back(util::to_bytes("abcabc"));
  util::Rng rng(707);
  std::vector<std::byte> hay(256);
  for (auto& b : hay) {
    b = std::byte("abc?"[rng.next_below(4)]);
  }
  for (std::size_t len = 0; len <= 70; ++len) {
    for (const std::size_t begin : {std::size_t{0}, std::size_t{13},
                                    std::size_t{31}, std::size_t{64}}) {
      if (begin + len > hay.size()) continue;
      check_window(hay, begin, begin + len, begin + len, n, 0,
                   "short window [" + std::to_string(begin) + ", +" +
                       std::to_string(len) + ")");
      // Seam shape: window_end extends past end like a shard overlap.
      const std::size_t wend = std::min(hay.size(), begin + len + 8);
      check_window(hay, begin, begin + len, wend, n, 0,
                   "short window+overlap [" + std::to_string(begin) + ", +" +
                       std::to_string(len) + ")");
    }
  }
}

/// The depth the skim runs at on this host for a set compiled to
/// `compiled`: 0 on the scalar walk (KEYGUARD_SCAN_SIMD=none, no vector
/// ISA).
std::size_t expected_depth(std::size_t compiled) {
  return simd_available() == SimdKind::kNone ? 0 : compiled;
}

/// `count` random needles of 12..43 bytes: distinct-ish first bytes, so
/// dozens of them saturate the eight shufti buckets.
Needles random_needles(util::Rng& rng, std::size_t count) {
  Needles n;
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<std::byte> needle(12 + rng.next_below(32));
    rng.fill_bytes(needle);
    n.push_back(std::move(needle));
  }
  return n;
}

/// A random haystack with every needle planted a few times, some of the
/// copies cut short by one corrupted byte past the first so that
/// near-misses reach the verify stage too.
std::vector<std::byte> planted_haystack(util::Rng& rng, std::size_t size,
                                        const Needles& n) {
  std::vector<std::byte> hay(size);
  rng.fill_bytes(hay);
  for (std::size_t p = 0; p < 3 * n.size(); ++p) {
    const auto& pick = n[rng.next_below(n.size())];
    if (pick.empty() || pick.size() >= size) continue;
    const std::size_t off = rng.next_below(size - pick.size());
    std::copy(pick.begin(), pick.end(), hay.begin() + off);
    if (pick.size() > 1 && rng.next_below(3) == 0) {
      hay[off + 1 + rng.next_below(std::min<std::size_t>(pick.size() - 1, 4))] ^=
          std::byte{0x5a};
    }
  }
  return hay;
}

TEST(SkimDepth, KeySetsPinTheirDepth) {
  // One key's four needles (d, P, Q, PEM) fill four buckets with one exact
  // byte pair each: two bytes already reject all but 4 in 65536 uniform
  // positions, so the skim stays at the cheapest depth. Sixteen keys' 64
  // needles spread ~40 first bytes over the eight buckets; only four
  // bytes bring survival under 1/1024. (The 512-needle set stays
  // unprofitable: DenseNeedleSetFallsBackToScalarVisibly.)
  std::vector<crypto::RsaPrivateKey> keys;
  util::Rng rng(1616);
  for (int i = 0; i < 16; ++i) keys.push_back(crypto::generate_rsa_key(rng, 512));
  const auto single = KeyPatterns::from_key(keys.front());
  const auto tenants = KeyPatterns::from_keys(keys);
  const MultiMatcher one(single.needles());
  const MultiMatcher many(tenants.needles());
  EXPECT_TRUE(one.simd_profitable());
  EXPECT_TRUE(many.simd_profitable());
  EXPECT_EQ(one.skim_depth(), expected_depth(2));
  EXPECT_EQ(many.skim_depth(), expected_depth(4));

  // The depth reaches the stats of a scan, and the bytes still equal the
  // oracle's.
  const auto tv = tenants.needles();
  Needles planted;
  for (const auto& v : tv) planted.emplace_back(v.begin(), v.end());
  const auto hay = planted_haystack(rng, 64 * 1024, planted);
  ScanStats stats;
  const auto multi = sharded_scan(hay, tv, 1, 0, &stats);
  expect_same_raw(legacy_scan(hay, tv), multi, "16-key set");
  EXPECT_EQ(stats.skim_depth, expected_depth(4));
  EXPECT_EQ(stats.simd_kind, simd_available());
}

TEST(SkimDepth, EveryDepthIsChosenAndMatchesTheOracle) {
  // Needle counts from one to dozens walk the depth choice through 2, 3
  // and 4; every set faces the oracle over the whole buffer and over
  // random seam windows, exact and prefix mode.
  util::Rng rng(4242);
  std::vector<bool> seen(simd_detail::kMaxSkimDepth + 1, false);
  for (const std::size_t count : {std::size_t{1}, std::size_t{4}, std::size_t{12},
                                  std::size_t{16}, std::size_t{24}, std::size_t{48},
                                  std::size_t{64}, std::size_t{96}}) {
    const Needles n = random_needles(rng, count);
    const auto nv = views(n);
    const MultiMatcher mm(nv);
    seen[mm.skim_depth()] = true;
    const auto hay = planted_haystack(rng, 16 * 1024 + rng.next_below(200), n);
    const std::string label = std::to_string(count) + " needles, depth " +
                              std::to_string(mm.skim_depth());
    check_full_buffer(hay, n, 0, label);
    check_full_buffer(hay, n, 6, label + " (prefix)");
    for (int w = 0; w < 8; ++w) {
      const std::size_t begin = rng.next_below(hay.size());
      const std::size_t end = begin + 1 + rng.next_below(hay.size() - begin);
      const std::size_t window_end = std::min(hay.size(), end + rng.next_below(48));
      check_window(hay, begin, end, window_end, n, 0, label + " window");
    }
  }
  if (simd_available() != SimdKind::kNone) {
    for (std::size_t d = 2; d <= simd_detail::kMaxSkimDepth; ++d) {
      EXPECT_TRUE(seen[d]) << "no needle count chose depth " << d;
    }
  }
}

TEST(SkimDepth, ShortNeedlesMixedIntoADeepSet) {
  // Needles of one to three bytes are wildcards at the depths past their
  // length: a deep skim must still pass every position they match at,
  // including where the wildcard bytes are anything at all.
  // Each short needle starts like a long one, so it joins that needle's
  // bucket and passes any byte past its length there. A three-byte needle
  // barely adds survival, so the set goes four bytes deep and layer 4 is
  // its wildcard. A two-byte one (and a two-byte prefix of a long needle)
  // keeps survival from halving past layer 3, so the set stops there with
  // layer 3 the wildcard; a one-byte needle does that past layer 2.
  util::Rng rng(1313);
  Needles n = random_needles(rng, 64);
  const std::size_t long_needles = n.size();
  const auto add_short = [&](std::size_t len) {
    std::vector<std::byte> needle(len);
    rng.fill_bytes(needle);
    needle[0] = n[len][0];
    n.push_back(std::move(needle));
  };
  const auto check_set = [&](std::size_t depth, const std::string& set) {
    const MultiMatcher mm(views(n));
    EXPECT_EQ(mm.skim_depth(), expected_depth(depth)) << set;
    auto hay = planted_haystack(rng, 32 * 1024, n);
    // Short-needle hits followed by every kind of byte, at the very end
    // of the buffer too.
    for (std::size_t k = long_needles; k < n.size(); ++k) {
      const auto& s = n[k];
      std::copy(s.begin(), s.end(), hay.end() - static_cast<std::ptrdiff_t>(s.size()));
      check_full_buffer(hay, n, 0, set + ": short needle " + std::to_string(k) + " at the end");
    }
    check_full_buffer(hay, n, 0, set);
  };
  add_short(3);
  check_set(4, "a three-byte needle");
  add_short(2);
  n.push_back(std::vector<std::byte>(n[0].begin(), n[0].begin() + 2));  // a prefix
  check_set(3, "two-byte needles added");
  add_short(1);
  check_set(2, "a one-byte needle added");
}

TEST(SkimDepth, PrefixModeWithOneToThreeRequiredBytes) {
  // min_prefix below the skim depth: the required length, not the needle
  // length, decides where the wildcards start, and hits extend past it.
  util::Rng rng(2323);
  const Needles n = random_needles(rng, 64);
  std::vector<std::byte> hay = planted_haystack(rng, 32 * 1024, n);
  for (std::size_t i = 0; i < hay.size(); i += 97) hay[i] = n[i % n.size()][0];
  for (const std::size_t min_prefix : {1u, 2u, 3u, 4u, 5u}) {
    const std::string label = "min_prefix " + std::to_string(min_prefix);
    check_full_buffer(hay, n, min_prefix, label);
    check_window(hay, 100, hay.size() - 300, hay.size() - 290, n, min_prefix,
                 label + " window");
  }
}

TEST(SkimDepth, BuffersAndWindowsEndingJustPastAVectorBlock) {
  // The vector loop stops where byte p + depth - 1 would pass the buffer;
  // buffers and windows that end 0..3 bytes past a 32/64-byte block put
  // the last needles in that strip, at every depth.
  util::Rng rng(3434);
  for (const std::size_t count : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    Needles n = random_needles(rng, count);
    n.push_back(util::to_bytes("ab"));
    n.push_back(util::to_bytes("z"));
    const auto nv = views(n);
    const std::string set = std::to_string(count) + " needles, depth " +
                            std::to_string(MultiMatcher(nv).skim_depth());
    for (const std::size_t blocks : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      for (std::size_t extra = 0; extra <= 3; ++extra) {
        const std::size_t size = 64 * blocks + extra;
        std::vector<std::byte> hay(size, std::byte{'.'});
        // Short needles in the last four bytes, a long one ending at the
        // last byte when it fits.
        hay[size - 1] = std::byte{'z'};
        if (size >= 3) {
          hay[size - 3] = std::byte{'a'};
          hay[size - 2] = std::byte{'b'};
        }
        const auto& lng = n[rng.next_below(count)];
        if (lng.size() + 4 <= size) {
          std::copy(lng.begin(), lng.end(),
                    hay.end() - static_cast<std::ptrdiff_t>(lng.size() + 4));
        }
        const std::string label =
            set + ", buffer " + std::to_string(size);
        check_full_buffer(hay, n, 0, label);
        // The same end as a window inside a longer buffer.
        std::vector<std::byte> longer(hay);
        longer.resize(size + 64, std::byte{'z'});
        check_window(longer, 0, size, size, n, 0, label + " as a window");
        check_window(longer, 1, size, size + 2, n, 0, label + " window+seam");
      }
    }
  }
}

TEST(MultiMatcherEquivalence, NeedleAtVeryEndAndPartialSwarLoad) {
  // Hits in the last 8 bytes of the buffer exercise the partial SWAR load.
  Needles n;
  n.push_back(util::to_bytes("endmark"));
  n.push_back(util::to_bytes("end"));
  n.push_back(util::to_bytes("k"));
  std::vector<std::byte> hay(256, std::byte{'z'});
  const auto m0 = n[0];
  std::copy(m0.begin(), m0.end(), hay.end() - static_cast<std::ptrdiff_t>(m0.size()));
  hay[255] = std::byte{'k'};
  check_full_buffer(hay, n, 0, "buffer end");
  // Tiny buffers, smaller than 8 bytes.
  const auto tiny = util::to_bytes("endk");
  check_full_buffer(tiny, n, 0, "tiny buffer");
}

}  // namespace
}  // namespace keyguard::scan
