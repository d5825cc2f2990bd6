// Equivalence battery for the parallel sharded scanner: for every shard
// count, the scan must produce results byte-for-byte identical (same
// matches, same order, same census) to the serial walk — across pattern
// sets, capture sizes (including non-multiples of the shard size), and
// randomized contents.
#include "scan/key_scanner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sslsim/ssl_library.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::scan {
namespace {

using sslsim::SslLibrary;

const crypto::RsaPrivateKey& test_key() {
  static const crypto::RsaPrivateKey k = [] {
    util::Rng rng(31337);
    return crypto::generate_rsa_key(rng, 512);
  }();
  return k;
}

const std::size_t kShardCounts[] = {1, 2, 4, 8};

void plant(std::vector<std::byte>& capture, std::size_t offset,
           std::span<const std::byte> bytes) {
  ASSERT_LE(offset + bytes.size(), capture.size());
  std::copy(bytes.begin(), bytes.end(), capture.begin() + offset);
}

void expect_same_captures(const std::vector<CaptureMatch>& a,
                          const std::vector<CaptureMatch>& b,
                          std::size_t shards) {
  ASSERT_EQ(a.size(), b.size()) << shards << " shards";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset) << shards << " shards, match " << i;
    EXPECT_EQ(a[i].part, b[i].part) << shards << " shards, match " << i;
  }
}

void expect_same_partials(const std::vector<PartialMatch>& a,
                          const std::vector<PartialMatch>& b,
                          std::size_t shards) {
  ASSERT_EQ(a.size(), b.size()) << shards << " shards";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset) << shards << " shards, match " << i;
    EXPECT_EQ(a[i].part, b[i].part) << shards << " shards, match " << i;
    EXPECT_EQ(a[i].matched_bytes, b[i].matched_bytes)
        << shards << " shards, match " << i;
    EXPECT_EQ(a[i].full, b[i].full) << shards << " shards, match " << i;
  }
}

void expect_same_memory_matches(const std::vector<MemoryMatch>& a,
                                const std::vector<MemoryMatch>& b,
                                std::size_t shards) {
  ASSERT_EQ(a.size(), b.size()) << shards << " shards";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].phys_offset, b[i].phys_offset) << shards << " shards, " << i;
    EXPECT_EQ(a[i].part, b[i].part) << shards << " shards, " << i;
    EXPECT_EQ(a[i].frame, b[i].frame) << shards << " shards, " << i;
    EXPECT_EQ(a[i].state, b[i].state) << shards << " shards, " << i;
    EXPECT_EQ(a[i].owners, b[i].owners) << shards << " shards, " << i;
    EXPECT_EQ(a[i].provenance, b[i].provenance) << shards << " shards, " << i;
  }
}

// Captures of awkward sizes, randomized needle placement: every shard
// count returns the serial result.
TEST(ScanParallelEquivalence, RandomizedCapturesAllShardCounts) {
  const std::size_t sizes[] = {
      sim::kPageSize * 3 + 123,  // non-multiple of the page size
      1u << 16,                  // exact power of two
      257 * 1024 + 1,            // prime-ish, > 8 shards worth
      4097,                      // barely two pages
  };
  KeyScanner scanner(test_key());
  util::Rng rng(777);
  for (const std::size_t size : sizes) {
    std::vector<std::byte> capture(size, std::byte{0});
    // Plant 6 needles at random offsets (collisions/overlaps are fine —
    // both paths must agree on whatever pattern soup results).
    const auto& pats = scanner.patterns().patterns;
    for (int i = 0; i < 6; ++i) {
      const auto& p = pats[rng.next_below(pats.size())];
      if (p.bytes.size() > size) continue;
      plant(capture, rng.next_below(size - p.bytes.size() + 1), p.bytes);
    }
    scanner.set_shards(1);
    const auto serial = scanner.scan_capture(capture);
    EXPECT_FALSE(serial.empty()) << "size " << size;
    for (const std::size_t shards : kShardCounts) {
      scanner.set_shards(shards);
      expect_same_captures(serial, scanner.scan_capture(capture), shards);
    }
  }
}

TEST(ScanParallelEquivalence, PrefixScanAllShardCounts) {
  KeyScanner scanner(test_key());
  util::Rng rng(888);
  std::vector<std::byte> capture(100 * 1024 + 37, std::byte{0});
  const auto& pats = scanner.patterns().patterns;
  // Full needles, plus truncated prefixes that only the partial path sees.
  for (int i = 0; i < 4; ++i) {
    const auto& p = pats[rng.next_below(pats.size())];
    plant(capture, rng.next_below(capture.size() - p.bytes.size() + 1), p.bytes);
    const std::size_t cut = 20 + rng.next_below(p.bytes.size() - 20);
    const auto prefix = std::span<const std::byte>(p.bytes).first(cut);
    plant(capture, rng.next_below(capture.size() - cut + 1), prefix);
  }
  scanner.set_shards(1);
  const auto serial = scanner.scan_capture_prefix(capture);
  EXPECT_FALSE(serial.empty());
  EXPECT_TRUE(std::any_of(serial.begin(), serial.end(),
                          [](const PartialMatch& m) { return !m.full; }));
  for (const std::size_t shards : kShardCounts) {
    scanner.set_shards(shards);
    expect_same_partials(serial, scanner.scan_capture_prefix(capture), shards);
  }
}

// Full kernel scans: metadata (frame, state, owners, provenance) must be
// identical too, not just offsets — and so must the census.
TEST(ScanParallelEquivalence, KernelScanAllShardCounts) {
  sim::KernelConfig cfg;
  cfg.mem_bytes = 8ull << 20;
  sim::Kernel k(cfg);
  auto& alive = k.spawn("alive");
  auto& doomed = k.spawn("doomed");
  for (int i = 0; i < 3; ++i) {
    k.mem_write(alive, k.heap_alloc(alive, 128),
                SslLibrary::limb_image(test_key().p));
    k.mem_write(doomed, k.heap_alloc(doomed, 128),
                SslLibrary::limb_image(test_key().q));
  }
  k.exit_process(doomed);

  KeyScanner scanner(test_key());
  scanner.set_shards(1);
  const auto serial = scanner.scan_kernel(k);
  ASSERT_EQ(serial.size(), 6u);
  const auto serial_census = KeyScanner::census(serial);
  for (const std::size_t shards : kShardCounts) {
    scanner.set_shards(shards);
    const auto parallel = scanner.scan_kernel(k);
    expect_same_memory_matches(serial, parallel, shards);
    const auto census = KeyScanner::census(parallel);
    EXPECT_EQ(census.allocated, serial_census.allocated) << shards;
    EXPECT_EQ(census.unallocated, serial_census.unallocated) << shards;
  }
}

// Self-overlapping needles across seams: a run of repeated bytes yields
// overlapping matches; attribution at shard boundaries must not double- or
// under-count them.
TEST(ScanParallelEquivalence, OverlappingMatchesAcrossSeams) {
  KeyPatterns pats;
  pats.patterns.push_back({"AA", std::vector<std::byte>(8, std::byte{0xAA})});
  KeyScanner scanner(pats);
  std::vector<std::byte> capture(sim::kPageSize * 4, std::byte{0});
  // A 64-byte run of 0xAA straddling the 2-shard seam (page 2 boundary).
  const std::size_t seam = sim::kPageSize * 2;
  std::fill(capture.begin() + seam - 32, capture.begin() + seam + 32,
            std::byte{0xAA});
  scanner.set_shards(1);
  const auto serial = scanner.scan_capture(capture);
  EXPECT_EQ(serial.size(), 64u - 8u + 1u);
  for (const std::size_t shards : kShardCounts) {
    scanner.set_shards(shards);
    expect_same_captures(serial, scanner.scan_capture(capture), shards);
  }
}

TEST(ScanParallelEquivalence, MoreShardsThanPagesClamps) {
  KeyScanner scanner(test_key());
  std::vector<std::byte> capture(sim::kPageSize * 2, std::byte{0});
  plant(capture, 100, SslLibrary::limb_image(test_key().p));
  scanner.set_shards(64);  // only 2 pages to split
  ScanStats stats;
  const auto matches = scanner.scan_capture(capture, &stats);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_LE(stats.shard_count, 2u);
  EXPECT_GE(stats.shard_count, 1u);
}

TEST(ScanStatsReporting, CaptureStatsAddUp) {
  KeyScanner scanner(test_key());
  scanner.set_shards(4);
  std::vector<std::byte> capture(sim::kPageSize * 7 + 999, std::byte{0});
  plant(capture, 5, SslLibrary::limb_image(test_key().p));
  plant(capture, sim::kPageSize * 5, SslLibrary::limb_image(test_key().d));
  ScanStats stats;
  const auto matches = scanner.scan_capture(capture, &stats);
  EXPECT_EQ(stats.bytes_scanned, capture.size());
  EXPECT_EQ(stats.match_count, matches.size());
  EXPECT_EQ(stats.pattern_count, 4u);
  ASSERT_EQ(stats.shards.size(), stats.shard_count);
  std::size_t payload = 0, shard_matches = 0;
  for (const auto& s : stats.shards) {
    payload += s.bytes;
    shard_matches += s.matches;
    EXPECT_EQ(s.bytes % sim::kPageSize == 0 || s.index == stats.shard_count - 1,
              true)
        << "inner shards are whole frames";
    EXPECT_GE(s.millis, 0.0);
  }
  EXPECT_EQ(payload, capture.size());  // shards tile the buffer exactly
  EXPECT_EQ(shard_matches, matches.size());
  EXPECT_GE(stats.wall_millis, 0.0);
  EXPECT_GE(stats.mb_per_sec(), 0.0);
  EXPECT_FALSE(stats.summary().empty());
}

TEST(ScanStatsReporting, KernelAndPrefixScansReportStats) {
  sim::KernelConfig cfg;
  cfg.mem_bytes = 4ull << 20;
  sim::Kernel k(cfg);
  KeyScanner scanner(test_key());
  scanner.set_shards(2);
  ScanStats stats;
  (void)scanner.scan_kernel(k, &stats);
  EXPECT_EQ(stats.bytes_scanned, k.memory().size_bytes());
  EXPECT_EQ(stats.shard_count, 4u);  // 4 MiB at 2 shards: 1 MiB pieces
  EXPECT_EQ(stats.match_count, 0u);

  std::vector<std::byte> capture(sim::kPageSize, std::byte{0});
  ScanStats pstats;
  (void)scanner.scan_capture_prefix(capture, 20, &pstats);
  EXPECT_EQ(pstats.bytes_scanned, capture.size());
  EXPECT_EQ(pstats.shard_count, 1u);  // one page => one shard
}

// The documented order contract: ascending phys_offset with the pattern
// list order (d, P, Q, PEM) breaking ties, for every shard count.
TEST(ScanParallelEquivalence, MergePreservesPhysOffsetOrder) {
  KeyScanner scanner(test_key());
  util::Rng rng(999);
  std::vector<std::byte> capture(64 * 1024, std::byte{0});
  const auto& pats = scanner.patterns().patterns;
  for (int i = 0; i < 10; ++i) {
    const auto& p = pats[rng.next_below(pats.size())];
    if (p.bytes.size() > capture.size()) continue;
    plant(capture, rng.next_below(capture.size() - p.bytes.size() + 1), p.bytes);
  }
  for (const std::size_t shards : kShardCounts) {
    scanner.set_shards(shards);
    const auto matches = scanner.scan_capture(capture);
    for (std::size_t i = 1; i < matches.size(); ++i) {
      EXPECT_LE(matches[i - 1].offset, matches[i].offset)
          << shards << " shards";
    }
  }
}

}  // namespace
}  // namespace keyguard::scan
