// Equivalence battery for the parallel sharded scanner: for every shard
// count, the scan must produce results byte-for-byte identical (same
// matches, same order, same census) to the serial walk — across pattern
// sets, capture sizes (including non-multiples of the shard size), and
// randomized contents. The SparseSweep cases hold the kernel sweep, which
// reads only the windows around the frames ever written, to a dense walk
// of all of RAM, and the written-frame bitmap to its invariant.
#include "scan/key_scanner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "attack/leaks.hpp"
#include "core/protection.hpp"
#include "crypto/pem.hpp"
#include "scan/multi_matcher.hpp"
#include "scan/settle.hpp"
#include "servers/ssh_server.hpp"
#include "sim/dedup.hpp"
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
  // Nothing was written, so the sweep covers all 4 MiB and reads nothing:
  // one empty piece.
  EXPECT_EQ(k.memory().written_frames(), 0u);
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.shard_count, 1u);
  EXPECT_EQ(stats.match_count, 0u);

  // Two written frames far apart: two windows, one frame plus the left
  // seam each, cut into 2 pieces.
  k.memory().page(100)[7] = std::byte{1};
  k.memory().page(900)[7] = std::byte{1};
  (void)scanner.scan_kernel(k, &stats);
  EXPECT_EQ(stats.bytes_scanned, k.memory().size_bytes());
  EXPECT_EQ(stats.bytes_read, 2 * (sim::kPageSize + stats.overlap_bytes));
  EXPECT_EQ(stats.shard_count, 2u);
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.shards[0].offset, 100 * sim::kPageSize - stats.overlap_bytes);
  EXPECT_EQ(stats.shards[0].bytes + stats.shards[1].bytes, stats.bytes_read);
  EXPECT_NE(stats.summary().find("MB read"), std::string::npos);

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

// ---- SparseSweep: the kernel sweep reads only written frames --------------

/// Frames whose written bit is clear but which hold a non-zero byte: the
/// invariant a sparse sweep rests on says there are none.
std::size_t unwritten_nonzero_frames(const sim::PhysicalMemory& mem) {
  const auto bits = mem.written_bitmap();
  std::size_t bad = 0;
  for (sim::FrameNumber f = 0; f < mem.page_count(); ++f) {
    const bool written = (bits[f / 64] >> (f % 64)) & 1u;
    if (!written && !util::all_zero(mem.page(f))) ++bad;
  }
  return bad;
}

/// Churn that reaches every writer of simulated RAM at `level`: an sshd
/// with swap and a small page-cache budget serving connections, a swap
/// round trip, a dedup merge, page-cache eviction, the ext2 leak's
/// uncleared kernel buffers with their fill()ed header, and exits.
/// `checkpoint` runs after each stage with every actor still alive.
void churn(core::ProtectionLevel level, const std::function<void(sim::Kernel&,
                                                                 const std::string&)>& checkpoint) {
  auto profile = core::make_profile(level, 8ull << 20);
  profile.kernel.swap_pages = 64;
  profile.kernel.page_cache_limit_pages = 4;
  sim::Kernel k(profile.kernel, 7);
  const std::string label(core::protection_name(level));
  const std::string key_path = "/etc/ssh/ssh_host_rsa_key";
  k.vfs().write_file(key_path, util::to_bytes(crypto::pem_encode_private_key(test_key())),
                     sim::TaintTag::kPem);
  servers::SshServer ssh(k, core::ssh_config(profile, key_path), util::Rng(11));
  ASSERT_TRUE(ssh.start()) << label;
  for (int i = 0; i < 6; ++i) ssh.handle_connection(16u << 10);
  const auto open = ssh.open_connection();
  ASSERT_TRUE(open.has_value()) << label;
  checkpoint(k, label + " after ssh churn");

  auto& swapper = k.spawn("swapper");
  const sim::VirtAddr region = k.mmap_anon(swapper, 4 * sim::kPageSize, false);
  for (std::size_t i = 0; i < 4; ++i) {
    k.mem_write(swapper, region + i * sim::kPageSize + 64,
                SslLibrary::limb_image(test_key().q));
  }
  EXPECT_GT(k.swap_out_pages(swapper, 4), 0u) << label;
  checkpoint(k, label + " after swap-out");
  std::byte b{};
  for (std::size_t i = 0; i < 4; ++i) {
    k.mem_read(swapper, region + i * sim::kPageSize, {&b, 1});
  }
  checkpoint(k, label + " after swap-in");

  auto& twin_a = k.spawn("twin-a");
  auto& twin_b = k.spawn("twin-b");
  std::vector<std::byte> twin_page(sim::kPageSize, std::byte{0x3C});
  const sim::VirtAddr va = k.mmap_anon(twin_a, sim::kPageSize, false);
  const sim::VirtAddr vb = k.mmap_anon(twin_b, sim::kPageSize, false);
  k.mem_write(twin_a, va, twin_page);
  k.mem_write(twin_b, vb, twin_page);
  sim::DedupEngine dedup(k);
  EXPECT_GT(dedup.scan(), 0u) << label;
  checkpoint(k, label + " after dedup merge");

  util::Rng noise_rng(5);
  for (int i = 0; i < 6; ++i) {
    std::vector<std::byte> body(6000);
    noise_rng.fill_bytes(body);
    const std::string path = "/var/cache/f" + std::to_string(i);
    k.vfs().write_file(path, body, sim::TaintTag::kClean);
    ASSERT_TRUE(k.read_file(swapper, path).has_value()) << label;
  }
  checkpoint(k, label + " after page-cache eviction");

  attack::Ext2DirectoryLeak leak(k);
  EXPECT_EQ(leak.create_directories(32), 32u) << label;
  checkpoint(k, label + " with ext2 directory buffers live");

  k.exit_process(twin_a);
  k.exit_process(swapper);
  leak.release();
  checkpoint(k, label + " after exits");
}

// Every frame whose written bit is clear is all zero, at every level,
// after every stage of churn that reaches each writer of simulated RAM.
TEST(SparseSweep, UnwrittenFramesStayZeroAtEveryLevel) {
  for (const auto level : core::kAllProtectionLevels) {
    churn(level, [](sim::Kernel& k, const std::string& where) {
      EXPECT_EQ(unwritten_nonzero_frames(k.memory()), 0u) << where;
      EXPECT_GT(k.memory().written_frames(), 0u) << where;
      EXPECT_LT(k.memory().written_frames(), k.memory().page_count()) << where;
    });
  }
}

// The sparse sweep equals a dense walk of all of RAM offset for offset,
// at 1 and 4 shards, and reads no more than the rule's window bound.
TEST(SparseSweep, KernelSweepEqualsDenseWalkAtEveryLevel) {
  KeyScanner scanner(test_key());
  const auto needles = scanner.patterns().needles();
  for (const auto level : core::kAllProtectionLevels) {
    churn(level, [&](sim::Kernel& k, const std::string& where) {
      const auto dense = sharded_scan(k.memory().all(), needles, 1);
      for (const std::size_t shards : {1u, 4u}) {
        scanner.set_shards(shards);
        ScanStats stats;
        const auto sparse = scanner.scan_kernel(k, &stats);
        ASSERT_EQ(sparse.size(), dense.size()) << where << ", " << shards << " shards";
        for (std::size_t i = 0; i < dense.size(); ++i) {
          EXPECT_EQ(sparse[i].phys_offset, dense[i].offset) << where << ", " << i;
          EXPECT_EQ(sparse[i].part, scanner.patterns().patterns[dense[i].pattern_index].name)
              << where << ", " << i;
        }
        EXPECT_EQ(stats.bytes_scanned, k.memory().size_bytes()) << where;
        EXPECT_LE(stats.bytes_read,
                  k.memory().written_frames() * (sim::kPageSize + stats.overlap_bytes))
            << where;
      }
    });
  }
}

// written_runs against a per-bit reference over bitmaps built to stress
// the word walk: runs crossing word boundaries, full words, the first and
// last frame, isolated bits.
TEST(SparseSweep, WrittenRunsMatchThePerBitWalk) {
  const std::vector<std::byte> needle(8, std::byte{0x77});
  const std::span<const std::byte> views[] = {needle};
  const MultiMatcher mm(views);
  util::Rng rng(4711);
  constexpr std::size_t kFrames = 64 * 5 - 3;  // last word partly used
  constexpr std::size_t kFrameBytes = 4096;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint64_t> bits((kFrames + 63) / 64, 0);
    std::vector<bool> ref(kFrames, false);
    const auto set = [&](std::size_t f) {
      bits[f / 64] |= std::uint64_t{1} << (f % 64);
      ref[f] = true;
    };
    switch (round % 4) {
      case 0:  // sparse singles
        for (int i = 0; i < 6; ++i) set(rng.next_below(kFrames));
        break;
      case 1:  // runs across word seams
        for (std::size_t f = 60; f < 70; ++f) set(f);
        for (std::size_t f = 127; f < 193; ++f) set(f);
        break;
      case 2:  // everything, or the two ends
        if (round % 8 == 2) {
          for (std::size_t f = 0; f < kFrames; ++f) set(f);
        } else {
          set(0);
          set(kFrames - 1);
        }
        break;
      default:  // random density
        for (std::size_t f = 0; f < kFrames; ++f) {
          if (rng.next_below(3) == 0) set(f);
        }
    }
    std::vector<ByteRun> expect;
    for (std::size_t f = 0; f < kFrames; ++f) {
      if (!ref[f]) continue;
      if (!expect.empty() && expect.back().hi == f * kFrameBytes) {
        expect.back().hi += kFrameBytes;
      } else {
        expect.push_back({f * kFrameBytes, (f + 1) * kFrameBytes});
      }
    }
    const auto got = written_runs(bits, kFrameBytes, kFrames * kFrameBytes, mm);
    ASSERT_EQ(got.size(), expect.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].lo, expect[i].lo) << "round " << round << ", run " << i;
      EXPECT_EQ(got[i].hi, expect[i].hi) << "round " << round << ", run " << i;
    }
  }
}

KeyPatterns zero_edged_patterns() {
  // "lead": 31 zero bytes, then 0x5A — its first byte sits exactly
  // reach = 31 bytes left of the one non-zero byte. "tail": 0xA5, then 31
  // zero bytes that can run into a frame nobody wrote.
  KeyPatterns pats;
  std::vector<std::byte> lead(32, std::byte{0});
  lead.back() = std::byte{0x5A};
  std::vector<std::byte> tail(32, std::byte{0});
  tail.front() = std::byte{0xA5};
  pats.patterns.push_back({"lead", lead});
  pats.patterns.push_back({"tail", tail});
  return pats;
}

void expect_sparse_equals_dense(const sim::Kernel& k, KeyScanner& scanner,
                                const std::vector<std::size_t>& must_find) {
  const auto dense = sharded_scan(k.memory().all(), scanner.patterns().needles(), 1);
  for (const std::size_t shards : {1u, 4u}) {
    scanner.set_shards(shards);
    const auto sparse = scanner.scan_kernel(k);
    ASSERT_EQ(sparse.size(), dense.size()) << shards << " shards";
    for (std::size_t i = 0; i < dense.size(); ++i) {
      EXPECT_EQ(sparse[i].phys_offset, dense[i].offset) << shards << " shards, " << i;
    }
    for (const std::size_t off : must_find) {
      EXPECT_TRUE(std::any_of(sparse.begin(), sparse.end(), [&](const MemoryMatch& m) {
        return m.phys_offset == off;
      })) << "offset " << off << ", " << shards << " shards";
    }
  }
}

// A match whose first byte (and 30 more) lies in a frame nobody wrote,
// found only because the written frame's window reaches reach bytes left.
TEST(SparseSweep, LeadingZerosInAnUnwrittenFrame) {
  sim::Kernel k({.mem_bytes = 1ull << 20});
  KeyScanner scanner(zero_edged_patterns());
  k.memory().page(11)[0] = std::byte{0x5A};   // lead starts 31 bytes into frame 10
  k.memory().page(40)[30] = std::byte{0x5A};  // lead starts at frame 40 itself
  k.memory().page(0)[5] = std::byte{0x5A};    // too close to 0: no lead match
  EXPECT_EQ(k.memory().written_frames(), 3u);
  expect_sparse_equals_dense(k, scanner, {11 * sim::kPageSize - 31, 40 * sim::kPageSize - 1});
}

// A match whose zero tail runs into an unwritten frame, and one that ends
// exactly at the end of memory; a head 3 bytes before the end of frame 60
// is followed by a written frame, so its tail is not all zero.
TEST(SparseSweep, ZeroTailRunsIntoAnUnwrittenFrame) {
  sim::Kernel k({.mem_bytes = 1ull << 20});
  KeyScanner scanner(zero_edged_patterns());
  const auto last = static_cast<sim::FrameNumber>(k.memory().page_count() - 1);
  k.memory().page(20)[sim::kPageSize - 1] = std::byte{0xA5};
  k.memory().page(last)[sim::kPageSize - 32] = std::byte{0xA5};
  k.memory().page(60)[sim::kPageSize - 3] = std::byte{0xA5};
  k.memory().page(61)[20] = std::byte{0x11};
  expect_sparse_equals_dense(
      k, scanner, {21 * sim::kPageSize - 1, k.memory().size_bytes() - 32});
}

// Prefix mode (the LKM's partial path) over the written windows: hits
// whose leading zeros lie in an unwritten frame, and hits whose extension
// stops in one, equal the dense prefix walk.
TEST(SparseSweep, PrefixModeOverWrittenWindowsEqualsDense) {
  sim::PhysicalMemory mem(1ull << 20);
  util::Rng rng(99);
  std::vector<std::byte> needle(40);
  rng.fill_bytes(needle);
  for (std::size_t i = 0; i < 8; ++i) needle[i] = std::byte{0};
  for (std::size_t i = 8; i < needle.size(); ++i) needle[i] |= std::byte{1};
  const std::span<const std::byte> views[] = {needle};
  constexpr std::size_t kMin = 20;
  // 25 bytes of the needle: 8 zeros at the end of unwritten frame 30, the
  // rest in frame 31.
  for (std::size_t i = 8; i < 25; ++i) mem.page(31)[i - 8] = needle[i];
  // The first 20 bytes ending at frame 50's end; the extension reads the
  // next byte from unwritten frame 51 and stops.
  for (std::size_t i = 8; i < 20; ++i) mem.page(50)[sim::kPageSize - 20 + i] = needle[i];
  // A whole copy in one frame.
  for (std::size_t i = 8; i < needle.size(); ++i) mem.page(70)[100 + i] = needle[i];

  const MultiMatcher mm(views, kMin);
  ASSERT_FALSE(mm.matches_zeros());
  std::vector<ByteRun> windows;
  widen_runs(written_runs(mem.written_bitmap(), sim::kPageSize, mem.size_bytes(), mm),
             mm.reach(), mem.size_bytes(), windows);
  const auto dense = sharded_scan(mem.all(), views, 1, kMin);
  ASSERT_EQ(dense.size(), 3u);
  for (const std::size_t shards : {1u, 4u}) {
    const auto sparse = sharded_scan_runs(mem.all(), mem.size_bytes(), windows, mm, shards);
    ASSERT_EQ(sparse.size(), dense.size()) << shards << " shards";
    for (std::size_t i = 0; i < dense.size(); ++i) {
      EXPECT_EQ(sparse[i].offset, dense[i].offset) << shards << " shards, " << i;
      EXPECT_EQ(sparse[i].matched_bytes, dense[i].matched_bytes) << shards << " shards, " << i;
      EXPECT_EQ(sparse[i].full, dense[i].full) << shards << " shards, " << i;
    }
  }
  EXPECT_EQ(dense[0].offset, 31 * sim::kPageSize - 8);
  EXPECT_EQ(dense[0].matched_bytes, 25u);
  EXPECT_EQ(dense[1].matched_bytes, kMin);
  EXPECT_TRUE(dense[2].full);
}

// A needle whose required bytes are all zero matches where nothing was
// ever written, so the run list is all of RAM.
TEST(SparseSweep, AllZeroNeedleTakesTheWholeRam) {
  sim::Kernel k({.mem_bytes = 16 * sim::kPageSize});
  KeyPatterns pats;
  pats.patterns.push_back({"zeros", std::vector<std::byte>(16, std::byte{0})});
  pats.patterns.push_back({"lead", zero_edged_patterns().patterns[0].bytes});
  KeyScanner scanner(pats);
  k.memory().page(3)[0] = std::byte{0x5A};
  const auto needles = pats.needles();
  const MultiMatcher mm(needles);
  EXPECT_TRUE(mm.matches_zeros());
  const auto runs =
      written_runs(k.memory().written_bitmap(), sim::kPageSize, k.memory().size_bytes(), mm);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].lo, 0u);
  EXPECT_EQ(runs[0].hi, k.memory().size_bytes());
  ScanStats stats;
  scanner.set_shards(1);
  (void)scanner.scan_kernel(k, &stats);
  EXPECT_EQ(stats.bytes_read, k.memory().size_bytes());
  expect_sparse_equals_dense(k, scanner, {0, 3 * sim::kPageSize - 31});
}

}  // namespace
}  // namespace keyguard::scan
