// Streaming-capture equivalence battery: CaptureStream's windowed walk
// must be bit-identical to the one-shot scan_capture / scan_capture_prefix
// of the same bytes loaded whole — including the adversarial placements
// the seam-overlap rule exists for: the max-length needle (the PEM text)
// ending exactly AT every window boundary, needles straddling boundaries,
// a truncated final window, and files smaller than one window. Both
// access modes (mmap and the KEYGUARD_CAPTURE_MMAP=0 pread fallback) face
// the same one-shot result, which itself faces the legacy per-needle walk
// (tests/support/legacy_scan.hpp). ctest runs this binary twice, once
// as-is and once (the ".scalar" cases) under KEYGUARD_SCAN_SIMD=none.
#include "scan/capture_stream.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "crypto/pem.hpp"
#include "crypto/rsa.hpp"
#include "scan/key_scanner.hpp"
#include "support/legacy_scan.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::scan {
namespace {

const crypto::RsaPrivateKey& test_key() {
  static const crypto::RsaPrivateKey key = [] {
    util::Rng rng(9091);
    return crypto::generate_rsa_key(rng, 512);
  }();
  return key;
}

std::string write_temp(const std::vector<std::byte>& bytes,
                       const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

void expect_same_capture(const std::vector<CaptureMatch>& oneshot,
                         const std::vector<CaptureMatch>& streamed,
                         const std::string& label) {
  ASSERT_EQ(oneshot.size(), streamed.size()) << label;
  for (std::size_t i = 0; i < oneshot.size(); ++i) {
    EXPECT_EQ(oneshot[i].offset, streamed[i].offset) << label << ", hit " << i;
    EXPECT_EQ(oneshot[i].part, streamed[i].part) << label << ", hit " << i;
  }
}

void expect_same_partial(const std::vector<PartialMatch>& oneshot,
                         const std::vector<PartialMatch>& streamed,
                         const std::string& label) {
  ASSERT_EQ(oneshot.size(), streamed.size()) << label;
  for (std::size_t i = 0; i < oneshot.size(); ++i) {
    EXPECT_EQ(oneshot[i].offset, streamed[i].offset) << label << ", hit " << i;
    EXPECT_EQ(oneshot[i].part, streamed[i].part) << label << ", hit " << i;
    EXPECT_EQ(oneshot[i].matched_bytes, streamed[i].matched_bytes)
        << label << ", hit " << i;
    EXPECT_EQ(oneshot[i].full, streamed[i].full) << label << ", hit " << i;
  }
}

/// The one-shot scans must equal the legacy walk over the same bytes.
void expect_oneshot_matches_oracle(const KeyScanner& scanner,
                                   const std::vector<std::byte>& capture,
                                   const std::vector<CaptureMatch>& oneshot,
                                   const std::vector<PartialMatch>& prefix,
                                   const std::string& label) {
  std::vector<std::span<const std::byte>> needles;
  for (const auto& p : scanner.patterns().patterns) needles.emplace_back(p.bytes);
  const auto name = [&](const RawMatch& r) {
    return scanner.patterns().patterns[r.pattern_index].name;
  };
  std::vector<CaptureMatch> exact;
  for (const auto& r : legacy_scan(capture, needles)) {
    exact.push_back({r.offset, name(r)});
  }
  expect_same_capture(exact, oneshot, label + " [oracle]");
  std::vector<PartialMatch> partial;
  for (const auto& r : legacy_scan(capture, needles, 20)) {
    partial.push_back({r.offset, name(r), r.matched_bytes, r.full});
  }
  expect_same_partial(partial, prefix, label + " [oracle prefix]");
}

/// Streams `path` at `window` bytes in BOTH access modes and requires each
/// to equal the one-shot result (itself checked against the legacy walk);
/// also checks the aggregate stats shape.
void check_stream_equivalence(const KeyScanner& scanner,
                              const std::vector<std::byte>& capture,
                              const std::string& path, std::size_t window,
                              const std::string& label) {
  const auto oneshot = scanner.scan_capture(capture);
  const auto oneshot_prefix = scanner.scan_capture_prefix(capture, 20);
  expect_oneshot_matches_oracle(scanner, capture, oneshot, oneshot_prefix,
                                label);
  for (const bool use_mmap : {true, false}) {
    ::setenv("KEYGUARD_CAPTURE_MMAP", use_mmap ? "1" : "0", 1);
    const std::string mode_label =
        label + (use_mmap ? " [mmap]" : " [read]");
    {
      CaptureStream stream(path, window);
      ASSERT_TRUE(stream.ok()) << mode_label << ": " << stream.error();
      EXPECT_EQ(stream.mapped(), use_mmap && !capture.empty()) << mode_label;
      EXPECT_EQ(stream.size(), capture.size()) << mode_label;
      ScanStats stats;
      const auto streamed = scanner.scan_capture_stream(stream, &stats);
      ASSERT_TRUE(stream.ok()) << mode_label << ": " << stream.error();
      expect_same_capture(oneshot, streamed, mode_label);
      EXPECT_EQ(stats.bytes_scanned, capture.size()) << mode_label;
      EXPECT_EQ(stats.bytes_streamed, capture.size()) << mode_label;
      EXPECT_EQ(stats.match_count, streamed.size()) << mode_label;
      const std::size_t expect_windows =
          capture.empty() ? 0 : (capture.size() + window - 1) / window;
      EXPECT_EQ(stats.shard_count, expect_windows) << mode_label;
      EXPECT_EQ(stats.shards.size(), expect_windows) << mode_label;
    }
    {
      // Prefix mode rides the same windows; a fresh stream keeps the
      // walks independent.
      CaptureStream stream(path, window);
      ASSERT_TRUE(stream.ok()) << mode_label << ": " << stream.error();
      const auto streamed = scanner.scan_capture_prefix_stream(stream, 20);
      ASSERT_TRUE(stream.ok()) << mode_label << ": " << stream.error();
      expect_same_partial(oneshot_prefix, streamed, mode_label + " prefix");
    }
  }
  ::unsetenv("KEYGUARD_CAPTURE_MMAP");
}

TEST(CaptureStreamSeams, MaxNeedleEndsAtEveryWindowBoundary) {
  // The last-frame-of-RAM pattern from scan_incremental_test, applied to
  // every window seam: the PEM text is the longest needle by far, so a
  // copy whose last byte is the final byte of a window payload is the
  // deepest possible reach into the overlap view — any off-by-one in the
  // seam rule loses or duplicates it.
  const KeyScanner scanner(test_key());
  const auto pem = util::to_bytes(crypto::pem_encode_private_key(test_key()));
  constexpr std::size_t kWindow = 16 * 1024;
  ASSERT_GT(pem.size(), 64u);
  ASSERT_LT(pem.size(), kWindow);

  std::vector<std::byte> capture(6 * kWindow, std::byte{'_'});
  util::Rng rng(11);
  rng.fill_bytes(capture);
  for (std::size_t b = 1; b <= 5; ++b) {
    const std::size_t boundary = b * kWindow;
    // Ends exactly at the boundary (last byte = boundary - 1)...
    std::copy(pem.begin(), pem.end(), capture.begin() + (boundary - pem.size()));
  }
  const auto path = write_temp(capture, "stream_boundary.bin");
  check_stream_equivalence(scanner, capture, path, kWindow, "boundary-end");
  std::remove(path.c_str());
}

TEST(CaptureStreamSeams, NeedlesStraddlingBoundariesAndTruncatedTail) {
  // Copies STRADDLING each seam (first byte in window k, tail in k+1) and
  // a file size that is not a multiple of the window, so the final window
  // is short — its view must clamp to end-of-file exactly like the
  // one-shot scan's buffer end.
  const KeyScanner scanner(test_key());
  const auto pem = util::to_bytes(crypto::pem_encode_private_key(test_key()));
  constexpr std::size_t kWindow = 16 * 1024;

  std::vector<std::byte> capture(4 * kWindow + 777, std::byte{0});
  util::Rng rng(22);
  rng.fill_bytes(capture);
  for (std::size_t b = 1; b <= 4; ++b) {
    const std::size_t boundary = b * kWindow;
    if (b % 2 == 1) {
      // First byte one before the seam: almost the whole needle is overlap.
      std::copy(pem.begin(), pem.end(), capture.begin() + (boundary - 1));
    } else {
      // Centered on the seam.
      std::copy(pem.begin(), pem.end(),
                capture.begin() + (boundary - pem.size() / 2));
    }
  }
  // A copy ending at the very last byte of the truncated tail.
  std::copy(pem.begin(), pem.end(), capture.end() - static_cast<std::ptrdiff_t>(pem.size()));
  // A TRUNCATED copy at end-of-file: prefix mode must report the partial
  // hit with the same matched_bytes as the one-shot scan.
  const std::size_t frag = 40;
  std::copy(pem.begin(), pem.begin() + frag,
            capture.end() - static_cast<std::ptrdiff_t>(frag));
  const auto path = write_temp(capture, "stream_straddle.bin");
  check_stream_equivalence(scanner, capture, path, kWindow, "straddle");
  std::remove(path.c_str());
}

TEST(CaptureStreamSeams, SmallAndEmptyFiles) {
  const KeyScanner scanner(test_key());
  const auto pem = util::to_bytes(crypto::pem_encode_private_key(test_key()));

  // File smaller than one window: a single clamped window.
  std::vector<std::byte> small(pem.size() + 100, std::byte{'s'});
  std::copy(pem.begin(), pem.end(), small.begin() + 50);
  const auto small_path = write_temp(small, "stream_small.bin");
  check_stream_equivalence(scanner, small, small_path, 1 << 20, "small file");
  std::remove(small_path.c_str());

  // Empty file: no windows, no matches, clean stats.
  const std::vector<std::byte> empty;
  const auto empty_path = write_temp(empty, "stream_empty.bin");
  check_stream_equivalence(scanner, empty, empty_path, 1 << 20, "empty file");
  std::remove(empty_path.c_str());

  // Missing file: constructor reports, never crashes.
  CaptureStream missing(::testing::TempDir() + "does_not_exist.bin", 1 << 20);
  EXPECT_FALSE(missing.ok());
  EXPECT_FALSE(missing.error().empty());
}

TEST(CaptureStreamSeams, WindowSizeSweepIsInvariant) {
  // The same capture must yield the same matches at EVERY window size —
  // including a window smaller than the longest needle, where the overlap
  // view is larger than the payload.
  const KeyScanner scanner(test_key());
  const auto pem = util::to_bytes(crypto::pem_encode_private_key(test_key()));
  std::vector<std::byte> capture(48 * 1024);
  util::Rng rng(33);
  rng.fill_bytes(capture);
  for (const std::size_t at : {std::size_t{100}, std::size_t{8190},
                               std::size_t{16383}, std::size_t{40000}}) {
    std::copy(pem.begin(), pem.end(), capture.begin() + at);
  }
  const auto path = write_temp(capture, "stream_sweep.bin");
  for (const std::size_t window :
       {std::size_t{256}, std::size_t{4096}, std::size_t{8192},
        std::size_t{1} << 20}) {
    check_stream_equivalence(scanner, capture, path, window,
                             "window " + std::to_string(window));
  }
  std::remove(path.c_str());
}

// A capture that shrinks mid-walk must refuse the next window in both
// access modes. On the mmap path a window past the new end of file would
// raise SIGBUS when read, so the walk runs in a death-test child: a
// crash fails the check instead of killing the test binary.
std::string shrink_name(bool use_mmap) {
  return use_mmap ? "stream_shrink_mmap.bin" : "stream_shrink_read.bin";
}

void walk_shrinking_capture(bool use_mmap) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  std::vector<std::byte> bytes(8 * kMiB);
  util::Rng rng(44);
  rng.fill_bytes(bytes);
  const auto path = write_temp(bytes, shrink_name(use_mmap));
  ::setenv("KEYGUARD_CAPTURE_MMAP", use_mmap ? "1" : "0", 1);
  CaptureStream stream(path, kMiB);
  ::unsetenv("KEYGUARD_CAPTURE_MMAP");
  if (!stream.ok() || stream.mapped() != use_mmap) std::_Exit(2);
  stream.rewind(64);
  std::size_t covered = 0;
  unsigned sum = 0;
  const auto touch = [&](const CaptureWindow& w) {
    for (const std::byte b : w.bytes) sum += static_cast<unsigned>(b);
    covered += w.payload;
  };
  const auto first = stream.next();
  if (!first) std::_Exit(3);
  touch(*first);
  if (::truncate(path.c_str(), static_cast<off_t>(2 * kMiB)) != 0) std::_Exit(4);
  while (const auto w = stream.next()) touch(*w);
  const bool refused = !stream.ok() &&
                       stream.error().find("shrank") != std::string::npos &&
                       covered < 2 * kMiB;
  std::_Exit(refused && sum != 0 ? 0 : 1);
}

TEST(CaptureStreamResize, ShrinkMidWalkRefusesInBothModes) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(walk_shrinking_capture(true), ::testing::ExitedWithCode(0), "")
      << "mmap";
  EXPECT_EXIT(walk_shrinking_capture(false), ::testing::ExitedWithCode(0), "")
      << "pread";
  for (const bool use_mmap : {true, false}) {
    std::remove((::testing::TempDir() + shrink_name(use_mmap)).c_str());
  }
}

TEST(CaptureStreamResize, GrowthMidWalkIsNotRead) {
  constexpr std::size_t kKiB = 1024;
  std::vector<std::byte> bytes(64 * kKiB);
  util::Rng rng(45);
  rng.fill_bytes(bytes);
  for (const bool use_mmap : {true, false}) {
    const std::string label = use_mmap ? "mmap" : "pread";
    const auto path = write_temp(bytes, "stream_grow.bin");
    ::setenv("KEYGUARD_CAPTURE_MMAP", use_mmap ? "1" : "0", 1);
    CaptureStream stream(path, 16 * kKiB);
    ::unsetenv("KEYGUARD_CAPTURE_MMAP");
    ASSERT_TRUE(stream.ok()) << label << ": " << stream.error();
    EXPECT_EQ(stream.mapped(), use_mmap) << label;
    stream.rewind(32);
    std::vector<std::byte> seen;
    bool grown = false;
    while (const auto w = stream.next()) {
      seen.insert(seen.end(), w->bytes.begin(),
                  w->bytes.begin() + static_cast<std::ptrdiff_t>(w->payload));
      if (!grown) {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        const std::vector<char> extra(32 * kKiB, 'g');
        out.write(extra.data(), static_cast<std::streamsize>(extra.size()));
        grown = true;
      }
    }
    EXPECT_TRUE(stream.ok()) << label << ": " << stream.error();
    EXPECT_EQ(stream.size(), bytes.size()) << label;
    EXPECT_EQ(seen, bytes) << label;  // the size seen at open, nothing more
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace keyguard::scan
