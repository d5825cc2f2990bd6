#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

namespace keyguard::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroBoundReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_gaussian();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, FillBytesCoversAllPositions) {
  Rng rng(17);
  std::vector<std::byte> buf(37);
  rng.fill_bytes(buf);
  // A second fill should change (almost surely) every run of bytes.
  const std::vector<std::byte> first = buf;
  rng.fill_bytes(buf);
  EXPECT_NE(first, buf);
}

TEST(Rng, FillBytesNonMultipleOf8) {
  Rng rng(19);
  std::vector<std::byte> buf(3);
  rng.fill_bytes(buf);  // must not write out of bounds (ASan would catch)
  SUCCEED();
}

TEST(Rng, FillBytesIsTheNextU64Stream) {
  // fill_bytes(n) writes the little-endian bytes of ceil(n / 8) next_u64
  // draws, the last cut short, and leaves the generator where those draws
  // leave it: the byte stream every seeded scenario depends on.
  static_assert(sizeof(Rng) == 4 * sizeof(std::uint64_t));
  const auto state = [](const Rng& r) { return std::bit_cast<std::array<std::uint64_t, 4>>(r); };
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(4099);
  lengths.push_back(32 * 1024);
  for (const std::size_t n : lengths) {
    Rng filled(1000 + n), driven(1000 + n);
    // Guard bytes either side of the filled span stay untouched.
    std::vector<std::byte> got(n + 16, std::byte{0xa5});
    filled.fill_bytes(std::span(got).subspan(8, n));
    std::vector<std::byte> want(n + 16, std::byte{0xa5});
    for (std::size_t i = 0; i < n; i += 8) {
      const std::uint64_t w = driven.next_u64();
      for (std::size_t b = 0; b < 8 && i + b < n; ++b) {
        want[8 + i + b] = static_cast<std::byte>(w >> (8 * b));
      }
    }
    EXPECT_EQ(got, want) << "n=" << n;
    EXPECT_EQ(state(filled), state(driven)) << "n=" << n;
    EXPECT_EQ(filled.next_u64(), driven.next_u64()) << "n=" << n;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  // Child and parent should not track each other.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BernoulliProbabilityRoughlyRespected) {
  Rng rng(29);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.03);
}

TEST(Rng, UniformityChiSquaredSmoke) {
  // 16 buckets over next_below(16): chi-squared should be unsuspicious.
  Rng rng(31);
  std::vector<int> buckets(16, 0);
  const int n = 16000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(16)];
  double chi2 = 0;
  const double expected = n / 16.0;
  for (int c : buckets) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 50.0);  // df=15, p ~ 1e-5 cutoff
}

}  // namespace
}  // namespace keyguard::util
