// Summary statistics for the benchmark's samples.
//
// Two rules from the benchmark's contract live here so they can be tested
// on their own (tests/stats_test.cpp):
//
//   * median and quartiles use the same definition as Python's
//     statistics.quantiles(values, n=4) (the "exclusive" method), so a
//     spread computed here matches the one the run-to-run checks compute;
//   * a latency tail is the HIGHEST percentile on a fixed ladder that still
//     has at least kTailMinBeyond samples beyond it, reported together
//     with its sample count. Fewer than kTailMinBeyond samples past even
//     the median means the run is too small to say anything about a tail,
//     and the helper refuses (nullopt) instead of reporting the maximum.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples required strictly beyond a reported percentile.
inline constexpr std::size_t kTailMinBeyond = 10;

/// Percentiles a tail may be reported at, highest first. The ladder stops
/// at p99: a p99.9 from one 10-second run rests on ten samples and swings
/// with every scheduler hiccup.
inline constexpr double kTailLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2: the run-to-run spread as a share of the median.
  double spread() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

/// statistics.quantiles(v, n=4, method="exclusive"). Needs >= 2 samples;
/// fewer return nullopt, as Python raises.
inline std::optional<Quartiles> quartiles(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 2) return std::nullopt;
  std::sort(v.begin(), v.end());
  // CPython's integer formulation: cut i sits at 1-based position
  // i*(n+1)/4; the bracketing pair is clamped to [1, n-1], so very small
  // samples extrapolate past the ends exactly as Python does.
  const std::size_t m = n + 1;
  auto cut = [&](std::size_t i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return Quartiles{cut(1), cut(2), cut(3)};
}

/// A reported latency tail: the value at `percentile` (nearest rank) of
/// `samples` samples.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank position (1-based) of percentile p in n samples.
/// The small slack keeps decimal percentiles exact (99.9% of 10000 is
/// rank 9990, although 0.999 * 10000 rounds to 9990.000000000002).
inline std::size_t rank_of(double p, std::size_t n) {
  const auto r =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-6));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Nearest-rank percentile p of v; 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t r = rank_of(p, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(r - 1), v.end());
  return v[r - 1];
}

/// Highest ladder percentile with >= kTailMinBeyond samples beyond it.
/// nullopt when not even the median qualifies (n < 2*kTailMinBeyond).
inline std::optional<Tail> tail(const std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n == 0) return std::nullopt;
  for (const double p : kTailLadder) {
    if (n - rank_of(p, n) >= kTailMinBeyond) return Tail{p, percentile(v, p), n};
  }
  return std::nullopt;
}

}  // namespace perfbench
