#include "util/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/stats.hpp"

namespace keyguard::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  // Header rule line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, TsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.render_tsv(), "a\tb\n1\t2\n");
}

TEST(Table, RowCount) {
  Table t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt(0.5, 3), "0.500");
}

TEST(Bar, ScalesToWidth) {
  EXPECT_EQ(bar(10, 10, 10), "##########");
  EXPECT_EQ(bar(5, 10, 10), "#####");
  EXPECT_EQ(bar(0, 10, 10), "");
  EXPECT_EQ(bar(5, 0, 10), "");  // degenerate max
}

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Quantile, SingleSampleIsEveryQuantile) {
  for (const double q : {0.0, 0.25, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile({7.5}, q), 7.5);
  }
}

TEST(Quantile, OddCountHitsOrderStatistics) {
  const std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0};  // unsorted
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_EQ(v.front(), 5.0);  // taken by value: the caller's order stays
}

TEST(Quantile, EvenCountInterpolates) {
  const std::vector<double> v = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 17.5);  // position 0.75
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 25.0);   // midway between 20 and 30
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 40.0);
}

TEST(Quantile, EmptyIsZero) { EXPECT_EQ(quantile({}, 0.5), 0.0); }

TEST(Quantile, MatchesSortedLinearInterpolation) {
  // The estimator the alert-latency bench computed by hand before the
  // paired-trial helper: sort, then interpolate at q * (n - 1).
  const auto reference = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  std::vector<double> v;
  for (int i = 0; i < 31; ++i) v.push_back(static_cast<double>((i * 37) % 31) * 1.5 - 4.0);
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile(v, q), reference(v, q)) << "q=" << q;
  }
}

}  // namespace
}  // namespace keyguard::util
