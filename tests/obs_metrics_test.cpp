// MetricsRegistry: instrument semantics, snapshot shape, enable gating.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "bignum/montgomery.hpp"
#include "obs/build_info.hpp"
#include "util/json.hpp"

namespace keyguard::obs {
namespace {

TEST(Counter, AddsAndResets) {
  MetricsRegistry reg;
  auto& c = reg.counter("test.hits");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry reg;
  auto& g = reg.gauge("test.level");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Registry, InstrumentReferencesAreStable) {
  MetricsRegistry reg;
  auto& a = reg.counter("same.name");
  auto& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);  // one instrument per name, references never move
  reg.counter("other.name").add(1);
  EXPECT_EQ(&reg.counter("same.name"), &a);
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(Registry, DisabledIsInertButInstrumentsStillWork) {
  MetricsRegistry reg(/*enabled=*/false);
  EXPECT_FALSE(reg.enabled());
  // The contract: call sites gate on enabled(); the registry itself still
  // hands out working instruments (tests and snapshots rely on that).
  reg.counter("c").add(3);
  EXPECT_EQ(reg.counter("c").value(), 3u);
  reg.set_enabled(true);
  EXPECT_TRUE(reg.enabled());
}

TEST(Registry, GlobalStartsDisabled) {
  // Production default: the hot paths pay one relaxed load and nothing
  // else until a tool/bench opts in.
  EXPECT_FALSE(MetricsRegistry::global().enabled());
}

TEST(Histogram, CountSumMinMaxMean) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat", {1.0, 10.0, 100.0});
  for (const double v : {0.5, 2.0, 3.0, 50.0, 500.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_DOUBLE_EQ(h.mean(), 111.1);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 1u);      // < 1
  EXPECT_EQ(buckets[1], 2u);      // [1, 10)
  EXPECT_EQ(buckets[2], 1u);      // [10, 100)
  EXPECT_EQ(buckets[3], 1u);      // >= 100
}

TEST(Histogram, BucketEdgesAreLowerInclusive) {
  // A sample exactly on a bound belongs to the bucket ABOVE it: bucket i
  // covers [bounds[i-1], bounds[i]). Pinned so refactors cannot silently
  // flip the edge rule and shift every boundary sample one bucket down.
  MetricsRegistry reg;
  auto& h = reg.histogram("edges", {1.0, 10.0, 100.0});
  for (const double v : {1.0, 10.0, 100.0}) h.record(v);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 0u);  // nothing strictly below 1.0
  EXPECT_EQ(buckets[1], 1u);  // 1.0
  EXPECT_EQ(buckets[2], 1u);  // 10.0
  EXPECT_EQ(buckets[3], 1u);  // 100.0 — the top bound opens the overflow
}

TEST(Histogram, OverflowBucketCatchesEverythingAboveTheLadder) {
  MetricsRegistry reg;
  auto& h = reg.histogram("over", {1.0, 2.0});
  h.record(2.5);
  h.record(1e12);
  h.record(std::numeric_limits<double>::max());
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[2], 3u);
  EXPECT_EQ(h.count(), 3u);
  // Overflow samples still feed the scalar aggregates.
  EXPECT_DOUBLE_EQ(h.max(), std::numeric_limits<double>::max());
  EXPECT_DOUBLE_EQ(h.min(), 2.5);
}

TEST(Histogram, BucketCountsSumToCountAndResetClears) {
  MetricsRegistry reg;
  auto& h = reg.histogram("sum", {1.0, 10.0, 100.0});
  for (int i = 0; i < 250; ++i) h.record(static_cast<double>(i));
  const auto buckets = h.bucket_counts();
  std::uint64_t total = 0;
  for (const auto c : buckets) total += c;
  EXPECT_EQ(total, h.count());
  EXPECT_EQ(total, 250u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  for (const auto c : h.bucket_counts()) EXPECT_EQ(c, 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, QuantilesInterpolateWithinBucket) {
  MetricsRegistry reg;
  auto& h = reg.histogram("q", {10.0, 20.0, 30.0});
  // 100 samples uniform in (0, 10]: p50 lands mid-bucket.
  for (int i = 1; i <= 100; ++i) h.record(i / 10.0);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
  EXPECT_NEAR(h.quantile(0.99), 9.9, 0.2);
  EXPECT_EQ(h.quantile(0.0), h.quantile(0.0));  // no NaN
}

TEST(Histogram, EmptyQuantileIsZero) {
  MetricsRegistry reg;
  auto& h = reg.histogram("empty");
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, DefaultLatencyLadderIsAscending) {
  const auto b = Histogram::default_latency_buckets_ms();
  ASSERT_GE(b.size(), 4u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(Snapshot, JsonShape) {
  MetricsRegistry reg;
  reg.counter("scan.hits").add(7);
  reg.gauge("pool.occupancy").set(3);
  reg.histogram("lat_ms", {1.0}).record(0.5);
  util::JsonWriter w;
  w.begin_object();
  reg.write_snapshot(w);
  w.end_object();
  const auto s = w.str();
  EXPECT_TRUE(w.complete());
  EXPECT_NE(s.find(R"("counters":{"scan.hits":7})"), std::string::npos) << s;
  EXPECT_NE(s.find(R"("pool.occupancy":3)"), std::string::npos) << s;
  EXPECT_NE(s.find(R"("lat_ms":{"count":1)"), std::string::npos) << s;
  EXPECT_NE(s.find(R"("le":"inf")"), std::string::npos) << s;  // overflow bucket
  EXPECT_NE(s.find(R"("p95":)"), std::string::npos) << s;
}

TEST(BuildInfo, NamesTheMontgomeryKernelCpuidPicked) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  const bool adx = __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
  const bool ifma = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
#else
  const bool adx = false;
  const bool ifma = false;
#endif
  // IFMA runs only beside the ADX rows, which prepare its inputs.
  const std::string kernel = adx ? (ifma ? "adx+ifma" : "adx") : "portable";
  EXPECT_EQ(build_info::mont_kernel(), kernel);
  EXPECT_EQ(bn::mont::kernel_name(), kernel);
  util::JsonWriter w;
  build_info::write(w);
  EXPECT_TRUE(w.complete());
  EXPECT_NE(w.str().find(R"("mont_kernel":")" + kernel + '"'), std::string::npos) << w.str();
  EXPECT_NE(build_info::one_line().find(" | mont_kernel=" + kernel), std::string::npos)
      << build_info::one_line();
}

TEST(Snapshot, ResetClearsEverything) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(5);
  reg.histogram("h").record(5);
  reg.reset();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  EXPECT_EQ(reg.instrument_count(), 3u);  // instruments survive, values don't
}

}  // namespace
}  // namespace keyguard::obs
