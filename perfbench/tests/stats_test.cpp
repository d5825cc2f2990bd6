// Tests for the benchmark's statistics helpers (src/stats.hpp).
//
// Plain asserts-with-messages so the test builds with the benchmark alone;
// run it with `ctest` in the benchmark's build directory, or directly.
// perfbench/run.py runs it before every measurement.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void median_odd_even_and_empty() {
  using perfbench::median;
  check(near(median({5, 1, 4, 2, 3}), 3.0), "median of odd count");
  check(near(median({4, 1, 3, 2}), 2.5), "median of even count averages the middle pair");
  check(near(median({}), 0.0), "median of nothing is 0");
}

// Expected values are Python's statistics.quantiles(v, n=4).
void quartiles_match_python() {
  using perfbench::quartiles;
  const auto a = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  check(a && near(a->q1, 2.75) && near(a->q2, 5.5) && near(a->q3, 8.25),
        "ten samples: 2.75 / 5.5 / 8.25");
  const auto b = quartiles({5, 1, 4, 2, 3});
  check(b && near(b->q1, 1.5) && near(b->q2, 3.0) && near(b->q3, 4.5),
        "five samples: 1.5 / 3 / 4.5");
  const auto c = quartiles({3.0, 1.0});
  check(c && near(c->q1, 0.5) && near(c->q2, 2.0) && near(c->q3, 3.5),
        "two samples extrapolate like Python: 0.5 / 2 / 3.5");
  const auto d = quartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110});
  check(d && near(d->q1, 30) && near(d->q3, 90) && near(d->spread(), 1.0),
        "eleven samples: spread (q3-q1)/q2 = 1");
  check(!quartiles({1.0}), "one sample is refused");
  check(!quartiles({}), "no samples are refused");
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void tail_picks_highest_percentile_with_ten_beyond() {
  using perfbench::tail;
  const auto t1000 = tail(ramp(1000));
  check(t1000 && t1000->percentile == 99.0 && near(t1000->value, 990.0) &&
            t1000->samples == 1000,
        "1000 samples: p99 has exactly 10 beyond");
  const auto t100000 = tail(ramp(100000));
  check(t100000 && t100000->percentile == 99.0 && near(t100000->value, 99000.0),
        "100000 samples: the ladder tops out at p99");
  const auto t999 = tail(ramp(999));
  check(t999 && t999->percentile == 95.0,
        "999 samples: p99 leaves only 9 beyond, so p95");
  const auto t200 = tail(ramp(200));
  check(t200 && t200->percentile == 95.0 && near(t200->value, 190.0),
        "200 samples: p95");
  const auto t40 = tail(ramp(40));
  check(t40 && t40->percentile == 75.0 && near(t40->value, 30.0), "40 samples: p75");
  const auto t20 = tail(ramp(20));
  check(t20 && t20->percentile == 50.0 && near(t20->value, 10.0),
        "20 samples: only the median qualifies");
}

void percentile_is_nearest_rank() {
  using perfbench::percentile;
  check(near(percentile(ramp(1000), 90.0), 900.0), "p90 of 1..1000 is 900");
  check(near(percentile(ramp(10), 50.0), 5.0), "p50 of 1..10 is rank 5");
  check(near(percentile(ramp(10), 100.0), 10.0), "p100 is the maximum");
  check(near(percentile({7.0}, 90.0), 7.0), "one sample is every percentile");
  check(near(percentile({}, 90.0), 0.0), "no samples give 0");
}

void tail_refuses_too_few_samples() {
  using perfbench::tail;
  check(!tail(ramp(19)), "19 samples: not even the median has 10 beyond");
  check(!tail({}), "no samples are refused");
}

void tail_ignores_input_order() {
  std::vector<double> v = ramp(1000);
  std::vector<double> rev(v.rbegin(), v.rend());
  const auto a = perfbench::tail(v);
  const auto b = perfbench::tail(rev);
  check(a && b && near(a->value, b->value), "tail is order-independent");
}

}  // namespace

int main() {
  median_odd_even_and_empty();
  quartiles_match_python();
  percentile_is_nearest_rank();
  tail_picks_highest_percentile_with_ten_beyond();
  tail_refuses_too_few_samples();
  tail_ignores_input_order();
  if (failures != 0) {
    std::printf("stats_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
