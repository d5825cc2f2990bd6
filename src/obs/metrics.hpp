// Lock-cheap metrics registry: counters, gauges and fixed-bucket latency
// histograms, snapshot-able to util::JsonWriter.
//
// Design rules:
//   * Registration (name -> instrument lookup) takes a mutex; do it once
//     at setup or on a cold path and keep the returned reference. The
//     reference stays valid for the registry's lifetime (instruments are
//     heap-allocated and never destroyed before the registry).
//   * The hot-path operations (Counter::add, Gauge::set, Histogram::record)
//     are single relaxed atomic ops per call — no locks, no allocation.
//   * Instrumented subsystems gate on `enabled()` (one relaxed atomic
//     load) so a disabled registry costs one branch per call site. That
//     is what keeps bench_scan_throughput overhead within the 5% budget.
//   * The process-global registry starts *disabled*; tools and benches
//     opt in. Locally constructed registries start enabled (tests).
//
// Naming scheme (see DESIGN §7): dot-separated "<subsystem>.<metric>"
// with unit suffixes (_ms, _bytes, _mb_per_sec) where applicable, e.g.
// "scan.bytes", "keystore.unseal_ms", "exposure.live_copies".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace keyguard::util {
class JsonWriter;
}

namespace keyguard::obs {

/// Monotone event count. Relaxed atomic increments; exact totals are
/// still guaranteed (atomicity, not ordering, is what exactness needs).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (pool occupancy, MB/s).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with p50/p95/p99 estimation by linear
/// interpolation inside the owning bucket. Bucket upper bounds are set
/// at registration; an implicit +inf overflow bucket is always present.
/// record() is lock-free; bucket counts and the total count are exact
/// under concurrency (each is one atomic add).
class Histogram {
 public:
  /// `bounds` must be strictly ascending; empty selects the default
  /// latency ladder (sub-microsecond .. multi-second, in milliseconds).
  explicit Histogram(std::vector<double> bounds);

  void record(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double min() const noexcept;
  double max() const noexcept;
  double mean() const noexcept;
  /// q in [0,1]. Returns 0 when empty.
  double quantile(double q) const noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// bounds().size()+1 entries; last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  void reset() noexcept;

  /// 1e-3 ms (1us) .. 1e4 ms (10s), roughly logarithmic.
  static std::vector<double> default_latency_buckets_ms();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Name-keyed home for instruments. See file comment for the contract.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-global registry. Starts disabled; flip with set_enabled.
  static MetricsRegistry& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Find-or-create. The same name always returns the same instrument.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is consulted only on first registration of `name`.
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  std::size_t instrument_count() const;

  /// Zeroes every instrument, keeping registrations (and references) valid.
  void reset();

  /// Emits {"counters":{...},"gauges":{...},"histograms":{name:{count,
  /// sum,min,max,mean,p50,p95,p99,buckets:[{le,count},...]}}} as an
  /// object *value* — caller supplies the surrounding key/array slot.
  void write_snapshot(util::JsonWriter& w) const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace keyguard::obs

/// Adds `n` to the global registry's counter `name` from a hot path. A
/// disabled registry costs one relaxed load; an enabled one a relaxed add
/// through a per-call-site cached reference (counter() references stay
/// valid for the registry's lifetime). `name` must be a constant.
#define KEYGUARD_COUNT(name, n)                                        \
  do {                                                                 \
    auto& kg_reg = ::keyguard::obs::MetricsRegistry::global();         \
    if (kg_reg.enabled()) {                                            \
      static ::keyguard::obs::Counter& kg_c = kg_reg.counter(name);    \
      kg_c.add(n);                                                     \
    }                                                                  \
  } while (false)
