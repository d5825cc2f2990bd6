#include "harness.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metrics(std::string& out, const auto& metrics) {
  out += "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}";
}

}  // namespace

void Report::e2e(const std::string& name, double value, const std::string& unit) {
  check(std::isfinite(value), "end-to-end metric " + name + " is finite");
  e2e_[name] = {std::isfinite(value) ? value : 0.0, unit};
  if (!trace_) std::printf("  %-34s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::layer(const std::string& name, double value, const std::string& unit) {
  check(std::isfinite(value), "per-layer metric " + name + " is finite");
  layer_[name] = {std::isfinite(value) ? value : 0.0, unit};
  if (trace_) std::printf("  %-44s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::show(const std::string& name, double value, const std::string& unit,
                  const std::string& detail) {
  std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              detail.c_str());
}

void Report::latency(const std::string& name, const std::vector<double>& us, double scale,
                     const std::string& unit) {
  e2e("p50_us", median(us), "us");
  e2e("p90_us", percentile(us, 90.0), "us");
  const auto t = tail(us);
  if (!t) {
    // A traced run spends half its rounds traced, so its untraced sample
    // may be too small; its end-to-end figures are informational only.
    if (!trace_) check(false, name + ": at least 20 samples for a tail");
    return;
  }
  const Quartiles q = *quartiles(us);  // tail() needs >= 20 samples
  char detail[128];
  std::snprintf(detail, sizeof detail, "(p%g of %zu samples; IQR %.1f%% of median)",
                t->percentile, t->samples, 100.0 * q.spread());
  show(name, t->value * scale, unit, detail);
}

void Report::unsteady_blocks(std::uint64_t unsteady, std::uint64_t blocks) {
  show("speed.unsteady_blocks", static_cast<double>(unsteady), "count",
       "(of " + std::to_string(blocks) + " blocks; left out of the timings)");
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    ++check_failures_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": ";
  if (trace_) {
    write_metrics(out, layer_);
  } else {
    write_metrics(out, e2e_);
  }
  out += "}";
  return out;
}

void set_tracing(bool on) {
  obs::MetricsRegistry::global().set_enabled(on);
  obs::Tracer::global().set_enabled(on);
}

void dump_trace(const Options& opt) {
  auto& tracer = obs::Tracer::global();
  if (!opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/trace-" + opt.workload + ".jsonl";
    std::ofstream out(path, std::ios::trunc);
    out << tracer.jsonl();
    std::printf("span log: %s (%zu events, %zu dropped)\n", path.c_str(),
                tracer.event_count(), tracer.dropped());
  }
  tracer.clear();
}

std::vector<crypto::RsaPrivateKey> make_keys(std::uint64_t seed, std::size_t count,
                                             std::size_t bits) {
  std::vector<crypto::RsaPrivateKey> keys(count);
  const std::size_t workers =
      std::min<std::size_t>(count, std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < count; i += workers) {
        util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x6b657973ULL + i);
        keys[i] = crypto::generate_rsa_key(rng, bits);
      }
    });
  }
  for (auto& t : pool) t.join();
  return keys;
}

std::size_t pick_skewed(util::Rng& rng, std::size_t n) {
  const std::size_t hot = std::max<std::size_t>(1, n / 5);
  return rng.next_double() < 0.8 ? rng.next_below(hot) : rng.next_below(n);
}

bn::Bignum random_below(util::Rng& rng, const bn::Bignum& n) {
  std::vector<std::byte> bytes((n.bit_length() + 7) / 8);
  rng.fill_bytes(bytes);
  return bn::Bignum::from_bytes_be(bytes) % n;
}

std::size_t distinct_frames(const std::vector<scan::MemoryMatch>& matches) {
  std::set<sim::FrameNumber> frames;
  for (const auto& m : matches) frames.insert(m.frame);
  return frames.size();
}

bool same_matches(const std::vector<scan::MemoryMatch>& a,
                  const std::vector<scan::MemoryMatch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].phys_offset != b[i].phys_offset || a[i].part != b[i].part ||
        a[i].frame != b[i].frame || a[i].state != b[i].state ||
        a[i].owners != b[i].owners) {
      return false;
    }
  }
  return true;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
