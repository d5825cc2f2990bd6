#include "obs/exposure_monitor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scan/settle.hpp"

namespace keyguard::obs {

ExposureMonitor::ExposureMonitor(const sim::PhysicalMemory& mem,
                                 scan::KeyPatterns patterns)
    : mem_(mem),
      patterns_(std::move(patterns)),
      matcher_(patterns_.needles()) {
  std::size_t keys = 0;
  for (const auto& p : patterns_.patterns) keys = std::max(keys, p.key + 1);
  keys_.resize(keys);
  last_accrue_ns_ = now_ns();
}

void ExposureMonitor::accrue() {
  const std::uint64_t now = now_ns();
  if (now <= last_accrue_ns_) {
    last_accrue_ns_ = now;
    return;
  }
  const double dt =
      static_cast<double>(now - last_accrue_ns_) / static_cast<double>(kNsPerSec);
  last_accrue_ns_ = now;
  for (auto& k : keys_) {
    if (k.live_bytes != 0) {
      k.byte_seconds += static_cast<double>(k.live_bytes) * dt;
    }
  }
}

void ExposureMonitor::touch(std::size_t off, std::size_t len) {
  if (len == 0) return;
  const scan::ByteRun run{off, off + len};
  settle_runs({&run, 1});
}

void ExposureMonitor::settle_runs(std::span<const scan::ByteRun> runs) {
  if (patterns_.patterns.empty()) return;
  // The integral must be split at the mutation: time before it runs at
  // the old byte counts, time after at the new ones.
  accrue();
  gone_.clear();
  born_.clear();
  scan::settle(mem_.all(), matcher_, runs, live_, &gone_, &born_);
  for (const auto& m : gone_) {
    auto& k = keys_[pattern_key(m.pattern_index)];
    k.live_copies -= 1;
    k.live_bytes -= m.matched_bytes;
    k.copies_destroyed += 1;
  }
  for (const auto& m : born_) {
    auto& k = keys_[pattern_key(m.pattern_index)];
    k.live_copies += 1;
    k.live_bytes += m.matched_bytes;
    k.copies_created += 1;
    k.peak_copies = std::max(k.peak_copies, k.live_copies);
  }
}

void ExposureMonitor::on_phys_store(std::size_t off, std::size_t len,
                                    sim::TaintTag /*tag*/) {
  ++events_;
  touch(off, len);
}

void ExposureMonitor::on_phys_copy(std::size_t dst, std::size_t /*src*/,
                                   std::size_t len) {
  ++events_;
  touch(dst, len);
}

void ExposureMonitor::on_phys_clear(std::size_t off, std::size_t len) {
  ++events_;
  touch(off, len);
}

void ExposureMonitor::on_swap_store(std::uint32_t /*slot*/,
                                    std::size_t /*phys_src*/) {
  // RAM is unchanged by a swap-out (the vacated frame keeps its bytes
  // until something overwrites it — any copy there stays live, exactly
  // as a scan would see); the slot itself is encrypted after this hook
  // fires, so swap is tracked as traffic, not content.
  ++events_;
  ++swap_outs_;
}

void ExposureMonitor::on_swap_load(std::size_t phys_dst,
                                   std::uint32_t /*slot*/) {
  ++events_;
  ++swap_ins_;
  touch(phys_dst, sim::kPageSize);
}

void ExposureMonitor::on_swap_clear(std::uint32_t /*slot*/) {
  ++events_;
  ++swap_clears_;
}

void ExposureMonitor::resync() {
  // The written frames are the full sweep's changed runs; the frames of
  // the live copies join them, so a copy whose frame was cleared since
  // the last settle is rescanned and leaves.
  std::vector<std::uint64_t> frames(mem_.written_bitmap().begin(),
                                    mem_.written_bitmap().end());
  for (const auto& m : live_) {
    const std::size_t f = m.offset / sim::kPageSize;
    frames[f / 64] |= std::uint64_t{1} << (f % 64);
  }
  settle_runs(scan::written_runs(frames, sim::kPageSize, mem_.size_bytes(), matcher_));
}

std::size_t ExposureMonitor::copy_count(std::size_t key) const {
  return key < keys_.size() ? keys_[key].live_copies : 0;
}

std::size_t ExposureMonitor::live_bytes(std::size_t key) const {
  return key < keys_.size() ? keys_[key].live_bytes : 0;
}

double ExposureMonitor::exposure_window(std::size_t key) {
  accrue();
  return key < keys_.size() ? keys_[key].byte_seconds : 0.0;
}

KeyExposure ExposureMonitor::exposure(std::size_t key) {
  accrue();
  return key < keys_.size() ? keys_[key] : KeyExposure{};
}

void ExposureMonitor::publish(MetricsRegistry& reg) {
  accrue();
  std::size_t copies = 0;
  std::size_t bytes = 0;
  double integral = 0.0;
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    const auto& e = keys_[k];
    copies += e.live_copies;
    bytes += e.live_bytes;
    integral += e.byte_seconds;
    const std::string prefix = "exposure.key" + std::to_string(k);
    reg.gauge(prefix + ".copies").set(static_cast<double>(e.live_copies));
    reg.gauge(prefix + ".byte_seconds").set(e.byte_seconds);
  }
  reg.gauge("exposure.live_copies").set(static_cast<double>(copies));
  reg.gauge("exposure.live_bytes").set(static_cast<double>(bytes));
  reg.gauge("exposure.byte_seconds").set(integral);
  reg.counter("exposure.events").add(0);  // register even when idle
}

void ExposureMonitor::sample(Tracer& tracer) {
  accrue();
  std::size_t copies = 0;
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    copies += keys_[k].live_copies;
    if (keys_.size() > 1) {
      tracer.counter("exposure.key" + std::to_string(k) + ".copies",
                     static_cast<double>(keys_[k].live_copies));
    }
  }
  tracer.counter("exposure.copies", static_cast<double>(copies));
}

}  // namespace keyguard::obs
