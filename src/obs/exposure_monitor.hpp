// Live key-exposure accounting from taint hooks — the paper's Fig. 5/6
// "key copies over time" curves as a continuously maintained data
// structure instead of a sequence of full scans.
//
// How it stays exact (the bench's acceptance criterion is copy-for-copy
// agreement with a ground-truth scan_capture sweep at every instant):
// every byte that changes in simulated physical RAM flows through a
// TaintTracker hook — stores (including kClean churn), kernel-internal
// copies, clears, and swap-ins — and the kernel fires each hook AFTER
// the bytes have moved, so memory content is current at hook time. Each
// hook settles the one changed run through scan::settle, the rule the
// incremental sweep also uses (scan/settle.hpp): rescan the starts the
// change can reach with the scanner's MultiMatcher, splice, and count
// the copies that left or joined. By induction the live set equals what
// a full sweep would find, at every instant, at a cost proportional to
// bytes-touched instead of bytes-of-RAM.
//
// Swap is the one boundary: SwapDevice encrypts slot contents after
// on_swap_store fires, so slot bytes cannot be needle-matched the way
// RAM can. The monitor therefore counts RAM copies exactly and tracks
// swap traffic as event counters — matching the scanner, which also
// walks RAM only (the paper's scanmemory never saw the disk either).
//
// Exposure integral: for key k with live plaintext bytes B_k(t),
//     exposure_byte_seconds(k) = ∫ B_k(t) dt      [byte·seconds]
// accrued lazily against the obs clock (manual sim clock in benches for
// bit-identical integrals; host clock in tools). A copy of needle length
// L contributes L byte·seconds per second it survives. This is the
// quantity the related memory-exposure literature argues attacks scale
// with: how much and how long, not just whether.
//
// Threading: the sim kernel is single-threaded and so is this monitor.
// Not thread-safe; drive it from the thread running the kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "scan/key_scanner.hpp"
#include "scan/multi_matcher.hpp"
#include "sim/physmem.hpp"
#include "sim/taint.hpp"

namespace keyguard::obs {

class MetricsRegistry;
class Tracer;

/// Per-key rollup, indexed by KeyPatterns::Pattern::key.
struct KeyExposure {
  std::size_t live_copies = 0;
  std::size_t live_bytes = 0;
  double byte_seconds = 0.0;
  std::size_t peak_copies = 0;
  std::uint64_t copies_created = 0;
  std::uint64_t copies_destroyed = 0;
};

class ExposureMonitor final : public sim::TaintTracker {
 public:
  /// Borrows `mem` (must outlive the monitor). Attach via
  /// Kernel::attach_taint — through a sim::TaintFanout when a
  /// ShadowTaintMap is also listening — then call resync() once if the
  /// machine may already hold copies.
  ExposureMonitor(const sim::PhysicalMemory& mem, scan::KeyPatterns patterns);
  ExposureMonitor(const ExposureMonitor&) = delete;  // matcher views patterns_
  ExposureMonitor& operator=(const ExposureMonitor&) = delete;

  // TaintTracker hooks (fired by the kernel on every physical mutation).
  void on_phys_store(std::size_t off, std::size_t len,
                     sim::TaintTag tag) override;
  void on_phys_copy(std::size_t dst, std::size_t src,
                    std::size_t len) override;
  void on_phys_clear(std::size_t off, std::size_t len) override;
  void on_swap_store(std::uint32_t slot, std::size_t phys_src) override;
  void on_swap_load(std::size_t phys_dst, std::uint32_t slot) override;
  void on_swap_clear(std::uint32_t slot) override;

  /// One settle over every frame the memory marked written and every
  /// frame holding a live copy's first byte brings the live set to a full
  /// sweep (integrals are preserved; copies that were already recorded
  /// stay as they are). Unwritten frames are all zero, so only a needle
  /// with all-zero required bytes makes it settle all of RAM.
  void resync();

  // ---- queries (all O(live set) or better, no memory walk) ----
  std::size_t key_count() const noexcept { return keys_.size(); }
  std::size_t total_copies() const noexcept { return live_.size(); }
  std::size_t copy_count(std::size_t key) const;
  std::size_t live_bytes(std::size_t key) const;
  /// Accrues the integral up to now and returns it. The paper's
  /// "exposure window" of a key, generalized to byte·seconds.
  double exposure_window(std::size_t key);
  /// Accrue-then-read full rollup.
  KeyExposure exposure(std::size_t key);
  /// Live copies sorted by (offset, pattern_index) — directly comparable
  /// with scan_capture output (same order contract).
  const std::vector<scan::RawMatch>& copies() const noexcept { return live_; }

  const scan::KeyPatterns& patterns() const noexcept { return patterns_; }
  /// Key index a pattern reports under.
  std::size_t pattern_key(std::size_t pattern) const {
    return patterns_.patterns[pattern].key;
  }
  /// Hook events observed (all types).
  std::uint64_t event_count() const noexcept { return events_; }
  std::uint64_t swap_out_events() const noexcept { return swap_outs_; }
  std::uint64_t swap_in_events() const noexcept { return swap_ins_; }

  /// Gauges/counters into a registry: exposure.live_copies,
  /// exposure.live_bytes, exposure.key<k>.copies / .byte_seconds, ...
  void publish(MetricsRegistry& reg);
  /// Counter-track samples ("exposure.copies", per-key tracks) so a
  /// trace alone reconstructs the Fig. 5/6 timeline (trace2timeline.py).
  void sample(Tracer& tracer);

 private:
  void touch(std::size_t off, std::size_t len);
  /// Settles `runs` (ascending) and moves the per-key counts by the
  /// copies that left and joined.
  void settle_runs(std::span<const scan::ByteRun> runs);
  void accrue();

  const sim::PhysicalMemory& mem_;
  scan::KeyPatterns patterns_;
  scan::MultiMatcher matcher_;        // views patterns_' needles
  std::vector<scan::RawMatch> live_;  // (offset, pattern_index) order
  std::vector<scan::RawMatch> gone_;  // touch() scratch
  std::vector<scan::RawMatch> born_;  // touch() scratch
  std::vector<KeyExposure> keys_;
  std::uint64_t last_accrue_ns_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t swap_outs_ = 0;
  std::uint64_t swap_ins_ = 0;
  std::uint64_t swap_clears_ = 0;
};

}  // namespace keyguard::obs
