// Dirty-frame journal for incremental sweeps.
//
// A full sweep costs O(memory) no matter how little changed since the
// last one. The journal turns the sim's existing taint hook stream into a
// per-frame dirty bitmap: every code path that mutates physical RAM bytes
// (mem_write, COW breaks, clear_page, page-cache fills, swap-ins) already
// reports through sim::TaintTracker, so attaching the journal to the
// kernel's TaintFanout records exactly the frames whose bytes could have
// changed. KeyScanner::scan_kernel_incremental hands those frames to
// scan::settle (scan/settle.hpp) as changed byte runs, which rescans the
// match starts they can reach and splices the result into the cached
// previous sweep. obs::ExposureMonitor settles through the same rule at
// every hook instead of once per sweep; DESIGN.md §8 has the argument.
//
// Swap-slot events (on_swap_store / on_swap_clear) do NOT mark frames:
// copying a page out to swap or scrubbing a slot leaves RAM bytes
// untouched, and the scanner reads RAM. A swap-IN does mark the
// destination frame. The events are still counted so tests can assert
// the journal saw them.
//
// Thread-safety: none. The sim kernel fires hooks single-threaded and
// drain() must not race a sweep — the same discipline every other
// TaintTracker in the repo follows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/physmem.hpp"
#include "sim/taint.hpp"

namespace keyguard::scan {

class DirtyFrameJournal final : public sim::TaintTracker {
 public:
  /// Journals a physical memory of `phys_bytes` split into `frame_bytes`
  /// frames (the sim's page size by default). Starts with every frame
  /// CLEAN: attach the journal before the sweep that primes the cache, or
  /// call mark_all() to force the next sweep to be full.
  explicit DirtyFrameJournal(std::size_t phys_bytes,
                             std::size_t frame_bytes = sim::kPageSize);

  // --- sim::TaintTracker hooks (fired AFTER the bytes move) ---
  void on_phys_store(std::size_t off, std::size_t len, sim::TaintTag tag) override;
  void on_phys_copy(std::size_t dst, std::size_t src, std::size_t len) override;
  void on_phys_clear(std::size_t off, std::size_t len) override;
  void on_swap_store(std::uint32_t slot, std::size_t phys_src) override;
  void on_swap_load(std::size_t phys_dst, std::uint32_t slot) override;
  void on_swap_clear(std::uint32_t slot) override;

  std::size_t frame_bytes() const noexcept { return frame_bytes_; }
  std::size_t frame_count() const noexcept { return dirty_.size(); }
  std::size_t dirty_count() const noexcept { return dirty_count_; }

  /// Byte-mutating events observed since construction (diagnostics).
  std::size_t store_events() const noexcept { return store_events_; }
  /// Swap-slot-only events observed (counted, never marked — RAM unchanged).
  std::size_t swap_slot_events() const noexcept { return swap_slot_events_; }

  /// Sorted indices of frames dirtied since the last drain, then resets
  /// the journal to all-clean. Call at the start of an incremental sweep.
  std::vector<std::size_t> drain();

  /// Sorted dirty frame indices without resetting (tests, diagnostics).
  std::vector<std::size_t> snapshot() const;

  /// Marks every frame dirty — forces the next incremental sweep to cover
  /// everything (used when the journal attached after memory was live).
  void mark_all();

  /// Resets to all-clean without reporting.
  void clear();

 private:
  void mark_range(std::size_t off, std::size_t len);

  std::size_t frame_bytes_;
  std::vector<std::uint8_t> dirty_;  ///< one flag per frame
  std::size_t dirty_count_ = 0;
  std::size_t store_events_ = 0;
  std::size_t swap_slot_events_ = 0;
};

}  // namespace keyguard::scan
