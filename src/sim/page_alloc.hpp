// Physical page allocator with the free-list dynamics that make memory
// disclosure attacks work — or fail.
//
// Two properties of real allocators are load-bearing for the paper:
//
//  1. *Pages are not cleared when freed.* Linux zeroes anonymous pages when
//     they are handed TO userspace (clear_user_highpage at fault time), not
//     when they come back. Kernel-internal allocations (ext2 buffer pages)
//     are never zeroed at all — which is exactly what the ext2 directory
//     leak disclosed. The paper's kernel-level defense moves the clearing
//     to free time (free_hot_cold_page -> clear_highpage); our
//     `zero_on_free` policy bit is that patch.
//
//  2. *Free-list order decides what a disclosure sees.* Recently freed
//     pages sit on hot (per-CPU) lists and are reused quickly; bulk frees
//     from process exit coalesce back into the buddy system where they can
//     linger for a long time. We model this with a hot LIFO stack plus a
//     "scatter pool" drawn from uniformly at random: exit-time bulk frees
//     go to the pool (they escape immediate reuse and accumulate — the
//     paper's growing population of key copies in unallocated memory),
//     everything else goes hot.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/physmem.hpp"
#include "util/rng.hpp"

namespace keyguard::sim {

struct PageAllocPolicy {
  /// The paper's kernel-level defense: clear_highpage on every free.
  bool zero_on_free = false;
  /// Fraction of bulk (exit-time) frees that land on the hot list and are
  /// promptly reused/overwritten; the remainder scatter into the buddy
  /// pool and linger. Real kernels reuse most exit pages quickly — this is
  /// the calibration knob for how fast key residue accumulates in
  /// unallocated memory (the paper's measurements imply roughly one
  /// surviving key-bearing page per connection).
  double bulk_reuse_fraction = 0.80;
};

/// How a page is being freed; selects the free-list placement.
enum class FreeKind : std::uint8_t {
  kHot,   // single-page free (munmap, cache eviction): reused promptly
  kBulk,  // process-exit teardown: scatters into the buddy pool
};

class PageAllocator {
 public:
  PageAllocator(PhysicalMemory& mem, PageAllocPolicy policy, util::Rng rng);

  PageAllocator(const PageAllocator&) = delete;
  PageAllocator& operator=(const PageAllocator&) = delete;

  /// Takes a frame off the free lists (hot first, then a uniformly random
  /// pool frame). `state` records the new owner class. Only kUserAnon
  /// allocations are zeroed on the way out (clear_user_highpage); kernel
  /// and page-cache allocations receive the previous content uncleared —
  /// the disclosure channel. Returns nullopt when memory is exhausted.
  std::optional<FrameNumber> alloc(FrameState state);

  /// Returns a frame to the free lists and clears its merge mark. With
  /// zero_on_free the page is cleared first (the paper's patch); otherwise
  /// its content survives.
  void free(FrameNumber frame, FreeKind kind = FreeKind::kHot);

  // -- COW reference counts ------------------------------------------------
  /// Fork shares frames; the last unmap frees them.
  void ref(FrameNumber frame);
  /// Decrements; frees the frame (kBulk) when the count reaches zero.
  /// Returns the remaining count.
  std::uint32_t unref(FrameNumber frame, FreeKind kind = FreeKind::kBulk);
  std::uint32_t refcount(FrameNumber frame) const;

  // -- dedup merge marks ---------------------------------------------------
  /// Set by Kernel::merge_page on the canonical frame; cleared by free()
  /// and by a COW break that leaves at most one mapper, so a mark never
  /// outlives the merge or survives the frame's reuse.
  void mark_merged(FrameNumber frame) { merged_[frame] = 1; }
  void clear_merged(FrameNumber frame) { merged_[frame] = 0; }
  bool merged(FrameNumber frame) const { return merged_[frame] != 0; }

  // -- inspection -----------------------------------------------------------
  FrameState state(FrameNumber frame) const;
  bool is_free(FrameNumber frame) const { return state(frame) == FrameState::kFree; }

  /// One-pass copy of every frame's state. The parallel scanner takes this
  /// snapshot once per scan and classifies matches against it, so worker
  /// threads never read the allocator itself — the snapshot is plain
  /// value data, safe to share across concurrent readers.
  std::vector<FrameState> states_snapshot() const;
  std::size_t free_count() const noexcept { return hot_.size() + pool_.size(); }
  std::size_t page_count() const noexcept { return states_.size(); }

  /// Cumulative counters for tests and ablation benches.
  struct Stats {
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t pages_zeroed_on_free = 0;
    std::uint64_t pages_zeroed_on_user_alloc = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  void set_policy(PageAllocPolicy policy) noexcept { policy_ = policy; }
  const PageAllocPolicy& policy() const noexcept { return policy_; }

 private:
  PhysicalMemory& mem_;
  PageAllocPolicy policy_;
  util::Rng rng_;
  std::vector<FrameState> states_;
  std::vector<std::uint32_t> refcounts_;
  std::vector<std::uint8_t> merged_;
  std::vector<FrameNumber> hot_;   // LIFO stack
  std::vector<FrameNumber> pool_;  // uniform-random draws (swap-remove)
  Stats stats_;
};

}  // namespace keyguard::sim
