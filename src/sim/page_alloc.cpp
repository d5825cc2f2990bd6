#include "sim/page_alloc.hpp"

#include <cassert>

#include "obs/event_bus.hpp"

namespace keyguard::sim {

PageAllocator::PageAllocator(PhysicalMemory& mem, PageAllocPolicy policy, util::Rng rng)
    : mem_(mem),
      policy_(policy),
      rng_(rng),
      states_(mem.page_count(), FrameState::kFree),
      refcounts_(mem.page_count(), 0),
      merged_(mem.page_count(), 0) {
  // Fresh boot: every frame free, sitting in the buddy pool.
  pool_.reserve(mem.page_count());
  for (FrameNumber f = 0; f < mem.page_count(); ++f) pool_.push_back(f);
}

std::optional<FrameNumber> PageAllocator::alloc(FrameState state) {
  assert(state != FrameState::kFree);
  FrameNumber frame;
  if (!hot_.empty()) {
    frame = hot_.back();
    hot_.pop_back();
  } else if (!pool_.empty()) {
    const std::size_t idx = rng_.next_below(pool_.size());
    frame = pool_[idx];
    pool_[idx] = pool_.back();
    pool_.pop_back();
  } else {
    return std::nullopt;
  }
  assert(states_[frame] == FrameState::kFree);
  states_[frame] = state;
  refcounts_[frame] = 1;
  if (state == FrameState::kUserAnon) {
    // clear_user_highpage: userspace never sees stale data...
    mem_.clear_page(frame);
    ++stats_.pages_zeroed_on_user_alloc;
  }
  // ...but kernel and page-cache allocations do (the ext2 leak's channel).
  ++stats_.allocs;
  if (auto& bus = obs::EventBus::global(); bus.enabled()) {
    bus.publish(obs::ObsEventKind::kFrameAllocated, frame,
                static_cast<std::uint64_t>(state));
  }
  return frame;
}

void PageAllocator::free(FrameNumber frame, FreeKind kind) {
  assert(frame < states_.size());
  assert(states_[frame] != FrameState::kFree && "double free");
  states_[frame] = FrameState::kFree;
  refcounts_[frame] = 0;
  merged_[frame] = 0;
  if (policy_.zero_on_free) {
    mem_.clear_page(frame);
    ++stats_.pages_zeroed_on_free;
  }
  if (kind == FreeKind::kHot || rng_.next_double() < policy_.bulk_reuse_fraction) {
    hot_.push_back(frame);
  } else {
    pool_.push_back(frame);
  }
  ++stats_.frees;
  // Published AFTER the zero-on-free clear so a subscriber inspecting the
  // frame's shadow sees exactly what a disclosure would: residue on a
  // stock kernel, nothing under the paper's patch (the residue-on-free
  // alert rule depends on this ordering).
  if (auto& bus = obs::EventBus::global(); bus.enabled()) {
    bus.publish(obs::ObsEventKind::kFrameFreed, frame);
  }
}

void PageAllocator::ref(FrameNumber frame) {
  assert(states_[frame] != FrameState::kFree);
  ++refcounts_[frame];
}

std::uint32_t PageAllocator::unref(FrameNumber frame, FreeKind kind) {
  assert(refcounts_[frame] > 0);
  if (--refcounts_[frame] == 0) {
    free(frame, kind);
    return 0;
  }
  return refcounts_[frame];
}

std::uint32_t PageAllocator::refcount(FrameNumber frame) const {
  return refcounts_[frame];
}

FrameState PageAllocator::state(FrameNumber frame) const {
  assert(frame < states_.size());
  return states_[frame];
}

std::vector<FrameState> PageAllocator::states_snapshot() const {
  return states_;
}

}  // namespace keyguard::sim
