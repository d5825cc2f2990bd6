#include "sim/physmem.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "obs/metrics.hpp"

namespace keyguard::sim {

const char* frame_state_name(FrameState s) noexcept {
  switch (s) {
    case FrameState::kFree: return "free";
    case FrameState::kUserAnon: return "user";
    case FrameState::kPageCache: return "pagecache";
    case FrameState::kKernel: return "kernel";
  }
  return "?";
}

PhysicalMemory::PhysicalMemory(std::size_t bytes)
    : bytes_(std::max<std::size_t>(bytes / kPageSize, 1) * kPageSize),
      written_((page_count() + 63) / 64, 0) {}

std::span<std::byte> PhysicalMemory::page(FrameNumber frame) noexcept {
  assert(frame < page_count());
  written_[frame / 64] |= std::uint64_t{1} << (frame % 64);
  return {bytes_.data() + static_cast<std::size_t>(frame) * kPageSize, kPageSize};
}

std::span<const std::byte> PhysicalMemory::page(FrameNumber frame) const noexcept {
  assert(frame < page_count());
  return {bytes_.data() + static_cast<std::size_t>(frame) * kPageSize, kPageSize};
}

std::span<const std::byte> PhysicalMemory::range(std::size_t offset,
                                                 std::size_t len) const noexcept {
  // Clamp via (size - offset), never (offset + len): the sum would wrap for
  // len near SIZE_MAX and return a bogus span instead of the tail.
  if (offset >= bytes_.size()) return {};
  return {bytes_.data() + offset, std::min(len, bytes_.size() - offset)};
}

std::size_t PhysicalMemory::written_frames() const noexcept {
  std::size_t n = 0;
  for (const std::uint64_t w : written_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

void PhysicalMemory::clear_page(FrameNumber frame) noexcept {
  assert(frame < page_count());
  std::uint64_t& word = written_[frame / 64];
  const std::uint64_t bit = std::uint64_t{1} << (frame % 64);
  if ((word & bit) != 0) {
    std::memset(bytes_.data() + static_cast<std::size_t>(frame) * kPageSize, 0, kPageSize);
    word &= ~bit;
    KEYGUARD_COUNT("kernel.pages_cleared", 1);
  } else {
    KEYGUARD_COUNT("kernel.pages_clear_skipped", 1);
  }
  // The shadow is told either way: it may carry tags the bytes never did
  // (ShadowTaintMap::mark_phys), and retagging clean bytes writes nothing.
  if (taint_) taint_->on_phys_clear(static_cast<std::size_t>(frame) * kPageSize, kPageSize);
}

void PhysicalMemory::fill(FrameNumber frame, std::size_t offset, std::size_t len,
                          std::byte value) {
  auto p = page(frame);
  assert(offset <= p.size() && len <= p.size() - offset);
  std::memset(p.data() + offset, static_cast<int>(value), len);
  if (taint_) {
    taint_->on_phys_store(static_cast<std::size_t>(frame) * kPageSize + offset, len,
                          TaintTag::kClean);
  }
}

}  // namespace keyguard::sim
