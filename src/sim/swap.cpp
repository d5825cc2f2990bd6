#include "sim/swap.hpp"

#include <cassert>
#include <cstring>

namespace keyguard::sim {

SwapDevice::SwapDevice(std::size_t pages)
    : bytes_(pages * kPageSize), slots_used_(pages, false) {}

std::optional<std::uint32_t> SwapDevice::alloc_slot() {
  for (std::uint32_t i = 0; i < slots_used_.size(); ++i) {
    if (!slots_used_[i]) {
      slots_used_[i] = true;
      ++used_count_;
      return i;
    }
  }
  return std::nullopt;
}

void SwapDevice::free_slot(std::uint32_t slot, bool scrub) {
  assert(slot < slots_used_.size() && slots_used_[slot]);
  slots_used_[slot] = false;
  --used_count_;
  if (scrub) {
    std::memset(bytes_.data() + static_cast<std::size_t>(slot) * kPageSize, 0, kPageSize);
    if (taint_) taint_->on_swap_clear(slot);
  }
}

std::span<std::byte> SwapDevice::slot(std::uint32_t index) {
  assert(index < slots_used_.size());
  return {bytes_.data() + static_cast<std::size_t>(index) * kPageSize, kPageSize};
}

std::span<const std::byte> SwapDevice::slot(std::uint32_t index) const {
  assert(index < slots_used_.size());
  return {bytes_.data() + static_cast<std::size_t>(index) * kPageSize, kPageSize};
}

}  // namespace keyguard::sim
