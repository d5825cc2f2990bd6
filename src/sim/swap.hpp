// Simulated swap device.
//
// The paper's defenses mlock() key pages because "memory that is swapped
// out is not immediately cleared and the private key may appear in
// unallocated memory" — and because swap lives on disk, where it survives
// reboots and is readable offline (Provos'00 proposed encrypting it;
// Gutmann'96 showed how hard disk remnants are to erase). This module
// models that channel: pages evicted under memory pressure are copied to
// swap slots, the vacated RAM frame keeps its content (hot-freed,
// uncleared on a stock kernel), and the swap slot keeps the page bytes
// until explicitly scrubbed — which stock kernels never do.
//
// Optional per-boot swap encryption (KernelConfig::encrypt_swap) XORs each
// slot with a keystream derived from a boot-time secret, Provos-style: the
// on-disk image becomes useless to an offline attacker.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/physmem.hpp"
#include "sim/taint.hpp"
#include "util/zeroed_array.hpp"

namespace keyguard::sim {

class SwapDevice {
 public:
  /// A device of `pages` page-sized slots, zero-filled like a fresh mkswap.
  /// The fill is lazy (util::ZeroedArray): a slot costs resident memory
  /// only once a swap-out writes it, and a 0-slot device maps nothing.
  explicit SwapDevice(std::size_t pages);

  std::size_t capacity() const noexcept { return slots_used_.size(); }
  std::size_t used() const noexcept { return used_count_; }
  bool full() const noexcept { return used_count_ == capacity(); }

  /// Reserves a free slot; nullopt when the device is full.
  std::optional<std::uint32_t> alloc_slot();

  /// Releases a slot. Stock behaviour keeps the bytes (`scrub == false`);
  /// the zero-on-free kernel defense scrubs eagerly (and clears the
  /// slot's shadow taint through the attached tracker).
  void free_slot(std::uint32_t slot, bool scrub);

  /// Shadow-taint observer for slot scrubs (see sim/taint.hpp). Attached
  /// by Kernel::attach_taint alongside the PhysicalMemory tracker.
  void set_taint_tracker(TaintTracker* t) noexcept { taint_ = t; }

  /// True when the slot currently backs a swapped-out page. Freed slots
  /// keep their bytes (and shadow taint) until scrubbed — the auditor
  /// reports them as disk-resident residue.
  bool slot_in_use(std::uint32_t index) const { return slots_used_[index]; }

  /// Mutable view of one slot's bytes.
  std::span<std::byte> slot(std::uint32_t index);
  std::span<const std::byte> slot(std::uint32_t index) const;

  /// The whole device image — what an attacker with the disk (or a raw
  /// /dev/sda read) sees.
  std::span<const std::byte> raw() const noexcept { return bytes_.span(); }

 private:
  util::ZeroedArray<std::byte> bytes_;
  std::vector<bool> slots_used_;
  std::size_t used_count_ = 0;
  TaintTracker* taint_ = nullptr;
};

}  // namespace keyguard::sim
