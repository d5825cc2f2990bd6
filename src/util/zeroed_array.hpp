// Lazily committed zero memory for the simulator's RAM-sized arrays.
//
// A ZeroedArray<T> of n elements reads as n zero-valued T from birth, but
// it costs resident memory only for the pages something has written: it
// is a private anonymous mapping, so every untouched page is the kernel's
// shared zero page. That is how the paper's 256 MB testbed behaves too —
// the kernel commits only the frames someone touched — and it makes a
// simulated machine cost what its workload writes, not what it is
// configured to hold (physical RAM, the swap device, their shadow tags).
//
// Transparent huge pages are declined (MADV_NOHUGEPAGE): on a host whose
// THP mode is "always", one write would otherwise commit 2 MB, and the
// page allocator's random picks would commit most of RAM. The mapping is
// page-aligned, so a test can ask mincore() which pages are resident.
//
// T must be trivially copyable and destructible, and its all-zero bit
// pattern must be its value-initialised state (std::byte, enums whose
// zero enumerator is the default, plain structs of integers).
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

namespace keyguard::util {

/// Maps `bytes` of lazily committed zero memory (nullptr for 0 bytes).
/// Throws std::bad_alloc when the mapping fails.
void* map_zeroed(std::size_t bytes);
/// Releases a map_zeroed block; a no-op for nullptr.
void unmap_zeroed(void* p, std::size_t bytes) noexcept;

template <class T>
class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "ZeroedArray holds plain data whose zero bytes are its default");

 public:
  explicit ZeroedArray(std::size_t n)
      : data_(static_cast<T*>(map_zeroed(n * sizeof(T)))), size_(n) {}
  ~ZeroedArray() { unmap_zeroed(data_, size_ * sizeof(T)); }

  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }
  std::span<const T> span() const noexcept { return {data_, size_}; }

 private:
  T* const data_;
  const std::size_t size_;
};

}  // namespace keyguard::util
