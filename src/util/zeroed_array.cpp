#include "util/zeroed_array.hpp"

#include <sys/mman.h>

#include <new>

namespace keyguard::util {

void* map_zeroed(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  // NORESERVE: the array is sized for a configured machine, not for what
  // the workload writes, so commit accounting should not charge it up
  // front either.
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // Advisory: a kernel without THP refuses it, and 4 KB pages are then
  // what the mapping gets anyway.
  (void)::madvise(p, bytes, MADV_NOHUGEPAGE);
  return p;
}

void unmap_zeroed(void* p, std::size_t bytes) noexcept {
  if (p != nullptr) ::munmap(p, bytes);
}

}  // namespace keyguard::util
