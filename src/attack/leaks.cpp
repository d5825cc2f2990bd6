#include "attack/leaks.hpp"

#include <algorithm>
#include <utility>

namespace keyguard::attack {
namespace {

// The 24 bytes ext2_make_empty actually initialises: the "." and ".."
// directory entries at the start of the new block.
constexpr std::size_t kInitializedHeader = sim::kPageSize - Ext2DirectoryLeak::kLeakBytesPerDirectory;

}  // namespace

bool Ext2DirectoryLeak::create_directory() {
  // The new directory block is a kernel buffer allocation — handed out
  // UNCLEARED (see PageAllocator::alloc), carrying whatever a previously
  // freed page held.
  const auto frame = kernel_.allocator().alloc(sim::FrameState::kKernel);
  if (!frame) return false;
  const auto page = std::as_const(kernel_).memory().page(*frame);

  // Everything after the initialised header reaches the attacker's disk.
  capture_.insert(capture_.end(), page.begin() + kInitializedHeader, page.end());

  // make_empty then writes the "." / ".." header over the first bytes
  // (through the taint-aware fill so the overwritten shadow clears too).
  kernel_.memory().fill(*frame, 0, kInitializedHeader, std::byte{0x2E});  // '.' entries

  frames_.push_back(*frame);
  return true;
}

std::size_t Ext2DirectoryLeak::create_directories(std::size_t n) {
  std::size_t ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!create_directory()) break;
    ++ok;
  }
  return ok;
}

void Ext2DirectoryLeak::release() {
  for (const sim::FrameNumber f : frames_) {
    kernel_.allocator().free(f, sim::FreeKind::kHot);
  }
  frames_.clear();
}

NttyLeak::Region NttyLeak::choose_region(util::Rng& rng) const {
  const std::size_t mem = kernel_.memory().size_bytes();
  double frac = cfg_.mean_fraction + cfg_.stddev_fraction * rng.next_gaussian();
  frac = std::clamp(frac, cfg_.min_fraction, cfg_.max_fraction);
  std::size_t length = static_cast<std::size_t>(frac * static_cast<double>(mem));
  length = std::min(length, mem);
  const std::size_t max_offset = mem - length;
  const std::size_t offset = rng.next_below(max_offset + 1);
  return {offset, length};
}

std::vector<std::byte> NttyLeak::dump(util::Rng& rng) const {
  const Region r = choose_region(rng);
  const auto view = kernel_.memory().range(r.offset, r.length);
  return {view.begin(), view.end()};
}

}  // namespace keyguard::attack
