#include "sim/physmem.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/taint_map.hpp"
#include "sim/kernel.hpp"
#include "sim/page_alloc.hpp"
#include "sim/swap.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::sim {
namespace {

/// Host pages of [p, p + bytes) that mincore() reports resident. Only
/// meaningful before anything reads the range: a read of an untouched
/// anonymous page maps the shared zero page, which mincore also counts.
template <class T>
std::size_t resident_pages(std::span<const T> s) {
  const auto host_page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t bytes = s.size_bytes();
  std::vector<unsigned char> vec((bytes + host_page - 1) / host_page);
  if (bytes == 0) return 0;
  EXPECT_EQ(::mincore(const_cast<T*>(s.data()), bytes, vec.data()), 0);
  return static_cast<std::size_t>(
      std::count_if(vec.begin(), vec.end(), [](unsigned char v) { return (v & 1) != 0; }));
}

/// mincore() over one simulated frame.
bool frame_resident(const PhysicalMemory& m, FrameNumber f) {
  return resident_pages(m.range(static_cast<std::size_t>(f) * kPageSize, kPageSize)) > 0;
}

bool written(const PhysicalMemory& m, FrameNumber f) {
  return ((m.written_bitmap()[f / 64] >> (f % 64)) & 1) != 0;
}

TEST(PhysicalMemory, SizeRoundsToPages) {
  PhysicalMemory m(kPageSize * 3 + 100);
  EXPECT_EQ(m.page_count(), 3u);
  EXPECT_EQ(m.size_bytes(), 3 * kPageSize);
}

TEST(PhysicalMemory, MinimumOnePage) {
  PhysicalMemory m(1);
  EXPECT_EQ(m.page_count(), 1u);
}

TEST(PhysicalMemory, StartsZeroed) {
  PhysicalMemory m(kPageSize * 4);
  EXPECT_TRUE(util::all_zero(m.all()));
}

TEST(PhysicalMemory, PageViewsAreDistinct) {
  PhysicalMemory m(kPageSize * 2);
  m.page(0)[0] = std::byte{0xAA};
  m.page(1)[0] = std::byte{0xBB};
  EXPECT_EQ(m.all()[0], std::byte{0xAA});
  EXPECT_EQ(m.all()[kPageSize], std::byte{0xBB});
}

TEST(PhysicalMemory, ClearPage) {
  PhysicalMemory m(kPageSize * 2);
  auto p = m.page(1);
  for (auto& b : p) b = std::byte{0xFF};
  m.clear_page(1);
  EXPECT_TRUE(util::all_zero(m.page(1)));
}

TEST(PhysicalMemory, RangeClamping) {
  PhysicalMemory m(kPageSize);
  EXPECT_EQ(m.range(0, 100).size(), 100u);
  EXPECT_EQ(m.range(kPageSize - 10, 100).size(), 10u);
  EXPECT_TRUE(m.range(kPageSize + 1, 10).empty());
}

TEST(PhysicalMemory, RangeAtOrPastEndIsEmpty) {
  PhysicalMemory m(kPageSize);
  EXPECT_TRUE(m.range(kPageSize, 1).empty());   // offset == size exactly
  EXPECT_TRUE(m.range(kPageSize, 0).empty());
  EXPECT_TRUE(m.range(SIZE_MAX, 10).empty());   // absurd offset
}

TEST(PhysicalMemory, RangeLenNearSizeMaxDoesNotOverflow) {
  // offset + len would wrap; the clamp must be computed as (size - offset)
  // and return the tail, never a wrapped empty/bogus span.
  PhysicalMemory m(kPageSize);
  EXPECT_EQ(m.range(0, SIZE_MAX).size(), kPageSize);
  EXPECT_EQ(m.range(kPageSize - 1, SIZE_MAX).size(), 1u);
  EXPECT_EQ(m.range(10, SIZE_MAX - 5).size(), kPageSize - 10);
  EXPECT_EQ(m.range(kPageSize - 1, SIZE_MAX).data(), m.all().data() + kPageSize - 1);
}

// The residency checks below are vacuous unless a written frame does read
// as resident: this is the positive control.
TEST(LazyMemory, WrittenFrameIsResidentAndOnlyIt) {
  PhysicalMemory m(kPageSize * 64);
  ASSERT_EQ(resident_pages(m.all()), 0u);
  m.page(5)[100] = std::byte{0x5A};
  EXPECT_TRUE(frame_resident(m, 5));
  EXPECT_EQ(resident_pages(m.all()), kPageSize / static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
  EXPECT_EQ(m.written_frames(), 1u);
}

TEST(LazyMemory, FreshMachineCommitsNothing) {
  KernelConfig cfg;
  cfg.mem_bytes = 256ull << 20;
  cfg.swap_pages = 4096;
  Kernel k(cfg, 7);
  analysis::ShadowTaintMap map(k);
  ASSERT_NE(k.swap(), nullptr);
  EXPECT_EQ(resident_pages(k.memory().all()), 0u);
  EXPECT_EQ(resident_pages(k.swap()->raw()), 0u);
  EXPECT_EQ(resident_pages(map.phys_shadow()), 0u);
  EXPECT_EQ(resident_pages(map.swap_shadow()), 0u);
  EXPECT_EQ(map.phys_shadow().size(), cfg.mem_bytes);
  EXPECT_EQ(map.swap_shadow().size(), cfg.swap_pages * kPageSize);
  EXPECT_EQ(k.memory().written_frames(), 0u);
}

TEST(LazyMemory, ClearOfUnwrittenFrameStaysUncommitted) {
  PhysicalMemory m(kPageSize * 64);
  m.clear_page(9);
  EXPECT_FALSE(frame_resident(m, 9));
  EXPECT_FALSE(written(m, 9));

  // clear_user_highpage on a user-anonymous allocation of a boot-fresh
  // frame: the frame is already zero, so nothing is committed.
  PageAllocator alloc(m, PageAllocPolicy{}, util::Rng(3));
  const auto frame = alloc.alloc(FrameState::kUserAnon);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame_resident(m, *frame));
  EXPECT_FALSE(written(m, *frame));
  EXPECT_EQ(resident_pages(m.all()), 0u);

  // A written frame is still cleared for real.
  m.page(*frame)[7] = std::byte{0xEE};
  m.clear_page(*frame);
  EXPECT_FALSE(written(m, *frame));
  EXPECT_EQ(std::as_const(m).page(*frame)[7], std::byte{0});
}

TEST(LazyMemory, ZeroSizedSwapShadow) {
  KernelConfig cfg;
  cfg.mem_bytes = 4ull << 20;
  Kernel k(cfg, 1);
  ASSERT_EQ(k.swap(), nullptr);
  analysis::ShadowTaintMap map(k);
  EXPECT_TRUE(map.swap_shadow().empty());
  EXPECT_EQ(map.phys_shadow().size(), cfg.mem_bytes);

  SwapDevice none(0);
  EXPECT_EQ(none.capacity(), 0u);
  EXPECT_TRUE(none.raw().empty());
  EXPECT_TRUE(none.full());
  EXPECT_FALSE(none.alloc_slot().has_value());
}

TEST(FrameStateName, AllNamed) {
  EXPECT_STREQ(frame_state_name(FrameState::kFree), "free");
  EXPECT_STREQ(frame_state_name(FrameState::kUserAnon), "user");
  EXPECT_STREQ(frame_state_name(FrameState::kPageCache), "pagecache");
  EXPECT_STREQ(frame_state_name(FrameState::kKernel), "kernel");
}

}  // namespace
}  // namespace keyguard::sim
