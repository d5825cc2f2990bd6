#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/bytes.hpp"

namespace keyguard::sim {
namespace {

KernelConfig small_config() {
  KernelConfig cfg;
  cfg.mem_bytes = 4ull << 20;  // 4 MB is plenty for unit tests
  return cfg;
}

TEST(Kernel, SpawnGivesDistinctPids) {
  Kernel k(small_config());
  auto& a = k.spawn("a");
  auto& b = k.spawn("b");
  EXPECT_NE(a.pid(), b.pid());
  EXPECT_TRUE(a.alive());
  EXPECT_EQ(k.live_process_count(), 2u);
}

TEST(Kernel, MmapWriteReadRoundTrip) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  const VirtAddr a = k.mmap_anon(p, 3 * kPageSize, false);
  ASSERT_NE(a, 0u);
  const auto msg = util::to_bytes("hello across pages");
  k.mem_write(p, a + kPageSize - 5, msg);  // straddles a page boundary
  std::vector<std::byte> back(msg.size());
  k.mem_read(p, a + kPageSize - 5, back);
  EXPECT_EQ(back, msg);
}

TEST(Kernel, MmapPagesAreZeroed) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  const VirtAddr a = k.mmap_anon(p, kPageSize, false);
  std::vector<std::byte> buf(kPageSize);
  k.mem_read(p, a, buf);
  EXPECT_TRUE(util::all_zero(buf));
}

TEST(Kernel, HeapAllocWriteRead) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  const VirtAddr a = k.heap_alloc(p, 100);
  ASSERT_NE(a, 0u);
  const auto msg = util::to_bytes("secret");
  k.mem_write(p, a, msg);
  std::vector<std::byte> back(msg.size());
  k.mem_read(p, a, back);
  EXPECT_EQ(back, msg);
}

TEST(Kernel, ForkSharesPhysicalFrames) {
  Kernel k(small_config());
  auto& parent = k.spawn("parent");
  const VirtAddr a = k.mmap_anon(parent, kPageSize, false);
  k.mem_write(parent, a, util::to_bytes("shared"));
  auto& child = k.fork(parent, "child");
  const auto pf = k.translate(parent, a);
  const auto cf = k.translate(child, a);
  ASSERT_TRUE(pf && cf);
  EXPECT_EQ(*pf, *cf);  // same frame until someone writes
  EXPECT_EQ(k.allocator().refcount(*pf), 2u);
}

TEST(Kernel, CowBreaksOnChildWrite) {
  Kernel k(small_config());
  auto& parent = k.spawn("parent");
  const VirtAddr a = k.mmap_anon(parent, kPageSize, false);
  k.mem_write(parent, a, util::to_bytes("original"));
  auto& child = k.fork(parent, "child");

  k.mem_write(child, a, util::to_bytes("CHANGED!"));
  const auto pf = k.translate(parent, a);
  const auto cf = k.translate(child, a);
  ASSERT_TRUE(pf && cf);
  EXPECT_NE(*pf, *cf);  // child got a private copy
  // Parent still sees the original.
  std::vector<std::byte> buf(8);
  k.mem_read(parent, a, buf);
  EXPECT_EQ(buf, util::to_bytes("original"));
  k.mem_read(child, a, buf);
  EXPECT_EQ(buf, util::to_bytes("CHANGED!"));
  EXPECT_EQ(k.allocator().refcount(*pf), 1u);
  EXPECT_EQ(k.allocator().refcount(*cf), 1u);
}

TEST(Kernel, CowCopyDuplicatesWholePageContent) {
  // The key-multiplication mechanism: writing ONE byte of a shared page
  // duplicates EVERY byte of it — including key material.
  Kernel k(small_config());
  auto& parent = k.spawn("parent");
  const VirtAddr a = k.mmap_anon(parent, kPageSize, false);
  const auto secret = util::to_bytes("PRIVATE-KEY-BYTES");
  k.mem_write(parent, a + 100, secret);
  auto& child = k.fork(parent, "child");
  const std::byte one{0xFF};
  k.mem_write(child, a, {&one, 1});  // touch an unrelated byte
  // Both physical frames now carry the secret.
  const auto hits = util::find_all(k.memory().all(), secret);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(Kernel, NoWriteMeansOneCopyAcrossManyForks) {
  // The defense's guarantee: read-only pages stay physically single.
  Kernel k(small_config());
  auto& parent = k.spawn("parent");
  const VirtAddr a = k.mmap_anon(parent, kPageSize, true);
  const auto secret = util::to_bytes("ALIGNED-KEY-PAGE");
  k.mem_write(parent, a, secret);
  for (int i = 0; i < 10; ++i) k.fork(parent, "child");
  EXPECT_EQ(util::find_all(k.memory().all(), secret).size(), 1u);
}

TEST(Kernel, LastWriterAfterForksOwnsFrame) {
  Kernel k(small_config());
  auto& parent = k.spawn("parent");
  const VirtAddr a = k.mmap_anon(parent, kPageSize, false);
  auto& c1 = k.fork(parent, "c1");
  auto& c2 = k.fork(parent, "c2");
  k.mem_write(c1, a, util::to_bytes("one"));
  k.mem_write(c2, a, util::to_bytes("two"));
  k.mem_write(parent, a, util::to_bytes("par"));
  // All three diverged; frames distinct, refcounts 1.
  const auto f0 = *k.translate(parent, a);
  const auto f1 = *k.translate(c1, a);
  const auto f2 = *k.translate(c2, a);
  EXPECT_NE(f0, f1);
  EXPECT_NE(f1, f2);
  EXPECT_NE(f0, f2);
  EXPECT_EQ(k.allocator().refcount(f0), 1u);
}

TEST(Kernel, ExitFreesPagesWithoutClearing) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  const VirtAddr a = k.heap_alloc(p, 64);
  const auto secret = util::to_bytes("residual-secret!");
  k.mem_write(p, a, secret);
  const auto frame = *k.translate(p, a);
  k.exit_process(p);
  EXPECT_FALSE(p.alive());
  EXPECT_TRUE(k.allocator().is_free(frame));
  // Data lives on in unallocated memory — the paper's core observation.
  EXPECT_FALSE(util::find_all(k.memory().all(), secret).empty());
}

TEST(Kernel, ExitWithZeroOnFreeScrubs) {
  KernelConfig cfg = small_config();
  cfg.zero_on_free = true;
  Kernel k(cfg);
  auto& p = k.spawn("p");
  const VirtAddr a = k.heap_alloc(p, 64);
  const auto secret = util::to_bytes("residual-secret!");
  k.mem_write(p, a, secret);
  k.exit_process(p);
  EXPECT_TRUE(util::find_all(k.memory().all(), secret).empty());
}

TEST(Kernel, ExecTearsDownAddressSpace) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  k.heap_alloc(p, 64);
  k.mmap_anon(p, kPageSize, false);
  EXPECT_GT(p.resident_pages(), 0u);
  k.exec(p);
  EXPECT_EQ(p.resident_pages(), 0u);
  EXPECT_TRUE(p.alive());
  // Heap is reset: next allocation starts at the base again.
  EXPECT_EQ(k.heap_alloc(p, 16), kHeapBase);
}

TEST(Kernel, ExitSharedFramesSurviveUntilLastOwner) {
  Kernel k(small_config());
  auto& parent = k.spawn("parent");
  const VirtAddr a = k.mmap_anon(parent, kPageSize, false);
  k.mem_write(parent, a, util::to_bytes("keep me"));
  auto& child = k.fork(parent, "child");
  const auto frame = *k.translate(parent, a);
  k.exit_process(child);
  EXPECT_FALSE(k.allocator().is_free(frame));  // parent still maps it
  std::vector<std::byte> buf(7);
  k.mem_read(parent, a, buf);
  EXPECT_EQ(buf, util::to_bytes("keep me"));
  k.exit_process(parent);
  EXPECT_TRUE(k.allocator().is_free(frame));
}

TEST(Kernel, MunmapFreesHot) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  const VirtAddr a = k.mmap_anon(p, 2 * kPageSize, false);
  const auto f0 = *k.translate(p, a);
  k.munmap(p, a, 2 * kPageSize);
  EXPECT_TRUE(k.allocator().is_free(f0));
  EXPECT_FALSE(k.translate(p, a).has_value());
}

TEST(Kernel, MlockReflectedInPteAndQuery) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  const VirtAddr a = k.mmap_anon(p, kPageSize, true, "keypage");
  const auto f = *k.translate(p, a);
  EXPECT_TRUE(k.frame_mlocked(f));
  k.mlock_range(p, a, kPageSize, false);
  EXPECT_FALSE(k.frame_mlocked(f));
  k.mlock_range(p, a, kPageSize, true);
  EXPECT_TRUE(k.frame_mlocked(f));
}

TEST(Kernel, FrameOwnersReverseMapping) {
  Kernel k(small_config());
  auto& parent = k.spawn("parent");
  const VirtAddr a = k.mmap_anon(parent, kPageSize, false);
  auto& child = k.fork(parent, "child");
  const auto f = *k.translate(parent, a);
  const auto mappings = k.frame_mappings(f);
  EXPECT_EQ(mappings.size(), 2u);
  const auto maps_pid = [&](Pid pid) {
    return std::any_of(mappings.begin(), mappings.end(),
                       [pid](const auto& m) { return m.pid == pid; });
  };
  EXPECT_TRUE(maps_pid(parent.pid()));
  EXPECT_TRUE(maps_pid(child.pid()));
  k.exit_process(child);
  EXPECT_EQ(k.frame_mappings(f).size(), 1u);
}

TEST(Kernel, ReadFilePopulatesPageCache) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  k.vfs().write_file("/etc/key.pem", util::to_bytes("PEM CONTENT HERE"));
  const auto data = k.read_file(p, "/etc/key.pem");
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, util::to_bytes("PEM CONTENT HERE"));
  EXPECT_TRUE(k.page_cache().cached("/etc/key.pem"));
  // The file content is now findable in physical memory.
  EXPECT_FALSE(util::find_all(k.memory().all(), util::to_bytes("PEM CONTENT HERE")).empty());
}

TEST(Kernel, ReadFileMissingReturnsNullopt) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  EXPECT_FALSE(k.read_file(p, "/nope").has_value());
}

TEST(Kernel, ONocacheIgnoredWithoutKernelSupport) {
  Kernel k(small_config());  // o_nocache_supported = false
  auto& p = k.spawn("p");
  k.vfs().write_file("/key", util::to_bytes("SENSITIVE"));
  k.read_file(p, "/key", kOpenNoCache);
  EXPECT_TRUE(k.page_cache().cached("/key"));  // old kernel: flag is a no-op
}

TEST(Kernel, ONocacheEvictsAndClearsWithSupport) {
  KernelConfig cfg = small_config();
  cfg.o_nocache_supported = true;
  Kernel k(cfg);
  auto& p = k.spawn("p");
  k.vfs().write_file("/key", util::to_bytes("SENSITIVE"));
  const auto data = k.read_file(p, "/key", kOpenNoCache);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, util::to_bytes("SENSITIVE"));
  EXPECT_FALSE(k.page_cache().cached("/key"));
  // Cleared, not just evicted: no trace in physical memory.
  EXPECT_TRUE(util::find_all(k.memory().all(), util::to_bytes("SENSITIVE")).empty());
}

TEST(Kernel, HeapClearFreeScrubsBytes) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  const VirtAddr a = k.heap_alloc(p, 64);
  const auto secret = util::to_bytes("BN_clear_free me");
  k.mem_write(p, a, secret);
  k.heap_clear_free(p, a);
  EXPECT_TRUE(util::find_all(k.memory().all(), secret).empty());
}

TEST(Kernel, HeapFreeLeavesBytes) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  const VirtAddr a = k.heap_alloc(p, 64);
  const auto secret = util::to_bytes("plain free leaves");
  k.mem_write(p, a, secret);
  k.heap_free(p, a);
  EXPECT_FALSE(util::find_all(k.memory().all(), secret).empty());
}

TEST(Kernel, MemZeroBreaksCow) {
  Kernel k(small_config());
  auto& parent = k.spawn("parent");
  const VirtAddr a = k.mmap_anon(parent, kPageSize, false);
  k.mem_write(parent, a, util::to_bytes("Z"));
  auto& child = k.fork(parent, "child");
  k.mem_zero(child, a, 1);
  std::vector<std::byte> buf(1);
  k.mem_read(parent, a, buf);
  EXPECT_EQ(buf[0], std::byte{'Z'});  // parent unaffected
  k.mem_read(child, a, buf);
  EXPECT_EQ(buf[0], std::byte{0});
}

TEST(Kernel, ForkInheritsHeapLayout) {
  Kernel k(small_config());
  auto& parent = k.spawn("parent");
  const VirtAddr a = k.heap_alloc(parent, 40);
  k.mem_write(parent, a, util::to_bytes("inherited"));
  auto& child = k.fork(parent, "child");
  std::vector<std::byte> buf(9);
  k.mem_read(child, a, buf);
  EXPECT_EQ(buf, util::to_bytes("inherited"));
  EXPECT_EQ(k.heap_chunk_size(child, a), k.heap_chunk_size(parent, a));
}

TEST(Kernel, TranslateUnmappedIsNullopt) {
  Kernel k(small_config());
  auto& p = k.spawn("p");
  EXPECT_FALSE(k.translate(p, 0xdead0000).has_value());
}

}  // namespace
}  // namespace keyguard::sim
