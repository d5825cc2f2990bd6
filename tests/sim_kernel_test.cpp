#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

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

// The batched reverse map must equal one page-table walk per frame, list
// for list and in (process-table, vaddr) order: the scanner reads a
// match's first mapping as its provenance and the report prints owners
// in that order.
std::vector<Kernel::FrameMapping> walk_one_frame(const Kernel& k, FrameNumber f) {
  std::vector<Kernel::FrameMapping> out;
  for (const auto& p : k.processes()) {
    if (!p->alive()) continue;
    for (const auto& [addr, pte] : p->page_table()) {
      if (!pte.swapped && pte.frame == f) out.push_back({p->pid(), addr, pte.mlocked});
    }
  }
  return out;
}

void expect_batch_equals_walks(const Kernel& k, const std::vector<FrameNumber>& frames,
                               const std::string& label) {
  const auto batch = k.frame_mappings(frames);
  ASSERT_EQ(batch.size(), frames.size()) << label;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto want = walk_one_frame(k, frames[i]);
    const auto one = k.frame_mappings(frames[i]);
    ASSERT_EQ(batch[i].size(), want.size()) << label << ", frame " << frames[i];
    ASSERT_EQ(one.size(), want.size()) << label << ", frame " << frames[i];
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(batch[i][j].pid, want[j].pid) << label << ", frame " << frames[i] << " #" << j;
      EXPECT_EQ(batch[i][j].vaddr, want[j].vaddr) << label << ", frame " << frames[i] << " #" << j;
      EXPECT_EQ(batch[i][j].mlocked, want[j].mlocked) << label << ", frame " << frames[i];
      EXPECT_EQ(one[j].pid, want[j].pid) << label << ", frame " << frames[i];
      EXPECT_EQ(one[j].vaddr, want[j].vaddr) << label << ", frame " << frames[i];
    }
  }
}

/// A machine whose frames carry every kind of sharing the reverse map
/// reports, plus frames that lost theirs.
struct SharedMachine {
  KernelConfig cfg = [] {
    KernelConfig c = small_config();
    c.swap_pages = 16;
    return c;
  }();
  Kernel k{cfg};
  FrameNumber canonical = 0;  ///< dedup-merged: five mappings, one mlocked
  FrameNumber evicted = 0;    ///< swapped out: no mapping
  FrameNumber exited = 0;     ///< its process exited: no mapping
  bool merged = false;        ///< all three merges took
  std::size_t swapped = 0;    ///< pages the swap-out evicted

  SharedMachine() {
    const auto fill = [&](Process& p, VirtAddr a, std::size_t pages, char tag) {
      for (std::size_t i = 0; i < pages; ++i) {
        k.mem_write(p, a + i * kPageSize,
                    util::to_bytes(std::string(64, static_cast<char>(tag + i))));
      }
    };
    // Fork/COW: the child shares the parent's frames until it writes.
    auto& parent = k.spawn("parent");
    const VirtAddr pa = k.mmap_anon(parent, 4 * kPageSize, false);
    fill(parent, pa, 4, 'a');
    auto& child = k.fork(parent, "child");
    fill(child, pa + kPageSize, 1, 'x');  // one COW break
    // Dedup: two pages of one process and an mlocked page of another
    // merge onto the parent's first frame.
    auto& tenant = k.spawn("tenant");
    const VirtAddr ta = k.mmap_anon(tenant, 2 * kPageSize, false);
    fill(tenant, ta, 1, 'a');
    fill(tenant, ta + kPageSize, 1, 'a');
    auto& locked = k.spawn("locked");
    const VirtAddr la = k.mmap_anon(locked, kPageSize, true);
    fill(locked, la, 1, 'a');
    canonical = *k.translate(parent, pa);
    merged = k.merge_page(tenant, ta + kPageSize, canonical) &&
             k.merge_page(tenant, ta, canonical) && k.merge_page(locked, la, canonical);
    // Swap-out: an evicted page's old frame maps nothing.
    auto& swapper = k.spawn("swapper");
    const VirtAddr sa = k.mmap_anon(swapper, 3 * kPageSize, false);
    fill(swapper, sa, 3, 'm');
    evicted = *k.translate(swapper, sa);
    swapped = k.swap_out_pages(swapper, 1);
    // Exit: the process's frames lose their mappings.
    auto& gone = k.spawn("gone");
    const VirtAddr ga = k.mmap_anon(gone, 2 * kPageSize, false);
    fill(gone, ga, 2, 'q');
    exited = *k.translate(gone, ga);
    k.exit_process(gone);
  }
};

TEST(KernelReverseMap, BatchOverEveryFrameEqualsPerFrameWalksInOrder) {
  SharedMachine m;
  ASSERT_TRUE(m.merged);
  ASSERT_EQ(m.swapped, 1u);
  EXPECT_EQ(m.k.frame_mappings(m.canonical).size(), 5u);
  EXPECT_TRUE(m.k.frame_mappings(m.evicted).empty());
  EXPECT_TRUE(m.k.frame_mappings(m.exited).empty());
  // Every frame of the machine, most of them mapped by nothing.
  std::vector<FrameNumber> all(m.k.memory().page_count());
  for (std::size_t f = 0; f < all.size(); ++f) all[f] = static_cast<FrameNumber>(f);
  expect_batch_equals_walks(m.k, all, "all frames");
}

TEST(KernelReverseMap, SparseSubsetsEndsAndTheEmptyList) {
  SharedMachine m;
  ASSERT_TRUE(m.merged);
  const std::size_t frames = m.k.memory().page_count();
  util::Rng rng(29);
  for (int round = 0; round < 8; ++round) {
    std::vector<FrameNumber> some;
    for (std::size_t i = 0; i < frames; ++i) {
      const auto f = static_cast<FrameNumber>(i);
      if (f == m.canonical || f == m.evicted || f == m.exited || rng.next_below(16) == 0) {
        some.push_back(f);
      }
    }
    expect_batch_equals_walks(m.k, some, "subset " + std::to_string(round));
  }
  expect_batch_equals_walks(m.k, {0, static_cast<FrameNumber>(frames - 1)}, "ends");
  expect_batch_equals_walks(m.k, {m.canonical}, "one shared frame");
  EXPECT_TRUE(m.k.frame_mappings(std::span<const FrameNumber>{}).empty());
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
