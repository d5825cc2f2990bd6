// Randomized invariant tests for the simulator's trickiest machinery:
// copy-on-write fork trees, the heap allocator against a reference model,
// whole-simulation determinism, and graceful behaviour at memory
// exhaustion. Parameterised over seeds so each case runs as several
// independent trials.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/kernel.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::sim {
namespace {

class SimFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// -- COW fork trees -----------------------------------------------------------

TEST_P(SimFuzz, CowForkTreeContentIsolation) {
  // Random forks, writes and exits; every process's view must match a
  // host-side shadow copy at every step, and refcounts must stay sane.
  KernelConfig cfg;
  cfg.mem_bytes = 8ull << 20;
  Kernel k(cfg, GetParam());
  util::Rng rng(GetParam() * 31 + 7);

  struct Shadow {
    Process* proc;
    std::vector<std::byte> expect;  // expected content of the region
  };
  std::vector<Shadow> shadows;

  auto& root = k.spawn("root");
  const std::size_t region_bytes = 4 * kPageSize;
  const VirtAddr region = k.mmap_anon(root, region_bytes, false);
  ASSERT_NE(region, 0u);
  shadows.push_back({&root, std::vector<std::byte>(region_bytes, std::byte{0})});

  for (int step = 0; step < 120; ++step) {
    const auto action = rng.next_below(10);
    if (action < 3 && shadows.size() < 12) {
      // fork a random live process
      const auto idx = rng.next_below(shadows.size());
      auto& child = k.fork(*shadows[idx].proc, "child");
      shadows.push_back({&child, shadows[idx].expect});
    } else if (action < 8) {
      // random write in a random process
      const auto idx = rng.next_below(shadows.size());
      const std::size_t off = rng.next_below(region_bytes - 64);
      std::vector<std::byte> data(1 + rng.next_below(64));
      rng.fill_bytes(data);
      k.mem_write(*shadows[idx].proc, region + off, data);
      std::copy(data.begin(), data.end(), shadows[idx].expect.begin() + static_cast<std::ptrdiff_t>(off));
    } else if (shadows.size() > 1) {
      // exit a random non-root process
      const auto idx = 1 + rng.next_below(shadows.size() - 1);
      k.exit_process(*shadows[idx].proc);
      shadows.erase(shadows.begin() + static_cast<std::ptrdiff_t>(idx));
    }

    // Verify every live process sees exactly its own data.
    for (const auto& s : shadows) {
      std::vector<std::byte> got(region_bytes);
      k.mem_read(*s.proc, region, got);
      ASSERT_EQ(got, s.expect) << "step " << step;
    }
  }

  // Frame refcount audit: every mapped frame's refcount equals the number
  // of page-table entries referencing it, across all live processes.
  std::map<FrameNumber, std::uint32_t> counted;
  for (const auto& proc : k.processes()) {
    if (!proc->alive()) continue;
    for (const auto& [addr, pte] : proc->page_table()) {
      if (!pte.swapped) ++counted[pte.frame];
    }
  }
  for (const auto& [frame, n] : counted) {
    EXPECT_EQ(k.allocator().refcount(frame), n) << "frame " << frame;
    EXPECT_FALSE(k.allocator().is_free(frame));
  }
}

// -- heap allocator vs reference model ----------------------------------------

TEST_P(SimFuzz, HeapAllocatorAgainstReferenceModel) {
  KernelConfig cfg;
  cfg.mem_bytes = 8ull << 20;
  Kernel k(cfg, GetParam());
  util::Rng rng(GetParam() * 131 + 3);
  auto& p = k.spawn("p");

  // Reference: live chunks as [addr, addr+size) intervals.
  std::map<VirtAddr, std::size_t> live;
  for (int step = 0; step < 800; ++step) {
    if (live.empty() || rng.next_bool(0.6)) {
      const std::size_t size = 1 + rng.next_below(2000);
      const VirtAddr a = k.heap_alloc(p, size);
      if (a == 0) continue;  // heap exhausted: acceptable
      const std::size_t got = k.heap_chunk_size(p, a);
      ASSERT_GE(got, size);
      // No overlap with any live chunk.
      const auto next = live.lower_bound(a);
      if (next != live.end()) {
        ASSERT_LE(a + got, next->first);
      }
      if (next != live.begin()) {
        const auto prev = std::prev(next);
        ASSERT_LE(prev->first + prev->second, a);
      }
      live[a] = got;
      // Writing the whole chunk must not disturb neighbours (checked
      // implicitly by the overlap assertions plus content checks below).
      std::vector<std::byte> fill(got);
      rng.fill_bytes(fill);
      k.mem_write(p, a, fill);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(live.size())));
      if (rng.next_bool()) {
        k.heap_free(p, it->first);
      } else {
        k.heap_clear_free(p, it->first);
      }
      live.erase(it);
    }
  }
  EXPECT_EQ(p.heap().live_chunks(), live.size());
}

// -- determinism ---------------------------------------------------------------

TEST_P(SimFuzz, IdenticalSeedsGiveIdenticalMemories) {
  auto run = [&](std::uint64_t seed) {
    KernelConfig cfg;
    cfg.mem_bytes = 4ull << 20;
    Kernel k(cfg, seed);
    util::Rng rng(seed + 1);
    auto& a = k.spawn("a");
    std::vector<Process*> procs{&a};
    k.mmap_anon(a, 2 * kPageSize, false);
    for (int i = 0; i < 200; ++i) {
      const auto action = rng.next_below(5);
      auto* proc = procs[rng.next_below(procs.size())];
      if (!proc->alive()) continue;
      switch (action) {
        case 0: {
          if (procs.size() < 8) procs.push_back(&k.fork(*proc, "f"));
          break;
        }
        case 1: {
          const VirtAddr addr = k.heap_alloc(*proc, 64 + rng.next_below(512));
          if (addr != 0) {
            std::vector<std::byte> data(32);
            rng.fill_bytes(data);
            k.mem_write(*proc, addr, data);
          }
          break;
        }
        case 2: {
          if (procs.size() > 1 && proc != procs.front()) k.exit_process(*proc);
          break;
        }
        default: {
          const VirtAddr addr = k.heap_alloc(*proc, 128);
          if (addr != 0) k.heap_free(*proc, addr);
          break;
        }
      }
    }
    return util::fnv1a(k.memory().all());
  };
  const auto seed = GetParam();
  EXPECT_EQ(run(seed), run(seed));
  // And a different seed gives (almost surely) a different memory image.
  EXPECT_NE(run(seed), run(seed + 12345));
}

// -- exhaustion / failure injection ---------------------------------------------

TEST_P(SimFuzz, GracefulAtPhysicalExhaustion) {
  KernelConfig cfg;
  cfg.mem_bytes = 32 * kPageSize;  // tiny machine
  Kernel k(cfg, GetParam());
  auto& p = k.spawn("p");
  // Grab everything.
  std::size_t mapped = 0;
  for (;;) {
    const VirtAddr a = k.mmap_anon(p, kPageSize, false);
    if (a == 0) break;
    ++mapped;
  }
  EXPECT_GT(mapped, 0u);
  EXPECT_EQ(k.allocator().free_count(), 0u);
  // Further allocation attempts fail cleanly.
  EXPECT_EQ(k.mmap_anon(p, kPageSize, false), 0u);
  // Page-cache fills fail cleanly too.
  std::vector<std::byte> content(kPageSize);
  EXPECT_FALSE(k.page_cache().populate("/f", content));
  // Exit releases everything.
  k.exit_process(p);
  EXPECT_EQ(k.allocator().free_count(), 32u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzz, ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace keyguard::sim
