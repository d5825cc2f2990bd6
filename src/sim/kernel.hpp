// The simulated operating system kernel.
//
// One Kernel instance is one machine: physical memory, page allocator,
// page cache, VFS, and a process table. Servers and attacks interact with
// it exclusively through this façade (the "syscall boundary"), so every
// byte of key material that the paper's measurements depend on actually
// flows through simulated physical memory:
//
//   * fork() shares anonymous pages copy-on-write — the mechanism the
//     paper's RSA_memory_align defense deliberately exploits to keep ONE
//     physical copy of the key across any number of server children.
//   * mem_write() breaks COW exactly like a write fault would, which is
//     how Apache workers end up with private copies of key-bearing pages.
//   * exec() and exit_process() tear an address space down WITHOUT
//     clearing pages (unless the kernel-level defense is on), feeding the
//     population of key copies in unallocated memory.
//   * read_file() pulls file pages into the page cache and honours the
//     paper's O_NOCACHE flag when KernelConfig::o_nocache_supported.
//
// KernelConfig's two booleans are the paper's two kernel patches.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/page_alloc.hpp"
#include "sim/physmem.hpp"
#include "sim/process.hpp"
#include "sim/swap.hpp"
#include "sim/vfs.hpp"
#include "util/rng.hpp"

namespace keyguard::sim {

struct KernelConfig {
  /// Physical memory size. The paper's testbed had 256 MB; tests use less.
  std::size_t mem_bytes = 64ull << 20;
  /// Kernel-level defense: clear every page when it is freed
  /// (free_hot_cold_page -> clear_highpage, plus the zap_pte_range patch).
  bool zero_on_free = false;
  /// Integrated defense: the kernel honours O_NOCACHE on open/read and
  /// evicts + clears the file's page-cache entry right after the read.
  bool o_nocache_supported = false;
  /// See PageAllocPolicy::bulk_reuse_fraction (workload calibration).
  double bulk_reuse_fraction = 0.80;
  /// Page-cache budget in pages (0 = unlimited). When a read pushes the
  /// cache past the budget, the oldest entries are evicted — UNCLEARED on
  /// a stock kernel, so file contents (key files included) flow into
  /// unallocated memory without any process dying.
  std::size_t page_cache_limit_pages = 0;
  /// Swap device size in pages (0 = no swap configured).
  std::size_t swap_pages = 0;
  /// Provos-style swap encryption: slots are XORed with a keystream from a
  /// per-boot secret, so the on-disk image is useless offline.
  bool encrypt_swap = false;
};

// -- write-fault cost model ---------------------------------------------
//
// Simulated nanoseconds per page for the three ways a write can resolve.
// The absolute values are calibration, not measurement; what matters for
// the dedup side channel is the ORDER: a COW break (page copy + frame
// alloc) is ~25x a minor in-place write, which is exactly the timing gap
// Schwarzl et al.'s remote dedup attack thresholds on. A major fault
// (swap-in) is slower still.
inline constexpr std::uint64_t kWriteCostMinorNs = 120;
inline constexpr std::uint64_t kWriteCostCowBreakNs = 3'200;
inline constexpr std::uint64_t kWriteCostSwapInNs = 9'000;

class Kernel {
 public:
  explicit Kernel(KernelConfig cfg, std::uint64_t seed = 1);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // -- process lifecycle ----------------------------------------------------

  /// Creates a fresh process with an empty address space.
  Process& spawn(std::string name);

  /// fork(): duplicates the parent's address space copy-on-write.
  Process& fork(Process& parent, std::string name);

  /// execve(): tears down the address space (pages freed uncleared unless
  /// zero_on_free) and gives the process a fresh empty one. Models
  /// OpenSSH's re-exec-per-connection.
  void exec(Process& p);

  /// exit(): releases everything the process holds. Freed pages keep their
  /// contents (kBulk free into the buddy pool) unless zero_on_free.
  void exit_process(Process& p);

  Process* find_process(Pid pid);
  const Process* find_process(Pid pid) const;
  const std::vector<std::unique_ptr<Process>>& processes() const { return procs_; }
  std::size_t live_process_count() const;

  // -- memory mapping ---------------------------------------------------------

  /// Anonymous mapping of `bytes` (page-rounded), zero-filled, optionally
  /// mlocked (excluded from swap — the defense's posix_memalign + mlock
  /// page lives in one of these). Returns 0 on out-of-memory.
  VirtAddr mmap_anon(Process& p, std::size_t bytes, bool mlocked,
                     std::string label = "anon");

  /// Unmaps [addr, addr+bytes); single-page hot frees.
  void munmap(Process& p, VirtAddr addr, std::size_t bytes);

  /// mlock()/munlock() over an existing mapping.
  void mlock_range(Process& p, VirtAddr addr, std::size_t bytes, bool locked);

  // -- memory access (the only way simulated code touches memory) -----------

  /// Write with COW break-on-write semantics (and swap-in on fault).
  /// `taint` labels the written bytes in the attached shadow map: key
  /// material passes its source tag, ordinary data (the default) clears
  /// whatever taint the overwritten bytes carried.
  void mem_write(Process& p, VirtAddr addr, std::span<const std::byte> data,
                 TaintTag taint = TaintTag::kClean);

  /// Read through the page table; faults swapped pages back in.
  void mem_read(Process& p, VirtAddr addr, std::span<std::byte> out);

  /// What one timed write cost under the fault model above. The attacker's
  /// stopwatch: cost_ns is all a real co-tenant could observe.
  struct WriteTiming {
    std::size_t pages_touched = 0;
    std::size_t cow_breaks = 0;  ///< write faults that copied a shared page
    std::size_t swap_ins = 0;    ///< major faults
    std::uint64_t cost_ns = 0;
  };

  /// mem_write with the simulated write-fault cost model: identical memory
  /// semantics, plus a timing receipt. A write that lands on a merged
  /// (or forked) shared page pays kWriteCostCowBreakNs per broken page —
  /// the dedup side channel's measurable signal.
  WriteTiming mem_write_timed(Process& p, VirtAddr addr,
                              std::span<const std::byte> data,
                              TaintTag taint = TaintTag::kClean);

  /// Zero a range (explicit scrubbing, e.g. BN_clear_free / memset before
  /// free). Breaks COW like any write.
  void mem_zero(Process& p, VirtAddr addr, std::size_t len);

  // -- heap ------------------------------------------------------------------

  /// malloc() in p's heap. Returns 0 on exhaustion. `label` names the
  /// allocation for provenance reports and survives free().
  VirtAddr heap_alloc(Process& p, std::size_t size, std::string label = {});
  /// free(): contents untouched.
  void heap_free(Process& p, VirtAddr addr);
  /// BN_clear_free(): zero the chunk, then free it.
  void heap_clear_free(Process& p, VirtAddr addr);
  std::size_t heap_chunk_size(const Process& p, VirtAddr addr) const;

  /// realloc(): grows in place when the chunk already has room, otherwise
  /// allocates, copies, and frees the old chunk — WITHOUT clearing it.
  /// The abandoned original is yet another way secrets multiply (OpenSSL's
  /// bn_expand2 does exactly this when a BIGNUM grows). Returns 0 on
  /// exhaustion (the old chunk stays valid).
  VirtAddr heap_realloc(Process& p, VirtAddr addr, std::size_t new_size);

  // -- files -----------------------------------------------------------------

  /// open()+read()+close() of a whole file. Populates the page cache (the
  /// paper's "PEM file loaded into memory") unless O_NOCACHE is requested
  /// and supported, in which case the cache entry is evicted and cleared
  /// right after the read. Returns nullopt when the file does not exist.
  std::optional<std::vector<std::byte>> read_file(Process& p, const std::string& path,
                                                  int flags = kOpenReadOnly);

  Vfs& vfs() noexcept { return vfs_; }
  PageCache& page_cache() noexcept { return cache_; }
  const PageCache& page_cache() const noexcept { return cache_; }

  // -- swap ------------------------------------------------------------------

  /// Evicts up to `n` of `p`'s resident, non-mlocked, unshared anonymous
  /// pages to the swap device (lowest virtual addresses first, so eviction
  /// is deterministic). The vacated RAM frames are hot-freed UNCLEARED on
  /// a stock kernel — swapping duplicates secrets rather than moving them.
  /// Returns how many pages were evicted. No-op without a swap device.
  std::size_t swap_out_pages(Process& p, std::size_t n);

  /// Memory pressure across all live processes (round-robin).
  std::size_t swap_out_global(std::size_t n);

  /// The swap device (null when swap_pages == 0) — attacks read raw().
  SwapDevice* swap() noexcept { return swap_ ? &*swap_ : nullptr; }
  const SwapDevice* swap() const noexcept { return swap_ ? &*swap_ : nullptr; }
  std::size_t swap_used() const noexcept { return swap_ ? swap_->used() : 0; }

  // -- inspection (scanmemory's view) ----------------------------------------

  PhysicalMemory& memory() noexcept { return mem_; }
  const PhysicalMemory& memory() const noexcept { return mem_; }

  // -- shadow taint (see sim/taint.hpp; implementation in src/analysis) -----

  /// Attaches (or detaches, with nullptr) a shadow-taint tracker. The
  /// tracker observes every physical byte movement from this point on:
  /// attach it BEFORE the workload runs so no key flow predates the
  /// shadow. Fans out to the physical memory and the swap device.
  void attach_taint(TaintTracker* tracker) noexcept;
  TaintTracker* taint() const noexcept { return taint_; }

  /// Copies shadow taint for a virtual byte range that was just copied
  /// host-side (heap_realloc's read+write move). Both ranges must be
  /// resident. No-op without a tracker.
  void propagate_taint(const Process& p, VirtAddr dst, VirtAddr src, std::size_t len);
  PageAllocator& allocator() noexcept { return alloc_; }
  const PageAllocator& allocator() const noexcept { return alloc_; }
  const KernelConfig& config() const noexcept { return cfg_; }

  /// One (process, virtual page) pair mapping a frame. After dedup a
  /// frame can be mapped by several processes — or several pages of the
  /// SAME process — so attribution needs the full rmap, not just pids.
  struct FrameMapping {
    Pid pid = 0;
    VirtAddr vaddr = 0;
    bool mlocked = false;  ///< this PTE is mlocked
  };

  /// Reverse mapping: every live mapping of `frame`, in (process-table,
  /// vaddr) order (the paper's printOwningProcesses walks anon VMAs the
  /// same way). A one-frame call of the batched overload.
  std::vector<FrameMapping> frame_mappings(FrameNumber frame) const;

  /// The reverse maps of many frames from ONE pass over the page tables:
  /// out[i] is frame_mappings(frames[i]), in the same order. `frames`
  /// must be strictly ascending. A scan's hit frames and an audit's
  /// tainted frames ascend already, so resolving them costs one walk of
  /// every live PTE instead of one per frame.
  std::vector<std::vector<FrameMapping>> frame_mappings(
      std::span<const FrameNumber> frames) const;

  // -- dedup (KSM) support ---------------------------------------------------

  /// Repoints `p`'s PTE at `vaddr` onto `canonical` (contents must already
  /// be byte-identical — sim::DedupEngine byte-verifies first), marking
  /// the mapping COW and `canonical` merged (PageAllocator::merged). Refs
  /// canonical; unrefs (possibly frees, WITHOUT moving bytes) the
  /// duplicate frame. False when the page is unmapped, swapped, or already
  /// maps canonical.
  bool merge_page(Process& p, VirtAddr vaddr, FrameNumber canonical);

  /// Marks an existing resident mapping COW without moving it — the
  /// canonical side of a merge must fault on its next write too.
  bool set_page_cow(Process& p, VirtAddr vaddr);

  /// Cumulative COW breaks / swap-ins (the fault counters the timed write
  /// path snapshots; monotone for the life of the kernel).
  std::uint64_t cow_break_count() const noexcept { return cow_breaks_; }
  std::uint64_t swap_in_count() const noexcept { return swap_ins_; }
  /// Cumulative COW breaks on merged frames: a merge undone by a write,
  /// the event the dedup attack times (a fork-shared frame's break is not
  /// one).
  std::uint64_t unmerge_count() const noexcept { return unmerges_; }

  /// True when any live process maps the frame with mlock.
  bool frame_mlocked(FrameNumber frame) const;

  /// Physical frame backing a virtual address (nullopt when unmapped).
  std::optional<FrameNumber> translate(const Process& p, VirtAddr addr) const;

  /// Human-readable description of what lives at (p, addr): a labelled VMA
  /// ("rsa_aligned mapping"), a heap chunk ("mont:p (freed)"), or "anon".
  /// Nullopt when the address is unmapped. Powers the provenance column in
  /// scan reports — the paper's §3 "why are the attacks so powerful".
  std::optional<std::string> describe_address(const Process& p, VirtAddr addr) const;

 private:
  void map_fresh_pages(Process& p, VirtAddr start, std::size_t bytes, bool mlocked);
  void ensure_heap_pages(Process& p, std::size_t grown_bytes);
  /// Breaks COW for the page containing `addr` if needed; returns frame.
  FrameNumber frame_for_write(Process& p, VirtAddr page_addr);
  /// Major fault: brings a swapped page back into a fresh frame.
  void swap_in(Process& p, VirtAddr page_addr, Pte& pte);
  /// XORs a slot with its per-boot keystream (encrypt == decrypt).
  void crypt_slot(std::uint32_t slot);
  void release_address_space(Process& p);

  KernelConfig cfg_;
  PhysicalMemory mem_;
  PageAllocator alloc_;
  Vfs vfs_;
  PageCache cache_;
  std::optional<SwapDevice> swap_;
  std::uint64_t swap_secret_ = 0;
  TaintTracker* taint_ = nullptr;
  std::uint64_t cow_breaks_ = 0;
  std::uint64_t unmerges_ = 0;
  std::uint64_t swap_ins_ = 0;
  std::vector<std::unique_ptr<Process>> procs_;
  Pid next_pid_ = 1;
};

}  // namespace keyguard::sim
