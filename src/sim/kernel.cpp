#include "sim/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"

namespace keyguard::sim {
namespace {

VirtAddr page_floor(VirtAddr a) { return a & ~static_cast<VirtAddr>(kPageSize - 1); }
std::size_t page_round(std::size_t n) { return (n + kPageSize - 1) / kPageSize * kPageSize; }

/// One kernel-event tick into the global registry. Disabled registry =
/// one relaxed load; enabled = one relaxed add via a static-cached
/// instrument reference (counter() references are stable for the
/// registry's lifetime, so caching per call site is sound).
#define KEYGUARD_KERNEL_COUNT(name)                                   \
  do {                                                                \
    auto& kg_reg = ::keyguard::obs::MetricsRegistry::global();        \
    if (kg_reg.enabled()) {                                           \
      static ::keyguard::obs::Counter& kg_c = kg_reg.counter(name);   \
      kg_c.add(1);                                                    \
    }                                                                 \
  } while (false)

}  // namespace

Kernel::Kernel(KernelConfig cfg, std::uint64_t seed)
    : cfg_(cfg),
      mem_(cfg.mem_bytes),
      alloc_(mem_, PageAllocPolicy{cfg.zero_on_free, cfg.bulk_reuse_fraction},
             util::Rng(seed)),
      cache_(mem_, alloc_) {
  if (cfg.swap_pages > 0) {
    swap_.emplace(cfg.swap_pages);
    // Per-boot swap-encryption secret (Provos'00): forgotten at "reboot".
    swap_secret_ = util::Rng(seed ^ 0x5157'4150'5345'4352ULL).next_u64();
  }
}

Process& Kernel::spawn(std::string name) {
  procs_.push_back(std::make_unique<Process>(next_pid_++, std::move(name)));
  return *procs_.back();
}

Process& Kernel::fork(Process& parent, std::string name) {
  assert(parent.alive_);
  KEYGUARD_KERNEL_COUNT("kernel.forks");
  // Swapped pages fault back in before the fork duplicates the page
  // tables (real kernels share swap entries; one slot per PTE keeps this
  // model simple and changes nothing the experiments measure).
  for (auto& [addr, pte] : parent.pages_) {
    if (pte.swapped) swap_in(parent, addr, pte);
  }
  Process& child = spawn(std::move(name));
  // Share every anonymous page copy-on-write.
  child.pages_ = parent.pages_;
  for (auto& [addr, pte] : child.pages_) {
    alloc_.ref(pte.frame);
    pte.cow = true;
  }
  for (auto& [addr, pte] : parent.pages_) pte.cow = true;
  child.vmas_ = parent.vmas_;
  child.heap_ = parent.heap_;  // same chunk layout over the shared pages
  child.next_mmap_ = parent.next_mmap_;
  return child;
}

void Kernel::release_address_space(Process& p) {
  // zap_pte_range frees anonymous pages back to the buddy system without
  // clearing them (unless the kernel defense is active, in which case
  // PageAllocator zeroes at free). Swap slots are released WITHOUT being
  // scrubbed — a stock kernel never wipes swap, so the disk keeps the
  // bytes (Gutmann'96's point about disk remnants).
  // Detach the page table BEFORE releasing frames: the kFrameFreed
  // publish inside unref must see post-free state (frame_mlocked and
  // owner queries would otherwise observe the dying mappings).
  const auto pages = std::move(p.pages_);
  p.pages_.clear();
  for (const auto& [addr, pte] : pages) {
    if (pte.swapped) {
      // A stock kernel never wipes the slot; the zero-on-free defense
      // scrubs it eagerly, same as it clears the RAM frames below.
      swap_->free_slot(pte.swap_slot, /*scrub=*/cfg_.zero_on_free);
    } else {
      alloc_.unref(pte.frame, FreeKind::kBulk);
    }
  }
  p.vmas_.clear();
  p.heap_ = HeapAllocator(kHeapBase, kHeapCapacity);
  p.next_mmap_ = kMmapBase;
}

void Kernel::exec(Process& p) {
  assert(p.alive_);
  KEYGUARD_KERNEL_COUNT("kernel.execs");
  release_address_space(p);
}

void Kernel::exit_process(Process& p) {
  if (!p.alive_) return;
  exec(p);  // same teardown
  p.alive_ = false;
}

Process* Kernel::find_process(Pid pid) {
  for (auto& p : procs_) {
    if (p->pid() == pid) return p.get();
  }
  return nullptr;
}

const Process* Kernel::find_process(Pid pid) const {
  for (const auto& p : procs_) {
    if (p->pid() == pid) return p.get();
  }
  return nullptr;
}

std::size_t Kernel::live_process_count() const {
  std::size_t n = 0;
  for (const auto& p : procs_) n += p->alive() ? 1 : 0;
  return n;
}

void Kernel::map_fresh_pages(Process& p, VirtAddr start, std::size_t bytes, bool mlocked) {
  for (VirtAddr a = start; a < start + bytes; a += kPageSize) {
    const auto frame = alloc_.alloc(FrameState::kUserAnon);
    assert(frame && "simulated physical memory exhausted");
    if (!frame) return;
    p.pages_[a] = Pte{*frame, /*cow=*/false, mlocked};
  }
}

VirtAddr Kernel::mmap_anon(Process& p, std::size_t bytes, bool mlocked, std::string label) {
  assert(p.alive_);
  const std::size_t len = page_round(bytes == 0 ? 1 : bytes);
  if (alloc_.free_count() * kPageSize < len) return 0;
  const VirtAddr addr = p.next_mmap_;
  p.next_mmap_ += len + kPageSize;  // guard gap
  map_fresh_pages(p, addr, len, mlocked);
  p.vmas_.push_back(Vma{addr, len, mlocked, std::move(label)});
  return addr;
}

void Kernel::munmap(Process& p, VirtAddr addr, std::size_t bytes) {
  const std::size_t len = page_round(bytes);
  for (VirtAddr a = page_floor(addr); a < addr + len; a += kPageSize) {
    const auto it = p.pages_.find(a);
    if (it == p.pages_.end()) continue;
    // Erase the PTE first: unref publishes kFrameFreed, and observers
    // querying frame_mlocked() must see the mapping already gone.
    const Pte pte = it->second;
    p.pages_.erase(it);
    if (pte.swapped) {
      swap_->free_slot(pte.swap_slot, /*scrub=*/cfg_.zero_on_free);
    } else {
      alloc_.unref(pte.frame, FreeKind::kHot);
    }
  }
  std::erase_if(p.vmas_, [&](const Vma& v) { return v.start == page_floor(addr); });
}

void Kernel::mlock_range(Process& p, VirtAddr addr, std::size_t bytes, bool locked) {
  const std::size_t len = page_round(bytes);
  auto& bus = obs::EventBus::global();
  for (VirtAddr a = page_floor(addr); a < addr + len; a += kPageSize) {
    const auto it = p.pages_.find(a);
    if (it != p.pages_.end()) {
      it->second.mlocked = locked;
      // mlock is classification state, not bytes: no taint hook fires, so
      // invariant watchers need the bus to re-evaluate the frame.
      if (!it->second.swapped && bus.enabled()) {
        bus.publish(obs::ObsEventKind::kMlockChanged, it->second.frame,
                    locked ? 1 : 0);
      }
    }
  }
  for (auto& vma : p.vmas_) {
    if (vma.start >= page_floor(addr) && vma.start < addr + len) vma.mlocked = locked;
  }
}

void Kernel::crypt_slot(std::uint32_t slot) {
  // XOR keystream derived from the boot secret and the slot number;
  // applying it twice round-trips, so one routine encrypts and decrypts.
  auto bytes = swap_->slot(slot);
  util::Rng stream(swap_secret_ ^ (0x9e3779b97f4a7c15ULL * (slot + 1)));
  std::size_t i = 0;
  while (i + 8 <= bytes.size()) {
    const std::uint64_t w = stream.next_u64();
    for (int b = 0; b < 8; ++b) bytes[i + b] ^= static_cast<std::byte>(w >> (8 * b));
    i += 8;
  }
}

void Kernel::swap_in(Process& p, VirtAddr page_addr, Pte& pte) {
  assert(pte.swapped && swap_.has_value());
  KEYGUARD_KERNEL_COUNT("kernel.swap_in_pages");
  ++swap_ins_;
  (void)p;
  (void)page_addr;
  const auto frame = alloc_.alloc(FrameState::kUserAnon);
  assert(frame && "no memory for swap-in");
  if (cfg_.encrypt_swap) crypt_slot(pte.swap_slot);
  const auto src = swap_->slot(pte.swap_slot);
  std::memcpy(mem_.page(*frame).data(), src.data(), kPageSize);
  if (taint_) {
    taint_->on_swap_load(static_cast<std::size_t>(*frame) * kPageSize, pte.swap_slot);
  }
  if (auto& bus = obs::EventBus::global(); bus.enabled()) {
    bus.publish(obs::ObsEventKind::kSwapIn, pte.swap_slot, *frame);
  }
  // On a stock kernel the slot is released but NOT scrubbed: the plaintext
  // (or ciphertext, under encryption) stays on disk until the slot is
  // reused. The zero-on-free defense scrubs it here too.
  if (cfg_.encrypt_swap) crypt_slot(pte.swap_slot);  // restore ciphertext
  swap_->free_slot(pte.swap_slot, /*scrub=*/cfg_.zero_on_free);
  pte.swapped = false;
  pte.swap_slot = 0;
  pte.frame = *frame;
}

std::size_t Kernel::swap_out_pages(Process& p, std::size_t n) {
  if (!swap_ || !p.alive_) return 0;
  std::size_t done = 0;
  for (auto& [addr, pte] : p.pages_) {
    if (done >= n || swap_->full()) break;
    // mlock()ed pages are pinned — the defense's whole point — and shared
    // (COW or dedup-merged) frames are skipped to keep eviction semantics
    // simple: merged frames never reach the swap device.
    if (pte.swapped || pte.mlocked) continue;
    if (alloc_.refcount(pte.frame) > 1) {
      KEYGUARD_KERNEL_COUNT("kernel.swap_skip_shared");
      continue;
    }
    const auto slot = swap_->alloc_slot();
    if (!slot) break;
    KEYGUARD_KERNEL_COUNT("kernel.swap_out_pages");
    std::memcpy(swap_->slot(*slot).data(), mem_.page(pte.frame).data(), kPageSize);
    if (taint_) {
      taint_->on_swap_store(*slot, static_cast<std::size_t>(pte.frame) * kPageSize);
    }
    if (auto& bus = obs::EventBus::global(); bus.enabled()) {
      bus.publish(obs::ObsEventKind::kSwapOut, *slot, pte.frame);
    }
    if (cfg_.encrypt_swap) crypt_slot(*slot);
    // The vacated frame keeps its content on a stock kernel: swapping
    // DUPLICATES the page (RAM residue + disk copy), it does not move it.
    // Re-point the PTE before unref so the kFrameFreed publish sees the
    // frame already unmapped (no stale mlocked/owner state).
    const FrameNumber old = pte.frame;
    pte.swapped = true;
    pte.swap_slot = *slot;
    pte.frame = 0;
    alloc_.unref(old, FreeKind::kHot);
    ++done;
  }
  return done;
}

std::size_t Kernel::swap_out_global(std::size_t n) {
  std::size_t done = 0;
  for (auto& proc : procs_) {
    if (done >= n) break;
    if (!proc->alive()) continue;
    done += swap_out_pages(*proc, n - done);
  }
  return done;
}

FrameNumber Kernel::frame_for_write(Process& p, VirtAddr page_addr) {
  auto it = p.pages_.find(page_addr);
  assert(it != p.pages_.end() && "write to unmapped page");
  Pte& pte = it->second;
  if (pte.swapped) swap_in(p, page_addr, pte);
  if (pte.cow) {
    if (alloc_.refcount(pte.frame) > 1) {
      // Write fault on a shared page: copy it. This duplication is exactly
      // how key bytes multiply across forked servers.
      KEYGUARD_KERNEL_COUNT("kernel.cow_breaks");
      ++cow_breaks_;
      const auto fresh = alloc_.alloc(FrameState::kUserAnon);
      assert(fresh && "simulated physical memory exhausted");
      const auto src = mem_.page(pte.frame);
      auto dst = mem_.page(*fresh);
      std::memcpy(dst.data(), src.data(), kPageSize);
      if (taint_) {
        // The shadow duplicates with the page — a COW break on a
        // key-bearing page mints a second tainted frame.
        taint_->on_phys_copy(static_cast<std::size_t>(*fresh) * kPageSize,
                             static_cast<std::size_t>(pte.frame) * kPageSize, kPageSize);
      }
      if (cow_obs_ != nullptr) cow_obs_->on_cow_break(pte.frame, *fresh);
      if (auto& bus = obs::EventBus::global(); bus.enabled()) {
        bus.publish(obs::ObsEventKind::kCowBreak, pte.frame, *fresh);
      }
      // Re-point the PTE before unref: the frame stays shared here (refcount
      // > 1 drops by one), but the same ordering rule applies everywhere a
      // mapping lets go of a frame.
      const FrameNumber old = pte.frame;
      pte.frame = *fresh;
      alloc_.unref(old, FreeKind::kHot);
    }
    pte.cow = false;
  }
  return pte.frame;
}

void Kernel::mem_write(Process& p, VirtAddr addr, std::span<const std::byte> data,
                       TaintTag taint) {
  assert(p.alive_);
  std::size_t done = 0;
  while (done < data.size()) {
    const VirtAddr cur = addr + done;
    const VirtAddr page_addr = page_floor(cur);
    const std::size_t off = cur - page_addr;
    const std::size_t n = std::min(kPageSize - off, data.size() - done);
    const FrameNumber frame = frame_for_write(p, page_addr);
    std::memcpy(mem_.page(frame).data() + off, data.data() + done, n);
    if (taint_) {
      taint_->on_phys_store(static_cast<std::size_t>(frame) * kPageSize + off, n, taint);
    }
    done += n;
  }
}

Kernel::WriteTiming Kernel::mem_write_timed(Process& p, VirtAddr addr,
                                            std::span<const std::byte> data,
                                            TaintTag taint) {
  const std::uint64_t cow0 = cow_breaks_;
  const std::uint64_t swap0 = swap_ins_;
  mem_write(p, addr, data, taint);
  WriteTiming t;
  const VirtAddr first = page_floor(addr);
  const VirtAddr last = page_floor(addr + (data.empty() ? 0 : data.size() - 1));
  t.pages_touched = static_cast<std::size_t>((last - first) / kPageSize + 1);
  t.cow_breaks = static_cast<std::size_t>(cow_breaks_ - cow0);
  t.swap_ins = static_cast<std::size_t>(swap_ins_ - swap0);
  t.cost_ns = t.pages_touched * kWriteCostMinorNs +
              t.cow_breaks * kWriteCostCowBreakNs +
              t.swap_ins * kWriteCostSwapInNs;
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("kernel.timed_writes").add(1);
    if (t.cow_breaks > 0) reg.counter("kernel.write_faults").add(t.cow_breaks);
    reg.histogram("kernel.timed_write_ns").record(static_cast<double>(t.cost_ns));
  }
  return t;
}

void Kernel::mem_read(Process& p, VirtAddr addr, std::span<std::byte> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const VirtAddr cur = addr + done;
    const VirtAddr page_addr = page_floor(cur);
    const std::size_t off = cur - page_addr;
    const std::size_t n = std::min(kPageSize - off, out.size() - done);
    const auto it = p.pages_.find(page_addr);
    assert(it != p.pages_.end() && "read from unmapped page");
    if (it->second.swapped) swap_in(p, page_addr, it->second);
    std::memcpy(out.data() + done, mem_.page(it->second.frame).data() + off, n);
    done += n;
  }
}

void Kernel::mem_zero(Process& p, VirtAddr addr, std::size_t len) {
  std::vector<std::byte> zeros(std::min<std::size_t>(len, kPageSize), std::byte{0});
  std::size_t done = 0;
  while (done < len) {
    const std::size_t n = std::min(zeros.size(), len - done);
    mem_write(p, addr + done, std::span<const std::byte>(zeros).first(n));
    done += n;
  }
}

void Kernel::ensure_heap_pages(Process& p, std::size_t grown_bytes) {
  if (grown_bytes == 0) return;
  const VirtAddr old_end =
      kHeapBase + page_round(p.heap_.high_water() - kHeapBase) - grown_bytes;
  map_fresh_pages(p, old_end, grown_bytes, /*mlocked=*/false);
}

VirtAddr Kernel::heap_alloc(Process& p, std::size_t size, std::string label) {
  assert(p.alive_);
  std::size_t grown = 0;
  const auto addr = p.heap_.alloc(size, grown, std::move(label));
  if (!addr) return 0;
  ensure_heap_pages(p, grown);
  return *addr;
}

void Kernel::heap_free(Process& p, VirtAddr addr) { p.heap_.free(addr); }

void Kernel::heap_clear_free(Process& p, VirtAddr addr) {
  const std::size_t size = p.heap_.chunk_size(addr);
  mem_zero(p, addr, size);
  p.heap_.free(addr);
}

std::size_t Kernel::heap_chunk_size(const Process& p, VirtAddr addr) const {
  return p.heap_.chunk_size(addr);
}

VirtAddr Kernel::heap_realloc(Process& p, VirtAddr addr, std::size_t new_size) {
  assert(p.alive_);
  const std::size_t old_size = p.heap_.chunk_size(addr);
  if (new_size <= old_size) return addr;  // shrink/fit in place
  const VirtAddr fresh = heap_alloc(p, new_size);
  if (fresh == 0) return 0;
  std::vector<std::byte> data(old_size);
  mem_read(p, addr, data);
  mem_write(p, fresh, data);
  // The copy went through host memory, so re-link the shadow: whatever
  // taint the old chunk carried now covers the new one too.
  propagate_taint(p, fresh, addr, old_size);
  // free() without clearing: the old bytes stay behind.
  p.heap_.free(addr);
  return fresh;
}

void Kernel::attach_taint(TaintTracker* tracker) noexcept {
  taint_ = tracker;
  mem_.set_taint_tracker(tracker);
  if (swap_) swap_->set_taint_tracker(tracker);
}

void Kernel::propagate_taint(const Process& p, VirtAddr dst, VirtAddr src,
                             std::size_t len) {
  if (!taint_) return;
  std::size_t done = 0;
  while (done < len) {
    const VirtAddr s = src + done;
    const VirtAddr d = dst + done;
    // Stay inside one page on BOTH sides per step.
    const std::size_t n = std::min({len - done, kPageSize - (s % kPageSize),
                                    kPageSize - (d % kPageSize)});
    const auto sf = translate(p, s);
    const auto df = translate(p, d);
    assert(sf && df && "propagate_taint over non-resident range");
    taint_->on_phys_copy(static_cast<std::size_t>(*df) * kPageSize + d % kPageSize,
                         static_cast<std::size_t>(*sf) * kPageSize + s % kPageSize, n);
    done += n;
  }
}

std::optional<std::vector<std::byte>> Kernel::read_file(Process& p, const std::string& path,
                                                        int flags) {
  assert(p.alive_);
  (void)p;
  const auto* content = vfs_.file(path);
  if (content == nullptr) return std::nullopt;
  // Read goes through the page cache, populating it as a side effect. The
  // cached frames inherit the file's taint tag (the PEM host key file is
  // the canonical tainted file).
  cache_.populate(path, *content, vfs_.taint_tag(path));
  std::vector<std::byte> out = cache_.read_cached(path);
  if ((flags & kOpenNoCache) != 0 && cfg_.o_nocache_supported) {
    // The paper's patch: remove_from_page_cache + clear_highpage + free.
    cache_.evict(path, /*clear_pages=*/true);
  }
  // Reclaim: shrink back under the budget, oldest first. The frames go
  // back uncleared (PageAllocator::free applies the zero-on-free policy
  // if the kernel defense is active).
  if (cfg_.page_cache_limit_pages > 0) {
    while (cache_.cached_pages() > cfg_.page_cache_limit_pages) {
      if (!cache_.evict_oldest(/*clear_pages=*/false)) break;
    }
  }
  return out;
}

std::vector<Pid> Kernel::frame_owners(FrameNumber frame) const {
  std::vector<Pid> owners;
  for (const auto& p : procs_) {
    if (!p->alive()) continue;
    for (const auto& [addr, pte] : p->page_table()) {
      if (!pte.swapped && pte.frame == frame) {
        owners.push_back(p->pid());
        break;
      }
    }
  }
  return owners;
}

bool Kernel::merge_page(Process& p, VirtAddr vaddr, FrameNumber canonical) {
  if (!p.alive_) return false;
  const auto it = p.pages_.find(vaddr);
  if (it == p.pages_.end()) return false;
  Pte& pte = it->second;
  if (pte.swapped || pte.frame == canonical) return false;
  assert(std::memcmp(mem_.page(pte.frame).data(), mem_.page(canonical).data(),
                     kPageSize) == 0 &&
         "merge_page over non-identical pages");
  KEYGUARD_KERNEL_COUNT("kernel.dedup.pages_merged");
  alloc_.ref(canonical);
  // The duplicate frame is released WITHOUT its bytes moving: on a stock
  // kernel (zero_on_free off) dedup itself seeds residue in unallocated
  // memory. Its shadow taint stays with the bytes, like any free. The PTE
  // is re-pointed before unref so the kFrameFreed publish sees the
  // duplicate already unmapped.
  const FrameNumber dup = pte.frame;
  pte.frame = canonical;
  pte.cow = true;
  alloc_.unref(dup, FreeKind::kHot);
  return true;
}

bool Kernel::set_page_cow(Process& p, VirtAddr vaddr) {
  const auto it = p.pages_.find(vaddr);
  if (it == p.pages_.end() || it->second.swapped) return false;
  it->second.cow = true;
  return true;
}

std::vector<Kernel::FrameMapping> Kernel::frame_mappings(FrameNumber frame) const {
  std::vector<FrameMapping> out;
  for (const auto& p : procs_) {
    if (!p->alive()) continue;
    for (const auto& [addr, pte] : p->page_table()) {
      if (!pte.swapped && pte.frame == frame) out.push_back({p->pid(), addr});
    }
  }
  return out;
}

bool Kernel::frame_mlocked(FrameNumber frame) const {
  for (const auto& p : procs_) {
    if (!p->alive()) continue;
    for (const auto& [addr, pte] : p->page_table()) {
      if (!pte.swapped && pte.frame == frame && pte.mlocked) return true;
    }
  }
  return false;
}

std::optional<FrameNumber> Kernel::translate(const Process& p, VirtAddr addr) const {
  const auto it = p.page_table().find(page_floor(addr));
  if (it == p.page_table().end() || it->second.swapped) return std::nullopt;
  return it->second.frame;
}

std::optional<VirtAddr> Kernel::virt_of_frame(const Process& p, FrameNumber frame) const {
  for (const auto& [addr, pte] : p.page_table()) {
    if (!pte.swapped && pte.frame == frame) return addr;
  }
  return std::nullopt;
}

std::optional<std::string> Kernel::describe_address(const Process& p,
                                                    VirtAddr addr) const {
  if (!p.page_table().contains(page_floor(addr))) return std::nullopt;
  // Heap chunks carry the finest-grained labels.
  if (addr >= kHeapBase && addr < kHeapBase + kHeapCapacity) {
    if (auto desc = p.heap().describe(addr)) return desc;
    return "heap (unused)";
  }
  // Otherwise a labelled mapping.
  for (const auto& vma : p.vmas()) {
    if (addr >= vma.start && addr < vma.start + vma.length) {
      std::string out = vma.label + " mapping";
      if (vma.mlocked) out += " [mlocked]";
      return out;
    }
  }
  return "anon";
}

}  // namespace keyguard::sim
