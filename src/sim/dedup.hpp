// KSM-like same-content page merging over simulated physical memory.
//
// Linux's Kernel Samepage Merging walks anonymous pages, groups them by
// content, and collapses byte-identical pages onto one shared read-only
// frame; the first write to a merged page takes a copy-on-write fault.
// Hypervisors run the same trick across tenants (ESXi TPS, KSM under
// KVM) — and that cross-tenant sharing is a side channel: a tenant who
// WRITES a guessed page and later observes a slow (COW) write-back has
// learned that some other tenant holds the same bytes, without ever
// reading a byte it doesn't own (Schwarzl et al., "Remote
// Memory-Deduplication Attacks"; see src/attack/dedup_probe.hpp).
//
// DedupEngine reproduces the mechanism over a sim::Kernel:
//
//   scan()   builds a content-hash candidate table over every resident
//            anonymous page of every live process (FNV-1a 64 per page),
//            byte-verifies hash groups (hash collisions never merge), and
//            merges duplicates onto the group's canonical frame: the
//            duplicate PTE is repointed (ref canonical, unref duplicate)
//            and every mapping of the canonical frame is marked COW.
//   unmerge  is the kernel's existing COW-break path — any write to a
//            merged page copies it back out. The kernel marks each
//            canonical frame merged in its page allocator, counts a break
//            on a marked frame as an unmerge (apart from fork-induced
//            breaks) and drops the mark when the frame is freed, so the
//            engine keeps no per-frame state of its own.
//
// Two behaviors are deliberate, and load-bearing for the experiments:
//
//   * Merging FREES the duplicate frame without moving its bytes — on a
//     stock kernel (zero_on_free off) dedup itself mints residue in
//     unallocated memory, one more copy channel the paper never had to
//     consider.
//   * Canonical selection prefers a secret-tainted frame over a clean
//     one (see set_secret_predicate). Content is identical either way;
//     keeping the tainted frame as the survivor keeps the shadow taint
//     map exact without inventing per-byte tag unions: the attacker's
//     clean-tagged guess page is the one that dies.
//
// The defense (DedupConfig::no_merge_secret) consults the same predicate
// at merge time and refuses to merge ANY page carrying secret taint, in
// either role — the no-merge policy for kPoolKey/kMasterKey/... pages
// that kills the side channel while non-secret pages keep merging.
//
// Interactions with the rest of the kernel come for free from the COW
// machinery: fork() of a process with merged pages just refs them again;
// swap_out_pages() already skips shared (refcount > 1) frames, so merged
// frames never hit the swap device; exit unrefs and the last mapper
// frees. tests/sim_dedup_test.cpp pins each of these down.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/kernel.hpp"

namespace keyguard::sim {

struct DedupConfig {
  /// Merge pages of mlocked mappings too. Real KSM only touches areas
  /// madvise(MERGEABLE), but hypervisor-level dedup (the attack's actual
  /// setting) sees every guest page; mlock pins against SWAP, not against
  /// host-side merging — which is exactly the misconfiguration the
  /// dedup attack exploits against "mlock the key page" defenses.
  bool merge_mlocked = true;
  /// Merge all-zero pages (KSM's zero-page case). Off when zero-page
  /// churn would drown the statistics a test wants to read.
  bool merge_zero_pages = true;
  /// The defense: never merge a page the secret predicate flags, in
  /// either the canonical or the duplicate role.
  bool no_merge_secret = false;
};

struct DedupStats {
  std::uint64_t scans = 0;
  std::uint64_t pages_considered = 0;  ///< candidate PTEs across all scans
  std::uint64_t pages_merged = 0;      ///< PTE remaps (cumulative)
  std::uint64_t bytes_saved = 0;       ///< pages_merged * kPageSize
  std::uint64_t vetoed_secret = 0;     ///< merges refused by the defense
  std::uint64_t hash_collisions = 0;   ///< equal hash, unequal bytes
  std::uint64_t unmerges = 0;          ///< COW breaks on merged frames
};

class DedupEngine {
 public:
  explicit DedupEngine(Kernel& kernel, DedupConfig cfg = {});

  DedupEngine(const DedupEngine&) = delete;
  DedupEngine& operator=(const DedupEngine&) = delete;

  /// Classifier for the no-merge policy and canonical selection: returns
  /// true when the frame carries secret taint (analysis::ShadowTaintMap's
  /// per-byte tags are the intended source; sim cannot depend on analysis,
  /// so the query crosses as a callback). Unset = nothing is secret.
  void set_secret_predicate(std::function<bool(FrameNumber)> pred);

  /// One full merge pass. Returns pages merged by THIS pass. Emits a
  /// "dedup.scan" tracer span and refreshes the kernel.dedup.* metrics.
  std::size_t scan();

  /// Merged frames that are still shared right now.
  std::size_t shared_frame_count() const;

  /// Pages of RAM currently saved by merging: for every live merged
  /// frame, mappings beyond the first are free wins.
  std::size_t saved_pages() const;

  /// True when `frame` was merged and is still shared.
  bool is_merged_frame(FrameNumber frame) const;

  /// Scan counters, plus the kernel's unmerge count (Kernel::unmerge_count)
  /// since this engine was built.
  DedupStats stats() const noexcept;
  const DedupConfig& config() const noexcept { return cfg_; }

 private:
  void publish_metrics();

  Kernel& kernel_;
  DedupConfig cfg_;
  std::function<bool(FrameNumber)> secret_;
  DedupStats stats_;
  std::uint64_t unmerges_at_start_;
};

}  // namespace keyguard::sim
