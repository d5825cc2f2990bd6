// Per-byte shadow taint map over simulated physical memory + swap.
//
// The KeyScanner answers "where does a FULL needle still match?"; this map
// answers the stronger question the paper's §3 methodology could not:
// "where does ANY byte derived from the key survive?" Every byte of
// simulated RAM and every swap-slot byte has a one-byte shadow holding a
// sim::TaintTag. Taint is introduced where key material enters simulated
// memory (PEM/DER parse buffers, the eight RSA BIGNUMs, Montgomery
// contexts, CRT intermediates, the rsa_aligned vault page, the cached key
// file) and then travels mechanically with the kernel's physical copies:
// COW breaks, swap-out/in, realloc moves, page-cache fills. It is
// destroyed ONLY by actual zeroing (clear_highpage, BN_clear_free-style
// scrubs, swap-slot scrubs) or by being overwritten with clean data —
// the same two ways real bytes die.
//
// Outside TaintAuditor's independent walk, the map is also the one place
// a tag is classified: beside the tags it keeps, per 4 KiB RAM frame and
// per swap slot, how many bytes carry a secret tag (sim::taint_tag_secret,
// so kSealed is not secret) and how many of those are not the master key.
// The counts move in the same loops that move the tags, so readers such
// as obs::AlertEngine answer "which frames hold plaintext key material"
// in O(frames) without a second per-byte array.
//
// The per-byte tags are as large as the devices they shadow, so they boot
// clean the way RAM and swap boot zero: lazily committed (kClean is 0,
// util::ZeroedArray). Retagging writes only a tag that changes, so the
// shadow commits memory only where taint has been, and a map over a
// machine without swap holds a 0-slot swap shadow that maps nothing.
//
// The map is a passive sim::TaintTracker: attach it with
// Kernel::attach_taint BEFORE the workload so no key flow predates the
// shadow. It never mutates the machine, draws no randomness, and keeps
// no pointers into it, so attaching it cannot change simulated behaviour
// (golden pins stay bit-identical).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/taint.hpp"
#include "util/zeroed_array.hpp"

namespace keyguard::analysis {

/// Aggregate shadow-map accounting: surviving tainted bytes by tag and
/// location class, plus cumulative event counters.
struct TaintStats {
  /// Surviving tainted bytes in physical memory, per tag (index ==
  /// static_cast<size_t>(TaintTag)); [0] is unused (kClean).
  std::array<std::size_t, sim::kTaintTagCount> phys_by_tag{};
  /// Surviving tainted bytes on the swap device, per tag.
  std::array<std::size_t, sim::kTaintTagCount> swap_by_tag{};
  std::size_t phys_tainted = 0;  ///< total tainted RAM bytes
  std::size_t swap_tainted = 0;  ///< total tainted swap bytes

  // Cumulative event counts since construction.
  std::uint64_t stores = 0;       ///< on_phys_store calls
  std::uint64_t copies = 0;       ///< on_phys_copy calls
  std::uint64_t clears = 0;       ///< on_phys_clear calls
  std::uint64_t swap_stores = 0;  ///< pages swapped out
  std::uint64_t swap_loads = 0;   ///< pages swapped back in
  std::uint64_t swap_clears = 0;  ///< slots scrubbed

  std::size_t total_tainted() const noexcept { return phys_tainted + swap_tainted; }
};

/// Secret-byte counts of one 4 KiB page of the shadow (a RAM frame or a
/// swap slot). Both fit in 16 bits: a page holds at most 4096 bytes.
struct PageSecrets {
  std::uint16_t secret = 0;     ///< bytes whose tag is taint_tag_secret
  std::uint16_t nonmaster = 0;  ///< subset whose tag is not kMasterKey
};

/// Where plaintext key material sits, in the seven numbers the custody
/// invariant reads, and the invariant's two predicates. The one
/// definition of the policy: TaintAuditor's AuditReport fills it from
/// its own walk over the tags, obs::AlertEngine maintains it per event.
struct SecretCensus {
  std::uint64_t secret_frames = 0;          ///< RAM frames holding secret bytes
  std::uint64_t secret_mlocked_frames = 0;  ///< subset that is mlocked
  /// Secret frames whose only secret tag is kMasterKey: the pinned master
  /// key lives outside the pool bound (the "+1" in "N pool pages + the
  /// master-key page").
  std::uint64_t master_key_frames = 0;
  std::uint64_t secret_unallocated_bytes = 0;  ///< secret bytes in kFree frames
  std::uint64_t secret_page_cache_bytes = 0;
  std::uint64_t secret_kernel_bytes = 0;
  std::uint64_t secret_swap_bytes = 0;  ///< secret bytes on the swap device

  /// The encrypted-backend generalization: every byte of PLAINTEXT key
  /// material sits on an mlocked page, those pages number at most `w`
  /// (master-key-only pages excluded), and nothing secret survives in
  /// unallocated memory, the page cache, kernel buffers, or swap. Sealed
  /// ciphertext is exempt. Unlike bounded_locked_pages_only there is NO
  /// >= 1 floor: for an encrypted-at-rest pool an EMPTY working set —
  /// every page re-encrypted, the machine fully amnesiac — is the
  /// backend's best state, not a vacuous pass.
  bool bounded_plaintext_working_set(std::uint64_t w) const noexcept {
    return secret_frames - master_key_frames <= w &&
           secret_mlocked_frames == secret_frames &&
           secret_unallocated_bytes == 0 && secret_page_cache_bytes == 0 &&
           secret_kernel_bytes == 0 && secret_swap_bytes == 0;
  }

  /// The bounded-working-set invariant: bounded_plaintext_working_set(n)
  /// plus at least one secret frame, so an empty shadow does not trivially
  /// pass (the mlocked pool always holds its master key, so "no secrets at
  /// all" there means the shadow lost a flow).
  bool bounded_locked_pages_only(std::uint64_t n) const noexcept {
    return secret_frames >= 1 && bounded_plaintext_working_set(n);
  }
};

class ShadowTaintMap final : public sim::TaintTracker {
 public:
  /// Shadow for `phys_bytes` of RAM and `swap_pages` swap slots.
  ShadowTaintMap(std::size_t phys_bytes, std::size_t swap_pages);

  /// Shadow sized for `kernel`'s RAM and swap device. Does NOT attach —
  /// call kernel.attach_taint(&map) (and detach before the map dies).
  explicit ShadowTaintMap(const sim::Kernel& kernel);

  ShadowTaintMap(const ShadowTaintMap&) = delete;
  ShadowTaintMap& operator=(const ShadowTaintMap&) = delete;

  // -- TaintTracker events (called by the sim; see sim/taint.hpp) ----------
  void on_phys_store(std::size_t off, std::size_t len, sim::TaintTag tag) override;
  void on_phys_copy(std::size_t dst, std::size_t src, std::size_t len) override;
  void on_phys_clear(std::size_t off, std::size_t len) override;
  void on_swap_store(std::uint32_t slot, std::size_t phys_src) override;
  void on_swap_load(std::size_t phys_dst, std::uint32_t slot) override;
  void on_swap_clear(std::uint32_t slot) override;

  /// Direct taint introduction (tests; host-side custody modelling).
  void mark_phys(std::size_t off, std::size_t len, sim::TaintTag tag) {
    on_phys_store(off, len, tag);
  }

  // -- queries ---------------------------------------------------------------
  sim::TaintTag phys_tag(std::size_t off) const { return phys_.tags[off]; }
  sim::TaintTag swap_tag(std::uint32_t slot, std::size_t off) const {
    return swap_.tags[static_cast<std::size_t>(slot) * sim::kPageSize + off];
  }
  std::span<const sim::TaintTag> phys_shadow() const noexcept { return phys_.tags.span(); }
  std::span<const sim::TaintTag> swap_shadow() const noexcept { return swap_.tags.span(); }

  /// Secret-byte counts of RAM frame `frame` / swap slot `slot`.
  const PageSecrets& frame_secrets(sim::FrameNumber frame) const {
    return phys_.pages[frame];
  }
  const PageSecrets& slot_secrets(std::uint32_t slot) const {
    return swap_.pages[slot];
  }

  /// True when every byte of [off, off+len) is tainted (any tag).
  bool range_fully_tainted(std::size_t off, std::size_t len) const;
  /// Tainted bytes within [off, off+len).
  std::size_t tainted_bytes_in(std::size_t off, std::size_t len) const;

  /// Monotonic event clock (advances once per tracker event). Region ages
  /// in audit reports are expressed in these ticks.
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Event-clock value when `frame` last GAINED taint (0 = never).
  std::uint64_t frame_last_tainted(sim::FrameNumber frame) const {
    return frame_epoch_[frame];
  }

  const TaintStats& stats() const noexcept { return stats_; }

 private:
  /// One shadowed device (RAM or swap): the per-byte tags, the per-page
  /// secret counts, and the device's per-tag totals in stats_.
  struct Shadow {
    Shadow(std::size_t bytes,
           std::array<std::size_t, sim::kTaintTagCount>& by_tag,
           std::size_t& total);
    /// Retags byte `i` as `neu`, moving every count with it.
    void retag(std::size_t i, sim::TaintTag neu);
    void set_range(std::size_t off, std::size_t len, sim::TaintTag tag);
    /// Copies `len` tags to [dst, dst+len) in memmove order, so `src` may
    /// overlap the destination.
    void copy_range(std::size_t dst, const sim::TaintTag* src, std::size_t len);

    util::ZeroedArray<sim::TaintTag> tags;
    std::vector<PageSecrets> pages;
    std::array<std::size_t, sim::kTaintTagCount>& by_tag;
    std::size_t& total;
  };

  void note_frame_taint(std::size_t off, std::size_t len);

  TaintStats stats_;  // before the shadows, which bind its totals
  Shadow phys_;
  Shadow swap_;
  std::vector<std::uint64_t> frame_epoch_;
  std::uint64_t epoch_ = 0;
};

}  // namespace keyguard::analysis
