// Residue auditor over a ShadowTaintMap: turns the per-byte shadow into
// the report the paper's scanmemory could not produce.
//
// The needle scanner proves a copy exists only when a FULL pattern
// survives contiguously; taint accounting has no such blind spot — a
// half-overwritten prime, a freed dmp1 chunk, a Montgomery R^2, a swap
// slot whose owner already exited all still show up, each with its tag,
// physical location, frame class (allocated / unallocated / page cache /
// kernel / swap), owning processes, mlock status, and age. cross_check()
// ties the two views together: every scanner hit must be fully
// taint-covered (the needle IS key material, so uncovered hits mean the
// shadow lost track — an instrumentation bug), and the bytes the taint
// view sees BEYOND the needle union are exactly the partial residues the
// paper's methodology undercounts.
//
// The protected-scenario invariant is the defense's claim in one
// predicate. The paper's single server collapses to ONE mlocked page
// (single_locked_page_only); the multi-tenant keystore generalizes it to
// a tunable bound (bounded_locked_pages_only(N)): plaintext key material
// exists on at most N mlocked pool pages plus the mlocked master-key
// page, and nowhere else — not in freed heap, not in the page cache, not
// on swap. Sealed blobs (TaintTag::kSealed) are ciphertext and tracked
// separately: they may sit anywhere without violating the bound.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/taint_map.hpp"
#include "scan/key_scanner.hpp"
#include "sim/kernel.hpp"

namespace keyguard::analysis {

/// One maximal run of same-tagged bytes (never crossing a frame or swap
/// slot boundary, so the location metadata is uniform across the run).
struct TaintedRegion {
  bool in_swap = false;     ///< swap-device region (offset is device-relative)
  std::size_t offset = 0;   ///< physical (or device) byte offset
  std::size_t length = 0;   ///< run length in bytes
  sim::TaintTag tag{};      ///< what the bytes are derived from

  // RAM regions only:
  sim::FrameNumber frame = 0;
  sim::FrameState state{};          ///< frame class at audit time
  std::vector<sim::Pid> owners;     ///< live processes mapping the frame
  bool mlocked = false;             ///< mapped with mlock by any owner
  std::string provenance;           ///< "RSA bignum p (freed)", "page cache", ...
  std::uint64_t age = 0;            ///< tracker events since frame last gained taint

  // Swap regions only:
  std::uint32_t slot = 0;
  bool slot_live = false;  ///< slot still backs a swapped-out page
};

/// Tainted-byte totals by location class (one instance per taint class:
/// everything, plaintext secrets, sealed ciphertext).
struct LocationTotals {
  std::size_t allocated = 0;    ///< kUserAnon frames (incl. mlocked)
  std::size_t mlocked = 0;      ///< subset of allocated
  std::size_t unallocated = 0;  ///< kFree frames — the paper's residue
  std::size_t page_cache = 0;
  std::size_t kernel = 0;
  std::size_t swap = 0;  ///< live + dead slots

  std::size_t total() const noexcept {
    return allocated + unallocated + page_cache + kernel + swap;
  }
};

/// Full-machine residue report.
struct AuditReport {
  std::vector<TaintedRegion> regions;  ///< ascending offset, RAM then swap

  // Tainted-byte totals by location class, all tags (sealed included).
  std::size_t bytes_allocated = 0;
  std::size_t bytes_mlocked = 0;
  std::size_t bytes_unallocated = 0;
  std::size_t bytes_page_cache = 0;
  std::size_t bytes_kernel = 0;
  std::size_t bytes_swap = 0;
  std::array<std::size_t, sim::kTaintTagCount> bytes_by_tag{};

  // The same totals split by taint class (taint_tag_secret): `secret` is
  // plaintext-derived key material — the bytes the invariant bounds —
  // while `sealed` is master-key ciphertext, safe wherever it sits.
  LocationTotals secret;
  LocationTotals sealed;

  std::size_t tainted_frames = 0;          ///< distinct RAM frames with taint
  std::size_t mlocked_tainted_frames = 0;  ///< subset that is mlocked

  // Frame counts over SECRET taint only (the invariant's currency).
  std::size_t secret_tainted_frames = 0;  ///< RAM frames holding secret bytes
  std::size_t secret_mlocked_frames = 0;  ///< subset that is mlocked
  /// Secret frames whose only secret tag is kMasterKey.
  std::size_t master_key_frames = 0;

  std::size_t total_bytes() const noexcept {
    return bytes_allocated + bytes_unallocated + bytes_page_cache + bytes_kernel +
           bytes_swap;
  }

  /// This walk's numbers in the invariant's terms (see SecretCensus).
  SecretCensus census() const noexcept {
    return {.secret_frames = secret_tainted_frames,
            .secret_mlocked_frames = secret_mlocked_frames,
            .master_key_frames = master_key_frames,
            .secret_unallocated_bytes = secret.unallocated,
            .secret_page_cache_bytes = secret.page_cache,
            .secret_kernel_bytes = secret.kernel,
            .secret_swap_bytes = secret.swap};
  }
  bool bounded_plaintext_working_set(std::size_t w) const noexcept {
    return census().bounded_plaintext_working_set(w);
  }
  bool bounded_locked_pages_only(std::size_t n) const noexcept {
    return census().bounded_locked_pages_only(n);
  }

  /// The paper's single-server invariant: the N=1 case of the bound (no
  /// master-key page in those scenarios, so this is exactly "one mlocked
  /// page and nowhere else").
  bool single_locked_page_only() const noexcept {
    return bounded_locked_pages_only(1);
  }
};

/// Scanner-vs-taint reconciliation.
struct CrossCheck {
  std::size_t scanner_hits = 0;  ///< MemoryMatch count fed in
  std::size_t covered_hits = 0;  ///< hits whose full needle range is tainted
  /// Hits with at least one untainted byte — should be EMPTY; a non-empty
  /// list means the shadow lost a key flow (instrumentation gap).
  std::vector<scan::MemoryMatch> uncovered;

  std::size_t needle_visible_bytes = 0;  ///< union of all hit ranges
  /// Tainted RAM bytes OUTSIDE every hit range: residue only the shadow
  /// sees (partial overwrites, non-needle parts like dmp1/iqmp/DER/R^2).
  std::size_t taint_only_bytes = 0;

  bool all_hits_covered() const noexcept { return covered_hits == scanner_hits; }
};

class TaintAuditor {
 public:
  explicit TaintAuditor(const ShadowTaintMap& map) : map_(map) {}

  /// Walks the shadow, segments it into regions, and resolves provenance
  /// against the kernel's current frame/process state.
  AuditReport audit(const sim::Kernel& kernel) const;

  /// Reconciles a scan_kernel() result against the shadow. `patterns` must
  /// be the scanner's own pattern set (hit lengths are looked up by name).
  CrossCheck cross_check(const scan::KeyPatterns& patterns,
                         const std::vector<scan::MemoryMatch>& matches) const;

  /// Human-readable report (scanmemory_tool --taint output).
  static std::string format(const AuditReport& report, std::size_t max_regions = 32);

  const ShadowTaintMap& map() const noexcept { return map_; }

 private:
  const ShadowTaintMap& map_;
};

}  // namespace keyguard::analysis
