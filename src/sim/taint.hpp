// Shadow-taint hook interface for the simulated machine.
//
// The paper's scanmemory (and our KeyScanner) can only find key copies
// that still match a FULL needle — a residue that was half overwritten by
// a later allocation is invisible, so "the scan found nothing" never
// proves "no secret bytes survive". Taint tracking closes that gap the
// way MemShield and Security-Through-Amnesia argue their guarantees: tag
// every byte of key material at its source and follow it through every
// physical copy the kernel makes.
//
// This header deliberately lives in sim/ and defines only the *events*:
// the kernel, page allocator, page cache, and swap device report byte
// movements through a TaintTracker, and src/analysis/ supplies the
// per-byte shadow map that interprets them. With no tracker attached
// (the default) every hook site is a single null-pointer test, so the
// production scan path pays nothing — bench_scan_throughput enforces
// < 5% drift with the hooks compiled in.
//
// Event semantics (all offsets are byte addresses):
//   on_phys_store — fresh bytes written into physical memory. The tag
//     says what they are; kClean stores CLEAR taint, which is how churn
//     (scp buffers, response bodies) gradually erases residue exactly
//     like the paper's timeline plots show.
//   on_phys_copy  — a kernel-internal memcpy (COW break, realloc move):
//     the shadow bytes travel with the data.
//   on_phys_clear — a range was zeroed (clear_highpage, secure scrubs).
//   on_swap_store/on_swap_load — a page crossed the RAM/swap boundary in
//     either direction; the shadow crosses with it. Swapping DUPLICATES
//     taint just like it duplicates data (the vacated frame keeps its
//     shadow until something clears it).
//   on_swap_clear — a swap slot was scrubbed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace keyguard::sim {

/// Per-byte taint tag: which key-material source a byte came from.
/// kClean (0) means "not secret". One byte per tag keeps the shadow map
/// the same size as the memory it covers.
enum class TaintTag : std::uint8_t {
  kClean = 0,
  kPem,      ///< PEM text of the private key (file, page cache, read buffers)
  kDer,      ///< DER scratch produced while parsing the key
  kKeyD,     ///< BN_ULONG limb image of d
  kKeyP,     ///< limb image of P
  kKeyQ,     ///< limb image of Q
  kKeyDmp1,  ///< limb image of d mod (p-1)
  kKeyDmq1,  ///< limb image of d mod (q-1)
  kKeyIqmp,  ///< limb image of q^-1 mod p
  kMont,     ///< BN_MONT_CTX contents (modulus copy, R^2)
  kCrt,      ///< CRT intermediates (m1, m2)

  // Multi-tenant keystore (src/keystore). kSealed is CIPHERTEXT — key
  // material encrypted under the master key. It is tracked so audits can
  // account for at-rest blobs, but it is NOT plaintext residue: the
  // auditor's bounded_locked_pages_only predicate excludes it.
  kSealed,     ///< sealed key blob (master-key-encrypted DER, safe at rest)
  kPoolKey,    ///< plaintext key material materialized into a pool page
  kMasterKey,  ///< the keystore master key (pinned on one mlocked page)
};

inline constexpr std::size_t kTaintTagCount = 14;

const char* taint_tag_name(TaintTag t) noexcept;

/// True for tags that are plaintext-derived secrets. kClean and kSealed
/// are excluded: sealed blobs are ciphertext by construction, so their
/// disclosure does not compromise the key (the master key does — and it
/// carries its own, secret, tag).
constexpr bool taint_tag_secret(TaintTag t) noexcept {
  return t != TaintTag::kClean && t != TaintTag::kSealed;
}

class TaintTracker {
 public:
  virtual ~TaintTracker() = default;

  /// `len` fresh bytes stored at physical offset `off`; kClean clears.
  virtual void on_phys_store(std::size_t off, std::size_t len, TaintTag tag) = 0;
  /// Kernel-internal copy of `len` bytes from `src` to `dst` (phys).
  virtual void on_phys_copy(std::size_t dst, std::size_t src, std::size_t len) = 0;
  /// `len` bytes zeroed at physical offset `off`.
  virtual void on_phys_clear(std::size_t off, std::size_t len) = 0;
  /// One page copied from physical offset `phys_src` into swap slot `slot`.
  virtual void on_swap_store(std::uint32_t slot, std::size_t phys_src) = 0;
  /// One page copied from swap slot `slot` to physical offset `phys_dst`.
  virtual void on_swap_load(std::size_t phys_dst, std::uint32_t slot) = 0;
  /// Swap slot `slot` scrubbed to zero.
  virtual void on_swap_clear(std::uint32_t slot) = 0;
};

/// Multiplexes the single hook stream the kernel offers to several
/// trackers (Kernel::attach_taint takes one TaintTracker; attach a
/// fanout to run ShadowTaintMap and obs::ExposureMonitor side by side).
/// Events forward in add() order; sinks are borrowed, not owned, and the
/// set must not change while hooks may fire.
class TaintFanout final : public TaintTracker {
 public:
  void add(TaintTracker* t) {
    if (t != nullptr) {
      sinks_.push_back(t);
    }
  }
  void clear() noexcept { sinks_.clear(); }
  std::size_t size() const noexcept { return sinks_.size(); }

  void on_phys_store(std::size_t off, std::size_t len, TaintTag tag) override {
    for (auto* s : sinks_) s->on_phys_store(off, len, tag);
  }
  void on_phys_copy(std::size_t dst, std::size_t src, std::size_t len) override {
    for (auto* s : sinks_) s->on_phys_copy(dst, src, len);
  }
  void on_phys_clear(std::size_t off, std::size_t len) override {
    for (auto* s : sinks_) s->on_phys_clear(off, len);
  }
  void on_swap_store(std::uint32_t slot, std::size_t phys_src) override {
    for (auto* s : sinks_) s->on_swap_store(slot, phys_src);
  }
  void on_swap_load(std::size_t phys_dst, std::uint32_t slot) override {
    for (auto* s : sinks_) s->on_swap_load(phys_dst, slot);
  }
  void on_swap_clear(std::uint32_t slot) override {
    for (auto* s : sinks_) s->on_swap_clear(slot);
  }

 private:
  std::vector<TaintTracker*> sinks_;
};

}  // namespace keyguard::sim
