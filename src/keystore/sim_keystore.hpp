// Simulated multi-tenant keystore: many keys at rest, few in plaintext.
//
// The mlocked facade over SimKeyPool (sim_pool.hpp): every ingested key
// rests SEALED ("KSB1", sealed_blob.hpp) in ordinary heap — ciphertext,
// tagged TaintTag::kSealed, harmless to disclose — and materializes into
// a fixed pool of N mlocked pages with LRU eviction + scrub. The master
// key is pinned on its own mlocked page exactly like the paper's vault
// page. W = N, so no pool page is ever re-encrypted. The measurable
// claim, at any instant under any traffic mix:
//
//     plaintext key material ⊆ N pool pages + 1 master page, all mlocked
//
// i.e. TaintAuditor::bounded_locked_pages_only(N) holds. With
// seal_at_rest off (the zero-protection baseline) the at-rest copy is
// plaintext DER instead. A blob that fails to unseal or decode refuses
// the op (nullopt) with the pool untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "keystore/sim_pool.hpp"

namespace keyguard::keystore {

/// Defense knobs, mirroring the paper's protection levels (see
/// core::keystore_config_for): the zero-protection baseline keeps keys
/// PLAINTEXT at rest and never scrubs — the strawman the bench contrasts.
struct SimKeystoreConfig {
  std::size_t pool_pages = 8;   ///< N: max simultaneously-plaintext keys
  bool seal_at_rest = true;     ///< encrypt blobs under the master key
  bool scrub_on_evict = true;   ///< zero pool slots before reuse/teardown
  bool clear_temporaries = true;  ///< clear-free ingest + CRT scratch
  bool open_keys_nocache = true;  ///< O_NOCACHE on key files (integrated)
  std::uint64_t master_seed = 0x6b657973746f7265ULL;  ///< master-key RNG seed
  /// Per-keystore blob-nonce salt (salted_nonce). 0 = legacy unsalted
  /// layout. Nonzero (unique per tenant) makes sealed blobs
  /// content-UNIQUE across keystores even for identical keys under an
  /// identical master seed — the anti-dedup defense for ciphertext pages.
  std::uint64_t blob_salt = 0;
};

struct SimKeystoreStats {
  std::uint64_t ingested = 0;
  std::uint64_t ops = 0;         ///< private operations served
  std::uint64_t pool_hits = 0;   ///< op found its key already pooled
  std::uint64_t pool_misses = 0; ///< op had to materialize (unseal) first
  std::uint64_t evictions = 0;   ///< occupied slots recycled
  std::uint64_t unseals = 0;     ///< blob decryptions (== misses)
  std::uint64_t refusals = 0;    ///< fail-closed denials (corrupt blob)
};

class SimKeystore final : public SimKeyPool {
 public:
  /// Maps the master page, then the N pool pages (all mlocked) in `proc`.
  SimKeystore(sim::Kernel& kernel, sim::Process& proc, SimKeystoreConfig cfg);
  ~SimKeystore();

  /// Evicts the pool, scrubs + unmaps master and pool pages, and frees the
  /// at-rest blobs. Idempotent; called by the destructor. Must run before
  /// the owning process exits.
  void shutdown();

  sim::VirtAddr master_page() const noexcept { return master_page_; }
  SimKeystoreStats stats() const;
  const SimKeystoreConfig& config() const noexcept { return cfg_; }

 private:
  SimKeystore(sim::Kernel& kernel, sim::Process& proc, SimKeystoreConfig cfg,
              sim::VirtAddr master_page);
  std::vector<std::byte> read_master() const;
  /// KSB1 under the master page (the pool's seal/unseal callables).
  std::optional<std::vector<std::byte>> seal_blob(std::span<const std::byte> der,
                                                  KeyId id) const;
  std::optional<std::vector<std::byte>> unseal_blob(std::span<const std::byte> blob,
                                                    KeyId id) const;

  SimKeystoreConfig cfg_;
  sim::VirtAddr master_page_;
};

}  // namespace keyguard::keystore
