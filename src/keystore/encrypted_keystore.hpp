// Encrypted-at-rest pool keystore: ciphertext in RAM, plaintext in a
// working set.
//
// SimKeystore bounds plaintext to N mlocked pool pages — but all N are
// scannable at every instant. This facade over SimKeyPool (sim_pool.hpp)
// takes MemShield's next step: the N pool pages themselves are
// SHA-256-CTR ciphertext in simulated RAM except inside a working set of
// W << N pages that are transiently decrypted IN PLACE, and the
// page-encryption key lives in a CoprocessorDomain whose bytes are
// outside PhysicalMemory entirely. What a scanner, taint sweep, or
// cold-boot image can see at any instant:
//
//     plaintext key material ⊆ W working-set pages, all mlocked
//     (TaintAuditor::bounded_plaintext_working_set(W); there is no
//      master-key page — the domain holds the key off-RAM)
//
// Lifecycle of one key:
//   ingest     PEM -> DER -> authenticated KSB2 blob ("KSB2" || nonce ||
//              ciphertext || tag) in ordinary heap, tagged kSealed.
//   miss       blob unsealed via the domain (tag verified BEFORE any
//              decryption — fail-closed; two round trips, mac then
//              keystream), limb images placed on a pool page (mlocked,
//              kPoolKey), page joins the working set.
//   squeeze    when the working set is full, the LRU plaintext page is
//              RE-ENCRYPTED in place (fresh epoch nonce, one round trip),
//              retagged kSealed, and munlocked — it may swap, it may be
//              imaged, it is ciphertext.
//   re-entry   ciphertext page decrypted in place (one round trip),
//              re-mlocked, back in the working set — no blob parse.
//   evict      slot scrubbed (bytes + taint) and recycled.
//
// Fail-closed: a corrupted blob or a powered-off domain makes
// try_private_op return nullopt; nothing plaintext materializes and the
// pool is not touched. A re-encrypt that cannot reach the domain falls
// back to scrubbing the slot — the amnesiac direction, never the leaky
// one.
#pragma once

#include <cstdint>

#include "keystore/sim_pool.hpp"
#include "sim/coprocessor.hpp"

namespace keyguard::keystore {

struct EncryptedKeystoreConfig {
  std::size_t pool_pages = 8;   ///< N: pool slots (ciphertext-capable)
  std::size_t working_set = 2;  ///< W: max simultaneously-plaintext slots
  bool scrub_on_evict = true;   ///< zero slots before reuse/teardown
  bool clear_temporaries = true;  ///< clear-free ingest + CRT scratch
  bool open_keys_nocache = true;  ///< O_NOCACHE on key files
  /// Per-keystore KSB2 blob-nonce salt (salted_nonce; 0 = legacy
  /// unsalted). Two tenants sharing one coprocessor domain otherwise
  /// seal identical keys to identical ciphertext — dedup-detectable.
  std::uint64_t blob_salt = 0;
};

struct EncryptedKeystoreStats {
  std::uint64_t ingested = 0;
  std::uint64_t ops = 0;            ///< private operations served
  std::uint64_t working_hits = 0;   ///< op found its page already plaintext
  std::uint64_t page_decrypts = 0;  ///< ciphertext page -> plaintext in place
  std::uint64_t reencrypts = 0;     ///< plaintext page -> ciphertext in place
  std::uint64_t blob_unseals = 0;   ///< KSB2 blob -> fresh pool slot
  std::uint64_t evictions = 0;      ///< pool slots recycled (scrubbed)
  std::uint64_t refusals = 0;       ///< fail-closed denials
};

class EncryptedPoolKeystore final : public SimKeyPool {
 public:
  /// Maps the N pool pages (NOT mlocked — they hold ciphertext at rest;
  /// pages are mlocked only while plaintext) in `proc`. `domain` must
  /// outlive the keystore and may be shared.
  EncryptedPoolKeystore(sim::Kernel& kernel, sim::Process& proc,
                        sim::CoprocessorDomain& domain,
                        EncryptedKeystoreConfig cfg);

  /// Re-encrypts every plaintext page (empties the working set without
  /// evicting anyone). The quiesce step before fork: a COW child of a
  /// quiesced process shares only ciphertext. With the domain off, slots
  /// are scrubbed instead (amnesiac fallback).
  using SimKeyPool::reencrypt_all;
  /// Scrubs + unmaps every pool page and frees the blobs. Idempotent.
  using SimKeyPool::shutdown;

  /// Salted at-rest blob nonce (bit 63 clear — never collides with
  /// page_nonce space, salted or not). Public so salting tests can pin
  /// the legacy salt==0 identity.
  std::uint64_t blob_nonce(KeyId id) const {
    return salted_nonce(id, cfg_.blob_salt);
  }

  sim::CoprocessorDomain& domain() noexcept { return domain_; }
  EncryptedKeystoreStats stats() const;
  const EncryptedKeystoreConfig& config() const noexcept { return cfg_; }

 private:
  sim::CoprocessorDomain& domain_;
  EncryptedKeystoreConfig cfg_;
};

}  // namespace keyguard::keystore
