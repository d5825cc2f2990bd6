// Host-side encrypted keystore: the coprocessor-domain pool on real memory.
//
// A HostKeyPool (host_pool.hpp) of at most W working copies, the
// production shape of EncryptedPoolKeystore. What differs from Keystore:
//
//   * There is NO master SecureBuffer. Blobs are authenticated KSB2
//     ciphertext opened through a CoprocessorDomain — the page-encryption
//     key never exists in this process's addressable memory.
//   * Refusals surface. add_key and sign return optionals: a powered-off
//     domain refuses ingest (there is no plaintext fallback), and a
//     tampered blob (MAC mismatch) or a powered-off domain refuses a cold
//     sign before any plaintext exists, leaving the pool as it was.
#pragma once

#include <optional>
#include <string_view>

#include "keystore/host_pool.hpp"
#include "sim/coprocessor.hpp"

namespace keyguard::keystore {

struct EncryptedHostConfig {
  std::size_t working_set = 4;  ///< W: max simultaneously-plaintext keys
};

class EncryptedHostKeystore {
 public:
  /// `domain` must outlive the keystore; it may be shared across stores
  /// and threads (CoprocessorDomain serializes internally).
  EncryptedHostKeystore(sim::CoprocessorDomain& domain, EncryptedHostConfig cfg);

  EncryptedHostKeystore(const EncryptedHostKeystore&) = delete;
  EncryptedHostKeystore& operator=(const EncryptedHostKeystore&) = delete;

  /// Seals `key` under the domain; nullopt when the domain is off.
  std::optional<KeyId> add_key(const crypto::RsaPrivateKey& key) { return pool_.add_key(key); }
  /// Same, then scrubs the caller's private parts on success.
  std::optional<KeyId> add_key_scrubbing(crypto::RsaPrivateKey& key) {
    return pool_.add_key_scrubbing(key);
  }
  std::optional<KeyId> add_pem(std::string_view pem) { return pool_.add_pem(pem); }

  const crypto::RsaPublicKey& public_key(KeyId id) const { return pool_.public_key(id); }

  /// m^d mod n; nullopt when the blob fails authentication or the domain
  /// is unavailable. A pool hit serves with no domain traffic at all.
  std::optional<bn::Bignum> sign(KeyId id, const bn::Bignum& m) { return pool_.sign(id, m); }
  std::optional<bn::Bignum> decrypt(KeyId id, const bn::Bignum& c) {
    return sign(id, c);
  }

  bool contains(KeyId id) const { return pool_.contains(id); }
  bool pooled(KeyId id) const { return pool_.pooled(id); }
  std::size_t size() const { return pool_.size(); }
  std::size_t pooled_count() const { return pool_.pooled_count(); }
  std::size_t working_set() const noexcept { return pool_.bound(); }
  HostKeystoreStats stats() const { return pool_.stats(); }

  /// Empties the pool (scrubbing every unpinned working copy).
  void evict_all() { pool_.evict_all(); }

  /// Fault-injection hook: XORs 0x01 into byte `offset` of `id`'s sealed
  /// blob, as a memory-tampering attacker would. Returns false when out of
  /// range. The next cold sign() must refuse.
  bool flip_blob_byte(KeyId id, std::size_t offset) {
    return pool_.flip_blob_byte(id, offset);
  }
  std::size_t blob_size(KeyId id) const { return pool_.blob_size(id); }

 private:
  HostKeyPool pool_;
};

}  // namespace keyguard::keystore
