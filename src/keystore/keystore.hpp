// Host-side multi-tenant keystore: the production shape of the defense.
//
// Same lifecycle as SimKeystore, built on real memory primitives: a
// HostKeyPool (host_pool.hpp) whose blobs are sealed KSB1 under a 32-byte
// master key that lives in an mlocked SecureBuffer. Sealing cannot fail,
// so add_key and sign return plain values.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/secure_buffer.hpp"
#include "keystore/host_pool.hpp"

namespace keyguard::keystore {

struct HostKeystoreConfig {
  std::size_t pool_keys = 8;  ///< N: max simultaneously-plaintext keys
  /// Master-key RNG seed — deterministic for tests and benches; real
  /// deployments would draw from the system entropy source instead.
  std::uint64_t master_seed = 0x6b657973746f7265ULL;
};

class Keystore {
 public:
  explicit Keystore(HostKeystoreConfig cfg);

  Keystore(const Keystore&) = delete;
  Keystore& operator=(const Keystore&) = delete;

  /// Seals `key` into the store. The caller's copy is left untouched.
  KeyId add_key(const crypto::RsaPrivateKey& key) { return pool_.add_key(key).value(); }
  /// Same, then scrubs the caller's private parts (store holds the only
  /// at-rest copy afterwards).
  KeyId add_key_scrubbing(crypto::RsaPrivateKey& key) {
    return pool_.add_key_scrubbing(key).value();
  }
  /// Parses PEM text and seals the result; nullopt on malformed input.
  /// The parse transients are wiped before returning.
  std::optional<KeyId> add_pem(std::string_view pem) { return pool_.add_pem(pem); }

  const crypto::RsaPublicKey& public_key(KeyId id) const { return pool_.public_key(id); }

  /// m^d mod n for key `id` (HostKeyPool::sign). Only a corrupted blob
  /// can refuse, and that throws std::bad_optional_access.
  bn::Bignum sign(KeyId id, const bn::Bignum& m) { return pool_.sign(id, m).value(); }
  bn::Bignum decrypt(KeyId id, const bn::Bignum& c) { return sign(id, c); }

  bool contains(KeyId id) const { return pool_.contains(id); }
  bool pooled(KeyId id) const { return pool_.pooled(id); }
  std::size_t size() const { return pool_.size(); }
  std::size_t pooled_count() const { return pool_.pooled_count(); }
  std::size_t pool_keys() const noexcept { return pool_.bound(); }
  /// True when the master key's buffer is pinned against swap.
  bool master_locked() const noexcept { return master_.locked(); }
  HostKeystoreStats stats() const { return pool_.stats(); }

  /// Empties the pool (scrubbing every unpinned working copy).
  void evict_all() { pool_.evict_all(); }

 private:
  secure::SecureBuffer master_;  // before pool_: its seal/unseal read it
  HostKeyPool pool_;
};

}  // namespace keyguard::keystore
