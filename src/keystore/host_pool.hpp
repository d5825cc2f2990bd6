// The host key pool: one pin-counted LRU pool of SecureRsaKey working
// copies, the core both host keystores run on.
//
// Keys rest SEALED in ordinary heap, one blob and one public key per id.
// Plaintext exists only inside at most `bound` SecureRsaKey working copies
// (each one mlocked, canaried, zero-on-destroy page); eviction destroys the
// SecureRsaKey, which scrubs the page before it returns to the allocator.
// The stores differ only in how a blob is sealed and opened, passed in as
// two callables: Keystore over its mlocked master key (KSB1),
// EncryptedHostKeystore over a CoprocessorDomain (KSB2).
//
// Thread-safe: sign() pins its pool entry under the mutex, then runs the
// CRT math OUTSIDE the lock, so concurrent requests for pooled keys
// proceed in parallel. A miss materializes (unseal + parse) under the
// lock — misses serialize, which is the deliberate trade: the pool bound
// is a hard invariant, never relaxed for latency. When every entry is
// pinned by in-flight operations, further misses wait on a condition
// variable for a pin to drop rather than exceed the bound.
//
// Fail-closed: a miss unseals BEFORE it evicts, so a refused unseal
// (tampered blob, unavailable domain) leaves the pool exactly as it was.
// An unknown KeyId throws std::out_of_range before the pool is touched.
//
// Every count lands in stats() and, while the global MetricsRegistry is
// enabled, in `<prefix>.{ops,pool_hits,pool_misses,evictions,unseals,
// refusals}`, the `<prefix>.unseal_ms` histogram and the
// `<prefix>.pool_occupancy` gauge. Spans: `<prefix>.sign`,
// `<prefix>.unseal`.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/secure_rsa.hpp"
#include "crypto/rsa.hpp"
#include "keystore/sealed_blob.hpp"
#include "util/thread_safety.hpp"

namespace keyguard::keystore {

struct HostKeystoreStats {
  std::uint64_t ops = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t unseals = 0;   ///< blob decryptions (== misses)
  std::uint64_t refusals = 0;  ///< fail-closed denials (seal or unseal failed)
};

class HostKeyPool {
 public:
  /// DER for key `id` -> sealed blob; nullopt refuses the ingest.
  using SealFn = std::function<std::optional<std::vector<std::byte>>(
      std::span<const std::byte> der, KeyId id)>;
  /// Sealed blob -> DER; nullopt refuses the sign.
  using UnsealFn = std::function<std::optional<std::vector<std::byte>>(
      std::span<const std::byte> blob)>;

  HostKeyPool(std::string_view prefix, std::size_t bound, SealFn seal,
              UnsealFn unseal);

  HostKeyPool(const HostKeyPool&) = delete;
  HostKeyPool& operator=(const HostKeyPool&) = delete;

  /// Seals `key`; the caller's copy is left untouched. nullopt when the
  /// seal refuses (no plaintext fallback).
  std::optional<KeyId> add_key(const crypto::RsaPrivateKey& key);
  /// Same, then scrubs the caller's private parts on success.
  std::optional<KeyId> add_key_scrubbing(crypto::RsaPrivateKey& key);
  /// Parses PEM text and seals the result; nullopt on malformed input or
  /// a refused seal. The parsed key is scrubbed either way.
  std::optional<KeyId> add_pem(std::string_view pem);

  const crypto::RsaPublicKey& public_key(KeyId id) const;

  /// m^d mod n for key `id`: a pool hit runs with NO unseal; a miss
  /// unseals into a fresh SecureRsaKey, then evicts the LRU unpinned
  /// entry when the pool is full. nullopt when the unseal refuses.
  std::optional<bn::Bignum> sign(KeyId id, const bn::Bignum& m);

  bool contains(KeyId id) const;
  bool pooled(KeyId id) const;
  std::size_t size() const;
  std::size_t pooled_count() const;
  std::size_t bound() const noexcept { return bound_; }
  HostKeystoreStats stats() const;

  /// Empties the pool of every unpinned entry (scrubbing each copy).
  void evict_all();

  /// XORs 0x01 into byte `offset` of `id`'s sealed blob; false when out
  /// of range.
  bool flip_blob_byte(KeyId id, std::size_t offset);
  std::size_t blob_size(KeyId id) const;

 private:
  struct Sealed {
    std::vector<std::byte> blob;
    crypto::RsaPublicKey pub;
  };
  struct Entry {
    KeyId id;
    secure::SecureRsaKey key;
    unsigned pins;
    std::uint64_t last_used;
  };
  // unique_ptr for address stability: sign() holds an Entry* across the
  // unlocked CRT computation while other threads mutate the vector.
  using Pool = std::vector<std::unique_ptr<Entry>>;

  enum Name : std::size_t {
    kOps, kHits, kMisses, kEvictions, kUnseals, kRefusals,
    kUnsealMs, kOccupancy, kSignSpan, kUnsealSpan, kNameCount
  };

  /// Entry for `id` with one pin taken, or nullptr on a refusal. May
  /// release `lk` (over mu_) while waiting for a pin to drop.
  Entry* acquire(util::MutexLock& lk, KeyId id) REQUIRES(mu_);
  /// Unseals `sealed` into a new pinned entry, evicting `victim` (unless
  /// pool_.end()) only once the unseal has succeeded.
  Entry* materialize(KeyId id, const Sealed& sealed, Pool::iterator victim)
      REQUIRES(mu_);
  Pool::iterator evict(Pool::iterator it) REQUIRES(mu_);
  void count(std::uint64_t& stat, Name name) REQUIRES(mu_);
  void publish_occupancy() REQUIRES(mu_);

  const std::size_t bound_;
  const SealFn seal_;
  const UnsealFn unseal_;
  const std::array<std::string, kNameCount> names_;
  mutable util::Mutex mu_;
  std::condition_variable cv_;
  std::map<KeyId, Sealed> sealed_ GUARDED_BY(mu_);
  Pool pool_ GUARDED_BY(mu_);
  KeyId next_id_ GUARDED_BY(mu_) = 1;
  std::uint64_t clock_ GUARDED_BY(mu_) = 0;
  HostKeystoreStats stats_ GUARDED_BY(mu_);
};

}  // namespace keyguard::keystore
