// The host key pool: one pin-counted LRU pool of plaintext working
// copies, the core both host keystores run on.
//
// Keys rest SEALED in ordinary heap, one immutable blob and one public key
// per id. Plaintext working copies live in ONE slab of `bound` 4 KiB
// pages, allocated, mlocked and canaried once at construction
// (secure::SecureBuffer): one key per page, each a secure::rsa_slot image,
// the layout SecureRsaKey owns one of. Eviction wipes the victim's image
// in place. The stores differ only in how a blob is sealed and opened,
// passed in as two callables: Keystore over its mlocked master key
// (KSB1), EncryptedHostKeystore over a CoprocessorDomain (KSB2).
//
// Locking. sign() pins its entry under the mutex, then runs the CRT math
// OUTSIDE the lock, so requests for pooled keys proceed in parallel. A
// miss holds the lock only to claim, and later to publish:
//
//   claim    mark the id's sealed entry in flight and take a reference to
//            its blob (published blobs are immutable, so it is read with
//            no lock and no copy);
//   stage    OUTSIDE the lock, in the calling thread's locked arena
//            (secure::ArenaLease): unseal the blob into a DER buffer there,
//            walk the DER straight into a slot image, precompute R^2 mod
//            p/q, -p^{-1}/-q^{-1} and the reduced qInv;
//   publish  under the lock: take the first empty page or wipe the LRU
//            unpinned one, copy the image in, pin it, clear the claim.
//
// With the mutex held a miss runs no unseal, no DER parse, no Montgomery
// precompute and no mmap, mlock or munlock; nothing on the miss path
// allocates. Single flight: a request for an id whose miss is in flight
// waits on the condition variable (counted in `coalesced`) and, once the
// key is published, is a pool hit — so `unseals == pool_misses` exactly.
// When every page is pinned, a staged miss waits for a pin to drop rather
// than exceed the bound.
//
// Bound. At every instant the slab holds at most `bound` slot images.
// The only other plaintext is one staged lease per in-flight miss (the
// DER, the image and the precompute scratch) in that thread's locked
// arena, wiped before sign() returns; no plaintext DER, keystream or
// private Bignum reaches the unlocked heap.
//
// Fail-closed. Every step that can refuse (the KSB2 MAC and keystream
// round trips, a DER that does not parse, p or q without a Montgomery
// form) runs while staging, before the pool is touched. A refusal clears
// the claim, wakes every waiter (each retries on its own) and counts one
// refusal; the pooled set, `evictions`, `pool_misses` and `unseals` stay
// as they were. An unknown KeyId throws std::out_of_range before the pool
// is touched. add_key refuses a key whose image would not fit one page.
//
// Every count lands in stats() and, while the global MetricsRegistry is
// enabled, in `<prefix>.{ops,pool_hits,pool_misses,evictions,unseals,
// refusals,coalesced}`, the `<prefix>.unseal_ms` histogram (the staging
// time: unseal, decode and precompute, no lock waits) and the
// `<prefix>.pool_occupancy` gauge. Spans: `<prefix>.sign`,
// `<prefix>.unseal` (the staging).
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

#include "core/secure_buffer.hpp"
#include "crypto/rsa.hpp"
#include "keystore/sealed_blob.hpp"
#include "util/thread_safety.hpp"

namespace keyguard::keystore {

struct HostKeystoreStats {
  std::uint64_t ops = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t unseals = 0;    ///< blob decryptions (== misses)
  std::uint64_t refusals = 0;   ///< fail-closed denials (seal or unseal failed)
  std::uint64_t coalesced = 0;  ///< requests that waited on another's miss
};

class HostKeyPool {
 public:
  /// DER for key `id` -> sealed blob; nullopt refuses the ingest.
  using SealFn = std::function<std::optional<std::vector<std::byte>>(
      std::span<const std::byte> der, KeyId id)>;
  /// Sealed blob -> DER written into `der` (at least blob.size() bytes);
  /// returns the DER length, nullopt refuses the sign.
  using UnsealFn = std::function<std::optional<std::size_t>(
      std::span<const std::byte> blob, std::span<std::byte> der)>;

  HostKeyPool(std::string_view prefix, std::size_t bound, SealFn seal,
              UnsealFn unseal);

  HostKeyPool(const HostKeyPool&) = delete;
  HostKeyPool& operator=(const HostKeyPool&) = delete;

  /// Seals `key`; the caller's copy is left untouched. nullopt when the
  /// seal refuses (no plaintext fallback) or the key's slot image would
  /// not fit one page.
  std::optional<KeyId> add_key(const crypto::RsaPrivateKey& key);
  /// Same, then scrubs the caller's private parts on success.
  std::optional<KeyId> add_key_scrubbing(crypto::RsaPrivateKey& key);
  /// Parses PEM text and seals the result; nullopt on malformed input or
  /// a refused seal. The parsed key is scrubbed either way.
  std::optional<KeyId> add_pem(std::string_view pem);

  const crypto::RsaPublicKey& public_key(KeyId id) const;

  /// m^d mod n for key `id`: a pool hit runs with NO unseal; a miss
  /// stages the key outside the lock, then publishes it into an empty
  /// page or the LRU unpinned one. nullopt when staging refuses.
  std::optional<bn::Bignum> sign(KeyId id, const bn::Bignum& m);

  bool contains(KeyId id) const;
  bool pooled(KeyId id) const;
  std::size_t size() const;
  std::size_t pooled_count() const;
  std::size_t bound() const noexcept { return bound_; }
  HostKeystoreStats stats() const;

  /// Empties the pool of every unpinned entry (wiping each page).
  void evict_all();

  /// Replaces `id`'s sealed blob with a copy that has 0x01 XORed into
  /// byte `offset`; false when out of range.
  bool flip_blob_byte(KeyId id, std::size_t offset);
  std::size_t blob_size(KeyId id) const;

 private:
  using Blob = std::vector<std::byte>;
  struct Sealed {
    std::shared_ptr<const Blob> blob;  // never mutated once published
    crypto::RsaPublicKey pub;
    bool in_flight = false;  // a miss for this id is staging
  };
  // One per slab page; id 0 marks an empty page (ids start at 1).
  struct Entry {
    std::span<bn::Limb> page;  // fixed at construction
    KeyId id = 0;
    unsigned pins = 0;
    std::uint64_t last_used = 0;
  };

  enum Name : std::size_t {
    kOps, kHits, kMisses, kEvictions, kUnseals, kRefusals, kCoalesced,
    kUnsealMs, kOccupancy, kSignSpan, kUnsealSpan, kNameCount
  };

  /// The pooled entry for `id` with one pin taken (a hit), or nullptr
  /// with `claim` set to the blob once this thread holds the id's miss.
  /// Waits while another thread's miss for `id` is in flight.
  Entry* pin_or_claim(util::MutexLock& lk, KeyId id, Sealed& sealed,
                      std::shared_ptr<const Blob>& claim) REQUIRES(mu_);
  /// Stages `blob` outside the lock, then publishes it pinned; nullptr
  /// (claim released, waiters woken) when staging refuses.
  Entry* materialize(KeyId id, Sealed& sealed, const Blob& blob) EXCLUDES(mu_);
  /// An empty entry, else the LRU unpinned one, else nullptr.
  Entry* victim() REQUIRES(mu_);
  void evict(Entry& e) REQUIRES(mu_);
  void count(std::uint64_t& stat, Name name) REQUIRES(mu_);
  void publish_occupancy() REQUIRES(mu_);
  std::size_t occupancy() const REQUIRES(mu_);

  const std::size_t bound_;
  const SealFn seal_;
  const UnsealFn unseal_;
  const std::array<std::string, kNameCount> names_;
  // Page i holds entries_[i]'s image. Written only under mu_ by the miss
  // that publishes into it or the eviction that wipes it, and read
  // outside mu_ only by signers holding a pin on it.
  secure::SecureBuffer slab_;
  mutable util::Mutex mu_;
  std::condition_variable cv_;
  std::map<KeyId, Sealed> sealed_ GUARDED_BY(mu_);
  std::vector<Entry> entries_ GUARDED_BY(mu_);
  KeyId next_id_ GUARDED_BY(mu_) = 1;
  std::uint64_t clock_ GUARDED_BY(mu_) = 0;
  HostKeystoreStats stats_ GUARDED_BY(mu_);
};

}  // namespace keyguard::keystore
