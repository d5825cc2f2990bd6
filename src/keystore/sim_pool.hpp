// The sim key pool: one LRU pool of N simulated pages under a working set
// of W plaintext ones, the core both sim-side keystores run on.
//
// The paper's integrated defense gives ONE server key one mlocked page.
// An SNI front end holds thousands, and "mlock everything" neither scales
// (locked memory is a hard rlimit) nor bounds the disclosure surface. The
// pool keeps every ingested key SEALED in ordinary heap and materializes
// plaintext on demand into a fixed pool of N pages with LRU eviction +
// scrub. The two stores differ only in how a blob is sealed and opened,
// passed in as callables, and in which of them built the core:
//
//   kMlocked   SimKeystore: KSB1 under a master key on its own mlocked
//              page (or plaintext DER when sealing at rest is off). W = N
//              and every pool page is mlocked from construction, so no
//              page is ever re-encrypted.
//   kEncrypted EncryptedPoolKeystore: KSB2 through a CoprocessorDomain.
//              Pool pages are unlocked at rest; a page is mlocked only
//              while plaintext, and at most W of them are. The LRU
//              plaintext page is re-encrypted in place (fresh epoch nonce)
//              when a miss needs room, and re-entered by one in-place
//              decrypt.
//
// A cold miss runs in this order: read the blob through the kernel,
// unseal it, DER-decode it; if any step fails, refuse with the pool
// untouched (no eviction, no admission, no partial plaintext); only then
// evict the LRU victim and write the six private parts onto its page as
// little-endian limb images (the rsa_memory_align layout, so the
// scanner's d/P/Q needles match pooled keys byte-for-byte), viewed as
// BN_FLG_STATIC_DATA bignums. The Montgomery cache stays off: cached
// contexts would be per-key prime copies living OUTSIDE the pool bound.
// A re-encrypt that cannot reach its keystream falls back to scrubbing
// the slot, the amnesiac direction. An unknown KeyId throws
// std::out_of_range before any counter, metric or bus event moves.
//
// Everything flows through sim::Kernel so the scanner and ShadowTaintMap
// see the copy population a real server would produce: PEM read buffers
// on ingest, CRT/Montgomery temporaries on every private op, and the
// scrub-on-evict writes themselves.
//
// Every count lands in the facade's stats and, while the global
// MetricsRegistry is enabled, in `<prefix>.{ingested,ops,pool_hits,
// pool_misses,unseals,page_decrypts,reencrypts,evictions,refusals}`, the
// `<prefix>.unseal_ms` histogram and the `<prefix>.{pool_occupancy,
// working_set_occupancy}` gauges. Spans: `<prefix>.{unseal,evict,scrub,
// reencrypt}`. Bus events: kKeystoreUnseal, kKeystoreSeal,
// kKeystoreEvict, kKeystoreRefusal.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/rsa.hpp"
#include "keystore/sealed_blob.hpp"
#include "sim/kernel.hpp"
#include "sslsim/ssl_library.hpp"

namespace keyguard::keystore {

/// Which facade built the pool; it fixes the locking policy.
enum class PoolBackend { kMlocked, kEncrypted };

inline const char* pool_backend_name(PoolBackend b) noexcept {
  return b == PoolBackend::kEncrypted ? "encrypted" : "mlocked";
}

/// The pool's counters; each facade reports them under its own names.
struct SimPoolStats {
  std::uint64_t ingested = 0;
  std::uint64_t ops = 0;            ///< private operations served
  std::uint64_t pool_hits = 0;      ///< op found its key's page plaintext
  std::uint64_t unseals = 0;        ///< blob -> fresh slot (cold misses)
  std::uint64_t page_decrypts = 0;  ///< ciphertext page -> plaintext in place
  std::uint64_t reencrypts = 0;     ///< plaintext page -> ciphertext in place
  std::uint64_t evictions = 0;      ///< occupied slots recycled (scrubbed)
  std::uint64_t refusals = 0;       ///< fail-closed denials
};

class SimKeyPool {
 public:
  /// DER for key `id` -> sealed blob; nullopt refuses the ingest.
  using SealFn = std::function<std::optional<std::vector<std::byte>>(
      std::span<const std::byte> der, KeyId id)>;
  /// Sealed blob of key `id` -> DER; nullopt refuses the op.
  using UnsealFn = std::function<std::optional<std::vector<std::byte>>(
      std::span<const std::byte> blob, KeyId id)>;
  /// CTR keystream for a pool page nonce, written into `out`; false when
  /// it cannot be produced.
  using KeystreamFn = std::function<bool(std::uint64_t nonce, std::span<std::byte> out)>;

  struct Setup {
    PoolBackend backend = PoolBackend::kMlocked;
    std::string_view prefix;       ///< metric / span name prefix
    std::size_t pool_pages = 8;    ///< N
    std::size_t working_set = 8;   ///< W, at most N plaintext pages
    bool scrub_on_evict = true;    ///< zero slots before reuse/teardown
    bool clear_temporaries = true; ///< clear-free ingest + CRT scratch
    bool open_keys_nocache = true; ///< O_NOCACHE on key files
    SealFn seal;      ///< empty: the at-rest copy is plaintext DER
    UnsealFn unseal;  ///< empty with `seal`
    KeystreamFn page_keystream;  ///< empty: pages are never re-encrypted
  };

  SimKeyPool(const SimKeyPool&) = delete;
  SimKeyPool& operator=(const SimKeyPool&) = delete;

  /// Loads a PEM key file through the kernel (page cache, read buffers),
  /// seals it, and stores the blob in heap. The plaintext transients (PEM
  /// buffer, host DER scratch) are scrubbed per config. nullopt on a
  /// missing or malformed file or a refused seal.
  std::optional<KeyId> ingest_pem(const std::string& vfs_path);

  /// Public half (host-side copy; public material is not secret).
  const crypto::RsaPublicKey& public_key(KeyId id) const;

  /// m = c^d mod N for key `id`: makes its page plaintext if needed, then
  /// runs the CRT private op through the simulated SSL library. nullopt
  /// when the key cannot be materialized (fail-closed, pool untouched).
  std::optional<bn::Bignum> try_private_op(KeyId id, const bn::Bignum& c);

  /// Drops `id`'s slot entirely (scrub per config). No-op when unpooled.
  void evict(KeyId id);
  /// Empties the whole pool.
  void evict_all();

  /// Key holds a pool slot (plaintext OR ciphertext).
  bool pooled(KeyId id) const;
  /// Key's page is currently plaintext (in the working set).
  bool plaintext(KeyId id) const;
  std::size_t pooled_count() const;
  std::size_t plaintext_count() const;
  std::size_t key_count() const noexcept { return keys_.size(); }
  std::size_t pool_pages() const noexcept { return slots_.size(); }
  std::size_t working_set() const noexcept { return working_set_; }

  /// Virtual address of pool slot `i`'s page (tests inspect scrub and
  /// ciphertext state).
  sim::VirtAddr slot_page(std::size_t i) const { return slots_.at(i).page; }
  std::optional<KeyId> slot_occupant(std::size_t i) const {
    return slots_.at(i).occupant;
  }
  /// Heap address/length of `id`'s at-rest blob: the fault-injection
  /// surface, and what dedup benches compare across tenants.
  sim::VirtAddr blob_address(KeyId id) const { return keys_.at(id).blob; }
  std::size_t blob_size(KeyId id) const { return keys_.at(id).blob_len; }

 protected:
  /// Maps the N pool pages in `proc`: mlocked for kMlocked, unlocked (and
  /// locked per page while plaintext) for kEncrypted.
  SimKeyPool(sim::Kernel& kernel, sim::Process& proc, Setup setup);
  ~SimKeyPool();

  /// Evicts the pool, scrubs + unmaps the pool pages and frees the blobs.
  /// Idempotent. Must run before the owning process exits.
  void shutdown();
  /// Re-encrypts every plaintext page (empties the working set without
  /// evicting anyone).
  void reencrypt_all();

  const SimPoolStats& counts() const noexcept { return stats_; }

  sim::Kernel& kernel_;
  sim::Process& proc_;

 private:
  struct Entry {
    sim::VirtAddr blob = 0;  ///< heap chunk: sealed blob (or plaintext DER)
    std::size_t blob_len = 0;
    crypto::RsaPublicKey pub;
    int slot = -1;  ///< pool slot index when materialized
  };
  struct Slot {
    sim::VirtAddr page = 0;
    std::optional<KeyId> occupant;
    sslsim::SimRsaKey view;      ///< static_data views into the page
    std::size_t used_bytes = 0;  ///< bytes written (crypt/scrub extent)
    std::uint64_t last_used = 0; ///< LRU clock
    bool is_plaintext = false;
    std::uint64_t epoch = 0;  ///< bumped per re-encrypt; part of the nonce
  };

  enum Name : std::size_t {
    kIngested, kOps, kHits, kMisses, kUnseals, kPageDecrypts, kReencrypts,
    kEvictions, kRefusals, kUnsealMs, kPoolOccupancy, kWorkingOccupancy,
    kUnsealSpan, kEvictSpan, kScrubSpan, kReencryptSpan, kNameCount
  };

  /// CTR nonce for `id`'s page at `epoch`. Top bit set keeps the page
  /// nonce space disjoint from blob nonces (salted_nonce keeps bit 63
  /// clear).
  static std::uint64_t page_nonce(KeyId id, std::uint64_t epoch) {
    return (1ull << 63) | (epoch << 24) | id;
  }

  /// Hit / in-place decrypt / blob unseal. nullopt = fail-closed refusal.
  std::optional<std::size_t> ensure_plaintext(KeyId id, Entry& e);
  /// Ciphertext page `s` -> plaintext in place.
  std::optional<std::size_t> reenter(KeyId id, std::size_t s);
  /// Cold miss: unseal + decode, then evict the victim and place limbs.
  std::optional<std::size_t> unseal_into_victim(KeyId id, Entry& e);
  /// First empty slot, else the LRU occupant.
  std::size_t victim() const;
  /// Re-encrypts LRU plaintext slots until the working set has room.
  void make_working_room();
  /// Plaintext -> ciphertext in place (or scrub when no keystream).
  void reencrypt_slot(std::size_t s);
  /// Scrub + detach slot `s` (full eviction), counted.
  void evict_slot(std::size_t s);
  /// mlock/munlock for kEncrypted; kMlocked pages stay locked throughout.
  void lock_page(const Slot& s, bool locked);
  /// Counts one refusal and publishes kKeystoreRefusal.
  std::nullopt_t refuse(KeyId id);
  void metric(Name name);
  void count(std::uint64_t& stat, Name name);
  void record_unseal(std::chrono::steady_clock::time_point t0);
  void publish_occupancy();

  const PoolBackend backend_;
  const std::size_t working_set_;
  const bool scrub_on_evict_;
  const bool clear_temporaries_;
  const bool open_keys_nocache_;
  const SealFn seal_;
  const UnsealFn unseal_;
  const KeystreamFn page_keystream_;
  const std::array<std::string, kNameCount> names_;
  sslsim::SslLibrary ssl_;
  std::vector<Slot> slots_;
  std::map<KeyId, Entry> keys_;
  KeyId next_id_ = 1;
  std::uint64_t clock_ = 0;
  SimPoolStats stats_;
  bool shut_ = false;
};

}  // namespace keyguard::keystore
