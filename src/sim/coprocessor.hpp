// Coprocessor unseal domain: the page-encryption key that is not in RAM.
//
// MemShield (PAPERS.md) keeps keystore pages ciphertext in system memory
// and holds the page-encryption key inside a GPU whose register file the
// host cannot read. This class is that domain for the simulated machine:
// its secret lives in a HOST-side member array, never written through
// sim::Kernel::mem_write, and therefore outside sim::PhysicalMemory by
// construction — KeyScanner walks mem.all(), ShadowTaintMap shadows the
// same array, and cold-boot capture images it; none of them can see a
// byte that was never stored there. "Outside scannable memory" is a
// type-level property here, not a policy the workload has to maintain.
//
// The domain exposes exactly two primitives, both keyed on the internal
// secret and a caller nonce:
//
//   keystream  SHA-256-CTR blocks ('C' domain): block i of stream `nonce`
//              is SHA256(secret || 'C' || nonce_le64 || i_le64). Used to
//              seal/unseal pool pages and at-rest blobs (XOR stream, so
//              encrypt == decrypt).
//   mac        SHA256(secret || 'M' || nonce_le64 || len_le64 || data):
//              the authenticity tag for sealed blobs. A secret-prefix MAC
//              is fine here because callers never expose raw digests of
//              attacker-extendable messages; the lifecycle, not the
//              primitive, is what this repo measures.
//
// keystream_batch() serves many CTR requests in ONE call. Every public
// call counts as one bus round trip (round_trips()), so the keystore's
// batching claim — unseal cost amortizes under load — is measurable:
// k queued unseals cost 1 keystream round trip instead of k.
//
// power_off() models "Security Through Amnesia": the secret is wiped and
// every subsequent request refuses. Anything still ciphertext at that
// point is unrecoverable — which is the fail-closed direction.
//
// Thread-safe: the host keystore shares one domain across signing
// threads, so all state (secret, counters) is mutex-guarded.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>

namespace keyguard::sim {

class CoprocessorDomain {
 public:
  /// SHA-256 digest width: one CTR block, and the MAC tag size.
  static constexpr std::size_t kBlockBytes = 32;
  static constexpr std::size_t kTagBytes = 32;

  /// Derives the domain secret deterministically from `seed` (tests and
  /// benches need reproducible ciphertext; real hardware would have a
  /// fused key).
  explicit CoprocessorDomain(std::uint64_t seed);
  ~CoprocessorDomain();

  CoprocessorDomain(const CoprocessorDomain&) = delete;
  CoprocessorDomain& operator=(const CoprocessorDomain&) = delete;

  /// False after power_off(): every primitive refuses.
  bool available() const;

  /// Wipes the secret. Irreversible — blobs and encrypted pages sealed
  /// under this domain can never be opened again.
  void power_off();

  /// One queued CTR request: fill `out` with keystream blocks of stream
  /// `nonce`, starting at block `first_block`.
  struct KeystreamRequest {
    std::uint64_t nonce = 0;
    std::uint64_t first_block = 0;
    std::span<std::byte> out;
  };

  /// Single CTR request (one round trip). False when powered off.
  bool keystream(std::uint64_t nonce, std::span<std::byte> out,
                 std::uint64_t first_block = 0);

  /// XORs stream `nonce` into `data` in place, one block at a time, so
  /// no keystream buffer exists outside the domain (one round trip,
  /// counted as one CTR request). False, `data` untouched, when powered
  /// off.
  bool keystream_xor(std::uint64_t nonce, std::span<std::byte> data);

  /// Many CTR requests in ONE round trip — the amortization primitive.
  /// All-or-nothing: false (and no output) when powered off.
  bool keystream_batch(std::span<KeystreamRequest> requests);

  /// Authenticity tag over `data` (one round trip). nullopt when powered
  /// off.
  std::optional<std::array<std::byte, kTagBytes>> mac(
      std::uint64_t nonce, std::span<const std::byte> data);

  // -- amortization accounting ------------------------------------------------
  /// Bus crossings: every keystream / keystream_batch / mac call is one.
  std::uint64_t round_trips() const;
  /// Subset of round_trips that were CTR calls (batch counts once).
  std::uint64_t keystream_round_trips() const;
  /// Individual CTR requests served (a batch of k adds k).
  std::uint64_t keystream_requests() const;
  std::uint64_t keystream_bytes() const;
  std::uint64_t mac_round_trips() const;

 private:
  /// Fills `out` for one request, or XORs the stream into it. Caller
  /// holds mu_.
  void fill_locked(const KeystreamRequest& req, bool xor_in = false);
  /// Counts one round trip, or publishes a refusal and returns false
  /// when powered off. Caller holds mu_.
  bool begin_keystream_locked(std::uint64_t refusal_code);

  mutable std::mutex mu_;
  std::array<std::byte, 32> secret_{};
  bool powered_ = true;
  std::uint64_t round_trips_ = 0;
  std::uint64_t keystream_round_trips_ = 0;
  std::uint64_t keystream_requests_ = 0;
  std::uint64_t keystream_bytes_ = 0;
  std::uint64_t mac_round_trips_ = 0;
};

}  // namespace keyguard::sim
