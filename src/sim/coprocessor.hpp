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
// Every public call counts as one bus round trip (round_trips()): a cold
// blob unseal costs two (mac, then keystream), a page re-entry or
// re-encrypt one.
//
// power_off() models "Security Through Amnesia": the secret is wiped and
// every subsequent request refuses. Anything still ciphertext at that
// point is unrecoverable — which is the fail-closed direction.
//
// Thread-safe: the host keystore shares one domain across signing
// threads, so all state (secret, counter) is mutex-guarded.
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

  /// Fills `out` with stream `nonce` from block 0 (one round trip).
  /// False when powered off.
  bool keystream(std::uint64_t nonce, std::span<std::byte> out);

  /// XORs stream `nonce` into `data` in place, one block at a time, so
  /// no keystream buffer exists outside the domain (one round trip).
  /// False, `data` untouched, when powered off.
  bool keystream_xor(std::uint64_t nonce, std::span<std::byte> data);

  /// Authenticity tag over `data` (one round trip). nullopt when powered
  /// off.
  std::optional<std::array<std::byte, kTagBytes>> mac(
      std::uint64_t nonce, std::span<const std::byte> data);

  /// Bus crossings: every keystream / keystream_xor / mac call is one.
  std::uint64_t round_trips() const;

 private:
  /// Writes stream `nonce` into `out`, or XORs it in. Counts one round
  /// trip, or publishes a keystream refusal and returns false when
  /// powered off.
  bool crypt(std::uint64_t nonce, std::span<std::byte> out, bool xor_in);
  /// Counts one round trip, or publishes refusal `code` (0 keystream,
  /// 2 mac) and returns false when powered off. Caller holds mu_.
  bool begin_locked(std::uint64_t code);

  mutable std::mutex mu_;
  std::array<std::byte, 32> secret_{};
  bool powered_ = true;
  std::uint64_t round_trips_ = 0;
};

}  // namespace keyguard::sim
