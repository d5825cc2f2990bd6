// Sealed key blobs: the keystore's at-rest format.
//
// A multi-tenant front end cannot mlock one page per private key, so keys
// rest in ordinary (swappable, scannable) memory as CIPHERTEXT and only
// become plaintext inside the bounded pool. The sealing cipher is an
// AES-CTR-shaped stream built from the repo's SHA-256 — the point is the
// lifecycle (what is plaintext, where, for how long), not cipher strength:
//
//   blob      = "KSB1" || nonce_le64 || body
//   body      = plaintext XOR keystream(master, nonce)
//   block i   = SHA256(master || nonce_le64 || i_le64)       (32 bytes)
//
// XOR-stream means seal and unseal are the same transform; the nonce must
// be unique per blob under one master key (the keystore uses the KeyId).
// The encrypted-at-rest backend uses the AUTHENTICATED variant instead:
//
//   blob = "KSB2" || nonce_le64 || ciphertext || tag(32 bytes)
//
// with both the CTR keystream and the tag produced by a CoprocessorDomain
// (sim/coprocessor.hpp) whose key is outside scannable memory. Encrypt-
// then-MAC, and unseal_authenticated verifies the tag BEFORE decrypting a
// single byte, so a corrupted blob (any bit of header, nonce, ciphertext,
// or tag) or an unavailable domain yields nullopt with no partial
// plaintext ever materialized — the fail-closed requirement from
// "Security Through Amnesia".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/coprocessor.hpp"

namespace keyguard::keystore {

/// Store-assigned key handle; doubles as the blob's sealing nonce (unique
/// per key under one master key by construction).
using KeyId = std::uint64_t;

/// Master key width. 32 bytes = one SHA-256 block's worth of entropy and
/// comfortably within one mlocked page alongside nothing else.
inline constexpr std::size_t kMasterKeyBytes = 32;

/// "KSB1" magic + 8-byte little-endian nonce.
inline constexpr std::size_t kSealedHeaderBytes = 12;

/// Mixes a per-keystore salt into a blob nonce (splitmix64 of the salt,
/// XORed in — injective in `nonce` for any fixed salt, so per-key nonce
/// uniqueness under one master is preserved). Salt 0 returns `nonce`
/// unchanged: the legacy layout, and the golden-determinism baseline.
///
/// Why it exists: unsalted, two keystores with the same master seed that
/// ingest the same key produce BYTE-IDENTICAL sealed blobs, so even
/// ciphertext pages content-collide across tenants and a dedup pass
/// merges them — presence of a key becomes detectable from the blob page
/// alone (attack/dedup_probe.hpp). A per-keystore salt makes every
/// tenant's ciphertext unique without changing what it decrypts to.
///
/// The result keeps bit 63 clear: the encrypted backend's page nonces
/// live in the top-bit-set half, and salting must never collide a blob
/// nonce into the page-nonce space.
std::uint64_t salted_nonce(std::uint64_t nonce, std::uint64_t salt);

/// In-place XOR with the (master, nonce) keystream. Applying it twice is
/// the identity, so this is both the seal and the unseal primitive.
void keystream_xor(std::span<std::byte> data, std::span<const std::byte> master,
                   std::uint64_t nonce);

/// plaintext -> header || ciphertext. `master` must be kMasterKeyBytes.
std::vector<std::byte> seal(std::span<const std::byte> plaintext,
                            std::span<const std::byte> master,
                            std::uint64_t nonce);

/// header || ciphertext -> plaintext written into `out`, the keystream
/// XORed in place block by block; returns the plaintext length. Rejects
/// short blobs, bad magic and an `out` shorter than the ciphertext
/// (nullopt, nothing written).
std::optional<std::size_t> unseal_into(std::span<const std::byte> blob,
                                       std::span<const std::byte> master,
                                       std::span<std::byte> out);

/// unseal_into a fresh vector. The caller owns wiping the returned
/// plaintext.
std::optional<std::vector<std::byte>> unseal(std::span<const std::byte> blob,
                                             std::span<const std::byte> master);

/// Trailing MAC width of the authenticated ("KSB2") format.
inline constexpr std::size_t kAuthTagBytes = sim::CoprocessorDomain::kTagBytes;

/// plaintext -> "KSB2" || nonce || ciphertext || tag, keyed entirely inside
/// `domain`. nullopt when the domain is powered off (nothing is sealed
/// under a key that no longer exists).
std::optional<std::vector<std::byte>> seal_authenticated(
    std::span<const std::byte> plaintext, sim::CoprocessorDomain& domain,
    std::uint64_t nonce);

/// Authenticated unseal: magic, length, and tag are checked (constant-time
/// compare) BEFORE any keystream is applied; every failure — truncation,
/// bad magic, any flipped bit, powered-off domain — returns nullopt
/// without materializing a byte of plaintext. Two domain round trips:
/// the tag, then the decrypt.
std::optional<std::vector<std::byte>> unseal_authenticated(
    std::span<const std::byte> blob, sim::CoprocessorDomain& domain);

/// The same, into a caller-owned `out` (at least the ciphertext length):
/// the ciphertext is copied there only once the tag verifies, and the
/// domain XORs its keystream in place (CoprocessorDomain::keystream_xor),
/// so no keystream buffer exists. Returns the plaintext length; nullopt
/// on every failure above or a short `out`, leaving no plaintext there.
std::optional<std::size_t> unseal_authenticated_into(
    std::span<const std::byte> blob, sim::CoprocessorDomain& domain,
    std::span<std::byte> out);

/// Nonce stored in an authenticated blob header (nullopt when the blob is
/// too short or mis-tagged as KSB1/garbage). Format inspection only — no
/// authenticity implied.
std::optional<std::uint64_t> authenticated_nonce(std::span<const std::byte> blob);

}  // namespace keyguard::keystore
