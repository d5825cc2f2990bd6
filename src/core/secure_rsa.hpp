// Host-side RSA private key with single-copy custody.
//
// The paper's RSA_memory_align as a complete, usable object: all six CRT
// parts live in ONE SecureBuffer (page-aligned, mlocked, canaried,
// zero-on-destroy), each part stored as raw little-endian limbs padded to
// its modulus width. The same buffer also holds the Montgomery state for
// p and q (R^2 mod p, R^2 mod q and both -p^{-1}, -q^{-1} mod 2^64): the
// paper bans caching Montgomery contexts in ordinary heap, not in the
// locked page. Construction scrubs nothing it does not own — use
// from_key_scrubbing to also destroy the caller's plain copy.
//
// Private operations run the bn::mont kernel straight off the buffer's
// limbs. Every intermediate (c mod p, m1, m2, h, the window table and the
// CIOS scratch) lives in a per-thread locked SecureBuffer arena that is
// wiped before decrypt() returns; nothing divides by p or q. Only the
// public result leaves as an ordinary heap Bignum.
//
// fork() safety: the buffer is never written after construction, so
// copy-on-write keeps the key physically single across any number of
// children — the same guarantee the simulated defense demonstrates.
#pragma once

#include <array>
#include <span>

#include "core/secure_buffer.hpp"
#include "crypto/rsa.hpp"

namespace keyguard::secure {

class SecureRsaKey {
 public:
  /// Copies the six private parts (d, p, q, dmp1, dmq1, iqmp) plus n and e
  /// limb-for-limb into one SecureBuffer and precomputes the Montgomery
  /// state for p and q there. The source key is left untouched. Aborts
  /// unless p and q are odd and > 1.
  static SecureRsaKey from_key(const crypto::RsaPrivateKey& key);

  /// Same, then secure-zeroes every limb of the caller's copy (the
  /// RSA_memory_align move: afterwards this object holds the only copy).
  static SecureRsaKey from_key_scrubbing(crypto::RsaPrivateKey& key);

  SecureRsaKey(SecureRsaKey&&) noexcept = default;
  SecureRsaKey& operator=(SecureRsaKey&&) noexcept = default;

  /// Public half (safe to copy around).
  crypto::RsaPublicKey public_key() const;

  /// m = c^d mod n via CRT in the calling thread's locked arena. Constant
  /// time in dP and dQ: the window count is fixed by the primes' width.
  bn::Bignum decrypt(const bn::Bignum& c) const;

  /// Raw signature (identical math to decrypt; see RsaPrivateKey).
  bn::Bignum sign(const bn::Bignum& m) const { return decrypt(m); }

  /// True when the buffer's pages are pinned against swap.
  bool locked() const noexcept { return buf_.locked(); }
  bool canary_intact() const noexcept { return buf_.canary_intact(); }
  std::size_t footprint_bytes() const noexcept { return buf_.size(); }

  /// The calling thread's scratch arena (empty before its first private
  /// op). All-zero between operations.
  static std::span<const std::byte> thread_arena() noexcept;

 private:
  SecureRsaKey() : buf_(0) {}

  enum Part : std::size_t { kN, kE, kD, kP, kQ, kDmp1, kDmq1, kIqmp, kRrP, kRrQ, kN0, kParts };
  // Limb offset and width of each part inside the buffer.
  struct Slot {
    std::size_t offset = 0;
    std::size_t limbs = 0;
  };
  std::span<const bn::Limb> part(Part p) const noexcept;

  SecureBuffer buf_;
  std::array<Slot, kParts> slots_{};
};

}  // namespace keyguard::secure
