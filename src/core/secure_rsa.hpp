// Host-side RSA private key with single-copy custody.
//
// The paper's RSA_memory_align as a complete, usable object. One key is
// one SLOT IMAGE (rsa_slot below): a flat run of limbs holding all six
// CRT parts plus n and e, each as raw little-endian limbs padded to its
// modulus width, and the Montgomery state for p and q (R^2 mod p,
// R^2 mod q and both -p^{-1}, -q^{-1} mod 2^64): the paper bans caching
// Montgomery contexts in ordinary heap, not in the locked page. A
// SecureRsaKey owns one image in its own SecureBuffer (page-aligned,
// mlocked, canaried, zero-on-destroy); keystore::HostKeyPool keeps one
// image per page of a locked slab. Both decrypt through rsa_slot::decrypt.
// Construction scrubs nothing it does not own — use from_key_scrubbing to
// also destroy the caller's plain copy.
//
// Private operations run the bn::mont kernel straight off the image's
// limbs, both CRT halves through one mont::exp2. Every intermediate (m1,
// m2, h, both window tables and the kernel scratch) lives in a per-thread
// locked SecureBuffer arena (ArenaLease) that is wiped before decrypt()
// returns; nothing divides by p or q. Only the public result leaves as an
// ordinary heap Bignum.
//
// fork() safety: the buffer is never written after construction, so
// copy-on-write keeps the key physically single across any number of
// children — the same guarantee the simulated defense demonstrates.
#pragma once

#include <cstddef>
#include <span>

#include "core/secure_buffer.hpp"
#include "crypto/rsa.hpp"

namespace keyguard::secure {

/// A lease on the calling thread's scratch arena: one SecureBuffer per
/// thread, grown to the largest lease the thread has taken and carved
/// front to back. Everything the lease covers is wiped when it ends.
/// Leases on one thread must not nest: a larger one would move the arena
/// out from under the smaller.
class ArenaLease {
 public:
  explicit ArenaLease(std::size_t limbs);
  ~ArenaLease();
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  /// The next `n` limbs of the lease.
  std::span<bn::Limb> take(std::size_t n);
  /// Every limb not yet taken.
  std::span<bn::Limb> rest();

 private:
  std::span<bn::Limb> limbs_;
  std::size_t used_ = 0;
};

/// The one slot layout: one RSA private key as a self-describing image,
/// so any copy of it decrypts. Front to back:
///
///   header          limb widths of n, e, d, p, q, dP, dQ (kHeaderLimbs)
///   n, e, d, p, q   little-endian, at their significant widths
///   dP, dQ          padded to max(|p|, |dP|) and max(|q|, |dQ|)
///   qInv            reduced mod p, |p| limbs
///   R^2 mod p, R^2 mod q, then -p^{-1} and -q^{-1} mod 2^64
///
/// The builders write into a caller-owned span and take caller-owned
/// scratch; neither allocates.
namespace rsa_slot {

inline constexpr std::size_t kHeaderLimbs = 7;

/// The widest image one 4 KiB page holds (RSA up to about 5.3k bits).
inline constexpr std::size_t kPageLimbs = 4096 / sizeof(bn::Limb);

/// Limbs of `key`'s image.
std::size_t image_limbs(const crypto::RsaPrivateKey& key) noexcept;
/// Scratch limbs from_key or from_der needs for any key whose DER body
/// is `der_bytes` bytes.
std::size_t der_scratch_limbs(std::size_t der_bytes) noexcept;

/// Writes `key`'s image at the front of `out`. Returns its limb count,
/// or 0 when p or q is even, 0 or 1 (no Montgomery form) or the image is
/// wider than `out`; a refusal leaves nothing of the key in `out`.
std::size_t from_key(std::span<bn::Limb> out, const crypto::RsaPrivateKey& key,
                     std::span<bn::Limb> scratch) noexcept;

/// The same from a DER body (crypto/pem.hpp), each INTEGER written
/// straight from its big-endian bytes into the image: no Bignum holds a
/// part. Also 0 when the body does not parse.
std::size_t from_der(std::span<bn::Limb> out, std::span<const std::byte> der,
                     std::span<bn::Limb> scratch) noexcept;

/// Limbs of the image at the front of `image` (read from its header).
std::size_t limbs_of(std::span<const bn::Limb> image) noexcept;

/// m = c^d mod n for the image's key via CRT in the calling thread's
/// locked arena. Constant time in dP and dQ: the window count is fixed
/// by the primes' width.
bn::Bignum decrypt(std::span<const bn::Limb> image, const bn::Bignum& c);

/// The image's public half.
crypto::RsaPublicKey public_key(std::span<const bn::Limb> image);

}  // namespace rsa_slot

class SecureRsaKey {
 public:
  /// Writes `key`'s slot image into a SecureBuffer of its own and
  /// precomputes the Montgomery state for p and q there. The source key
  /// is left untouched. Aborts unless p and q are odd and > 1.
  static SecureRsaKey from_key(const crypto::RsaPrivateKey& key);

  /// Same, then secure-zeroes every limb of the caller's copy (the
  /// RSA_memory_align move: afterwards this object holds the only copy).
  static SecureRsaKey from_key_scrubbing(crypto::RsaPrivateKey& key);

  SecureRsaKey(SecureRsaKey&&) noexcept = default;
  SecureRsaKey& operator=(SecureRsaKey&&) noexcept = default;

  /// Public half (safe to copy around).
  crypto::RsaPublicKey public_key() const { return rsa_slot::public_key(image()); }

  /// rsa_slot::decrypt over this key's image.
  bn::Bignum decrypt(const bn::Bignum& c) const { return rsa_slot::decrypt(image(), c); }

  /// Raw signature (identical math to decrypt; see RsaPrivateKey).
  bn::Bignum sign(const bn::Bignum& m) const { return decrypt(m); }

  /// True when the buffer's pages are pinned against swap.
  bool locked() const noexcept { return buf_.locked(); }
  bool canary_intact() const noexcept { return buf_.canary_intact(); }
  std::size_t footprint_bytes() const noexcept { return buf_.size(); }

  /// The calling thread's scratch arena (empty before its first lease).
  /// All-zero between operations.
  static std::span<const std::byte> thread_arena() noexcept;

 private:
  SecureRsaKey() : buf_(0) {}
  std::span<const bn::Limb> image() const noexcept;

  SecureBuffer buf_;
};

}  // namespace keyguard::secure
