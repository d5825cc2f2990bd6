// RSA with CRT private operations.
//
// Mirrors the key anatomy the paper targets: a private key is the sextuple
// (d, P, Q, d mod P-1, d mod Q-1, Q^{-1} mod P) plus the PEM-encoded file.
// Disclosure of d, P, Q, or the PEM text compromises the key, so the
// scanner treats each as "a copy of the private key" (paper §2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bignum/bignum.hpp"
#include "util/rng.hpp"

namespace keyguard::crypto {

/// Public half: (e, N).
struct RsaPublicKey {
  bn::Bignum n;
  bn::Bignum e;

  std::size_t modulus_bits() const noexcept { return n.bit_length(); }
  std::size_t modulus_bytes() const noexcept { return (n.bit_length() + 7) / 8; }

  /// c = m^e mod N. Requires m < N.
  bn::Bignum encrypt_raw(const bn::Bignum& m) const;
};

/// Private key with CRT parts (OpenSSL RSA struct layout, minus engine
/// plumbing). All six parts are plain Bignums here; protected storage is
/// the concern of keyguard::secure / the simulated defenses.
struct RsaPrivateKey {
  bn::Bignum n;
  bn::Bignum e;
  bn::Bignum d;
  bn::Bignum p;
  bn::Bignum q;
  bn::Bignum dmp1;  // d mod (p-1)
  bn::Bignum dmq1;  // d mod (q-1)
  bn::Bignum iqmp;  // q^{-1} mod p

  RsaPublicKey public_key() const { return {n, e}; }

  /// m = c^d mod N via the Chinese Remainder Theorem (Garner), about 4x
  /// faster than a direct exponentiation — and the reason P and Q live in
  /// server memory at all.
  bn::Bignum decrypt_crt(const bn::Bignum& c) const;

  /// m = c^d mod N without CRT (reference path for tests).
  bn::Bignum decrypt_plain(const bn::Bignum& c) const;

  /// Consistency check: N == P*Q, e*d == 1 mod lcm(P-1, Q-1), CRT parts
  /// match. Used by tests and by the PEM decoder.
  bool validate() const;

  /// Destroys every private part in place (volatile-store zeroization);
  /// n and e remain. After this the key can no longer sign/decrypt.
  void scrub_private_parts() noexcept;
};

/// The values of one CRT private operation: m1 = c^dmp1 mod p and
/// m2 = c^dmq1 mod q from one bn::mont_mod_exp2, then Garner's
/// h = iqmp (m1 - m2) mod p and m = m2 + h q. The simulated SSL library
/// writes m1 and m2 into simulated heap, as OpenSSL's BN_CTX does.
struct CrtResult {
  bn::Bignum m1;
  bn::Bignum m2;
  bn::Bignum m;
};
CrtResult crt_private_op(const bn::Bignum& c, const bn::Bignum& p, const bn::Bignum& q,
                         const bn::Bignum& dmp1, const bn::Bignum& dmq1,
                         const bn::Bignum& iqmp);

/// Generates a key with an n_bits modulus (primes of n_bits/2 each) and
/// public exponent e (default 65537). Deterministic given the Rng.
RsaPrivateKey generate_rsa_key(util::Rng& rng, std::size_t n_bits,
                               std::uint64_t e = 65537);

/// PKCS#1-v1.5-style random padding for encryption: 00 02 PS 00 M.
/// Returns nullopt when the message is too long for the modulus.
std::optional<bn::Bignum> pad_encrypt(util::Rng& rng, const RsaPublicKey& pub,
                                      std::span<const std::byte> message);

/// Strips the padding applied by pad_encrypt; nullopt on malformed input.
std::optional<std::vector<std::byte>> unpad_decrypt(const RsaPrivateKey& priv,
                                                    const bn::Bignum& ciphertext);

/// SHA-256 fingerprint of the public modulus (hex, first 16 chars), for
/// logging and test assertions.
std::string key_fingerprint(const RsaPublicKey& pub);

}  // namespace keyguard::crypto
