// RSA key reconstruction from degraded memory images
// (Heninger & Shacham, CRYPTO 2009, specialised to the p/q case with
// unidirectional decay).
//
// Given the public modulus N and decayed little-endian limb images of the
// primes P and Q — where decay is 1 -> 0, so every surviving 1-bit is
// trusted — the factorisation lifts bit by bit: if p, q are known modulo
// 2^i with p*q ≡ N (mod 2^i), the next bits must satisfy
//
//     p_i + q_i ≡ ((N - p*q) >> i)  (mod 2).
//
// Each candidate branches into exactly two children per bit, so hard
// pruning on trusted 1-bits alone cannot contain the tree (the all-ones
// child never conflicts). Containment comes from Heninger-Shacham style
// STATISTICAL pruning: on the true path, a candidate 1-bit lands on an
// observed 0 only when that bit decayed (probability = the decay rate,
// estimated from the images' 1-density), so candidates whose mismatch
// count exceeds the expected decay budget by several standard deviations
// are discarded. Survivors are verified by full multiplication.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "crypto/rsa.hpp"

namespace keyguard::scan {

struct ColdBootConfig {
  /// Beam width: the frontier is trimmed to the `max_candidates` lowest-
  /// mismatch candidates after every bit. Wider beams tolerate heavier
  /// decay at linear cost.
  std::size_t max_candidates = 1u << 13;
};

class ColdBootReconstructor {
 public:
  explicit ColdBootReconstructor(crypto::RsaPublicKey public_key,
                                 ColdBootConfig cfg = {});

  /// Attempts to rebuild the full CRT private key from decayed LE limb
  /// images of P and Q (each modulus_bits/2 long; shorter spans are
  /// treated as all-unknown tails). Returns nullopt when the frontier
  /// explodes or no candidate multiplies back to N.
  std::optional<crypto::RsaPrivateKey> reconstruct(
      std::span<const std::byte> p_image, std::span<const std::byte> q_image) const;

  /// Candidates alive when the search finished (diagnostics; set by the
  /// last reconstruct() call).
  std::size_t last_frontier() const noexcept { return last_frontier_; }

 private:
  crypto::RsaPublicKey pub_;
  ColdBootConfig cfg_;
  mutable std::size_t last_frontier_ = 0;
};

}  // namespace keyguard::scan
