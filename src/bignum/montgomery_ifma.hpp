// The AVX-512 IFMA dual exponentiation (internal to src/bignum).
//
// montgomery.cpp runs it for mont::exp2 when CPUID reports AVX512F and
// AVX512IFMA and both halves have the same limb count; nothing outside
// src/bignum sees this header. Only the 52-bit-digit work lives here:
// the inputs arrive already reduced by the row kernel, and the caller
// does the one masked subtract that brings each result below its modulus.
#pragma once

#include <cstddef>
#include <span>

#include "bignum/bignum.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KEYGUARD_MONT_IFMA 1
#else
#define KEYGUARD_MONT_IFMA 0
#endif

namespace keyguard::bn::mont::ifma {

/// 52-bit digits for an l-limb modulus: the least D with 4n < 2^(52D)
/// for every n < 2^(64l), so almost-Montgomery products stay below 2n.
constexpr std::size_t digits(std::size_t l) { return (64 * l + 2 + 51) / 52; }

/// digits(l) rounded up to whole 8-lane zmm registers.
constexpr std::size_t lanes(std::size_t l) { return (digits(l) + 7) / 8 * 8; }

/// Widest modulus the kernel takes (8 zmm registers per operand).
constexpr std::size_t kMaxLimbs = (52 * 64 - 2) / 64;

/// Scratch limbs exp2 needs: per half the modulus, a 16-entry table, the
/// running value and the selected entry, all as zero-padded digit vectors.
constexpr std::size_t scratch_limbs(std::size_t l) { return 2 * 19 * lanes(l); }

#if KEYGUARD_MONT_IFMA

/// True when the CPU reports both AVX512F and AVX512IFMA.
bool available() noexcept;

/// One half of the pair. xm = x*R' mod n and one = R' mod n (R' =
/// 2^(52 * digits(l))), both l limbs and below n; e is read as zero past
/// its end.
struct Half {
  std::span<Limb> r;
  std::span<const Limb> xm;
  std::span<const Limb> one;
  std::span<const Limb> n;
  Limb n0_inv = 0;  // -n^{-1} mod 2^64
  std::span<const Limb> e;
};

/// r = x^e mod n for both halves on one schedule of ceil(bits / 4) fixed
/// windows, l <= kMaxLimbs limbs each. Each r ends at most n (equal only
/// when x = 0 mod n): the caller subtracts n once, by mask. Every write
/// but r goes to the scratch.
void exp2(const Half& p, const Half& q, std::size_t l, std::size_t bits,
          std::span<Limb> scratch) noexcept;

#endif

}  // namespace keyguard::bn::mont::ifma
