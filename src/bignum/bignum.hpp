// Arbitrary-precision unsigned integers.
//
// This is the reproduction's stand-in for OpenSSL's BIGNUM. Values are
// little-endian arrays of 64-bit limbs, always normalized (no leading zero
// limbs; zero is an empty limb vector). The limb layout matters beyond
// arithmetic: the simulated SSL library serialises private-key bignums into
// simulated process memory as raw limb images, exactly the byte patterns
// the paper's scanmemory tool (and our scanner) searches for.
//
// The type is a regular value type: copyable, movable, totally ordered.
// Arithmetic is unsigned; subtraction of a larger value from a smaller one
// is a precondition violation reported via assert in debug builds and
// clamped to zero in release (callers in this codebase always check).
#pragma once

#include <compare>
#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <optional>
#include <vector>

namespace keyguard::bn {

using Limb = std::uint64_t;

struct DivMod;

class Bignum {
 public:
  /// Zero.
  Bignum() = default;

  /// From a machine word.
  explicit Bignum(Limb v);

  /// Parses a decimal string; returns nullopt on empty or non-digit input.
  static std::optional<Bignum> from_decimal(std::string_view s);

  /// Parses a hex string (no 0x prefix); returns nullopt on invalid input.
  static std::optional<Bignum> from_hex(std::string_view s);

  /// Big-endian byte import (leading zeros allowed).
  static Bignum from_bytes_be(std::span<const std::byte> bytes);

  /// Little-endian byte import.
  static Bignum from_bytes_le(std::span<const std::byte> bytes);

  /// Little-endian limb import (leading zero limbs allowed).
  static Bignum from_limbs_le(std::span<const Limb> limbs);

  // -- observers ----------------------------------------------------------

  bool is_zero() const noexcept { return limbs_.empty(); }
  bool is_one() const noexcept { return limbs_.size() == 1 && limbs_[0] == 1; }
  bool is_odd() const noexcept { return !limbs_.empty() && (limbs_[0] & 1) != 0; }
  bool is_even() const noexcept { return !is_odd(); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const noexcept;

  /// Value of bit i (false beyond bit_length).
  bool bit(std::size_t i) const noexcept;

  /// Number of significant limbs.
  std::size_t limb_count() const noexcept { return limbs_.size(); }

  /// Raw little-endian limbs (normalized). This is the in-memory image the
  /// simulated SSL library stores and the scanner matches against.
  std::span<const Limb> limbs() const noexcept { return limbs_; }

  /// Low 64 bits of the value.
  Limb low_limb() const noexcept { return limbs_.empty() ? 0 : limbs_[0]; }

  // -- comparison ---------------------------------------------------------

  friend std::strong_ordering operator<=>(const Bignum& a, const Bignum& b) noexcept;
  friend bool operator==(const Bignum& a, const Bignum& b) noexcept = default;

  // -- arithmetic ---------------------------------------------------------

  friend Bignum operator+(const Bignum& a, const Bignum& b);
  /// Unsigned subtraction; requires a >= b.
  friend Bignum operator-(const Bignum& a, const Bignum& b);
  friend Bignum operator*(const Bignum& a, const Bignum& b);
  /// Quotient (Knuth Algorithm D); division by zero asserts.
  friend Bignum operator/(const Bignum& a, const Bignum& b);
  /// Remainder.
  friend Bignum operator%(const Bignum& a, const Bignum& b);

  Bignum& operator+=(const Bignum& b) { return *this = *this + b; }
  Bignum& operator-=(const Bignum& b) { return *this = *this - b; }
  Bignum& operator*=(const Bignum& b) { return *this = *this * b; }

  /// Quotient and remainder in one pass.
  static DivMod divmod(const Bignum& a, const Bignum& b);

  friend Bignum operator<<(const Bignum& a, std::size_t bits);
  friend Bignum operator>>(const Bignum& a, std::size_t bits);

  /// a + b (word).
  Bignum add_limb(Limb v) const;
  /// a * b (word).
  Bignum mul_limb(Limb v) const;
  /// Remainder modulo a word divisor (divisor != 0).
  Limb mod_limb(Limb divisor) const;

  // -- number theory ------------------------------------------------------

  /// Greatest common divisor (binary GCD).
  static Bignum gcd(Bignum a, Bignum b);

  /// Modular inverse of a modulo m; nullopt when gcd(a, m) != 1 or m == 0.
  static std::optional<Bignum> mod_inverse(const Bignum& a, const Bignum& m);

  /// a^e mod m. Uses Montgomery exponentiation for odd m (one scratch
  /// vector, wiped on exit, and no copy of m), a generic square-and-multiply
  /// with explicit reduction otherwise. m must be > 1. For odd m the window
  /// count follows m's width, so the run time does not depend on e's value:
  /// use it for private exponents.
  static Bignum mod_exp(const Bignum& a, const Bignum& e, const Bignum& m);

  /// a^e mod m for a public exponent: the same kernel over e's bit length
  /// only (5 windows for e = 65537 instead of m's full width).
  static Bignum mod_exp_public(const Bignum& a, const Bignum& e, const Bignum& m);

  // -- conversion ---------------------------------------------------------

  /// Big-endian bytes, minimal length (empty for zero) or left-padded to
  /// `min_len` when larger.
  std::vector<std::byte> to_bytes_be(std::size_t min_len = 0) const;

  /// Little-endian bytes covering all significant limbs, trailing zeros
  /// trimmed (empty for zero).
  std::vector<std::byte> to_bytes_le() const;

  /// Decimal representation.
  std::string to_decimal() const;

  /// Lower-case hex, no leading zeros ("0" for zero).
  std::string to_hex() const;

  /// Destroys the value: every limb is overwritten with zeros through a
  /// volatile pointer (stores the optimizer cannot elide) before the
  /// storage is released, then the value becomes zero. For key material —
  /// the BN_clear_free discipline as a member function.
  void scrub() noexcept;

 private:
  void normalize() noexcept;
  static Bignum from_limbs(std::vector<Limb> limbs);

  std::vector<Limb> limbs_;  // little-endian, normalized
};

/// Quotient and remainder of Bignum::divmod.
struct DivMod {
  Bignum quotient;
  Bignum remainder;
};

}  // namespace keyguard::bn
