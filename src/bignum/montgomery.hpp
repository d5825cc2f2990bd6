// Montgomery modular arithmetic for odd moduli.
//
// Two layers share one limb kernel:
//
//  * `mont::` — fixed-width limb functions over caller-provided storage.
//    Every operand is exactly L limbs (the modulus width, zero-padded),
//    every call writes in place into a scratch span the caller owns, and
//    nothing allocates. The multiply is CIOS (squarings compute each cross
//    product once, then reduce) with a masked final subtract. `mont::exp`
//    runs fixed 4-bit windows over as many exponent bits as the caller
//    names, with a full-table masked select, so neither the branch pattern
//    nor the memory access pattern depends on the exponent's value.
//    Callers that hold secrets (secure::SecureRsaKey) put the modulus,
//    R^2, the operands and the scratch in locked memory and wipe it
//    themselves. mul and sqr run one of two row kernels, picked once per
//    process by CPUID and named by kernel_name(): the x86-64 mulx/adcx/
//    adox kernel (montgomery_adx.cpp) when the CPU has ADX and BMI2, else
//    the portable u128 one. `mont::portable::` always runs the latter; it
//    is the tests' oracle. Both give bit-identical results. `mont::exp2`
//    computes both CRT halves at once: in lockstep on 52-bit digits
//    (montgomery_ifma.cpp) when the CPU also has AVX512F and AVX512IFMA
//    and the halves are equally wide, else as two row-kernel exps.
//
//  * `MontgomeryContext` — the Bignum-facing wrapper, the analogue of
//    OpenSSL's BN_MONT_CTX. Its modulus and R^2 live in ordinary heap
//    Bignums; each exp() takes one scratch vector and wipes it on exit.
//    That analogy is load-bearing for the reproduction: in OpenSSL 0.9.7,
//    RSA private operations with RSA_FLAG_CACHE_PRIVATE set cache
//    Montgomery contexts for P and Q inside the RSA structure, so each
//    cached context holds *another copy of the prime* in heap memory —
//    one of the key-flooding mechanisms the paper measures. The simulated
//    SSL library (src/sslsim) mirrors this class's contents into simulated
//    process memory.
#pragma once

#include <span>
#include <utility>

#include "bignum/bignum.hpp"

namespace keyguard::bn {

namespace mont {

/// A modulus as the kernel sees it: n (L limbs, odd, n > 1), R^2 mod n
/// (L limbs, R = 2^(64L)) and -n^{-1} mod 2^64. Views only; the storage
/// belongs to the caller.
struct Modulus {
  std::span<const Limb> n;
  std::span<const Limb> rr;
  Limb n0_inv = 0;
  std::size_t limbs() const noexcept { return n.size(); }
};

/// Scratch limbs any kernel call below needs for an L-limb modulus.
constexpr std::size_t scratch_limbs(std::size_t l) { return 19 * l + 2; }

/// Scratch limbs exp2 needs for halves of at most L limbs: per half a
/// 16-entry table, the modulus and two working values as 52-bit digits
/// padded to whole zmm registers (8 lanes), plus x*R' and R' mod the
/// half and a row-kernel scratch.
constexpr std::size_t exp2_scratch_limbs(std::size_t l) {
  const std::size_t lanes = ((64 * l + 2 + 51) / 52 + 7) / 8 * 8;
  return 2 * 19 * lanes + 4 * l + scratch_limbs(l);
}

/// -x^{-1} mod 2^64 for odd x.
Limb neg_inv(Limb x) noexcept;

/// rr = R^2 mod n for an odd n of L limbs (top limb nonzero); n0_inv from
/// neg_inv. Does no division: doublings from 2^(bits-1) up to R*2^t, then
/// Montgomery squarings.
void compute_rr(std::span<Limb> rr, std::span<const Limb> n, Limb n0_inv,
                std::span<Limb> scratch) noexcept;

/// The kernels this process runs, picked once by CPUID: "adx+ifma" (exp2
/// on IFMA, everything else on the ADX rows), "adx" or "portable".
const char* kernel_name() noexcept;

/// r = a*b*R^{-1} mod n (CIOS). Requires a*b < R*n, which holds when one
/// operand is < n and the other < R. r may alias a or b. scratch: 2L + 1
/// limbs.
void mul(std::span<Limb> r, std::span<const Limb> a, std::span<const Limb> b,
         const Modulus& m, std::span<Limb> scratch) noexcept;

/// r = a*a*R^{-1} mod n for a < n. r may alias a. scratch: 2L + 1 limbs.
void sqr(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
         std::span<Limb> scratch) noexcept;

/// r = x*R mod n for an x of any width (x.size() may be 0): the
/// Montgomery form of x mod n, by Horner over L-limb chunks, no division.
void to_mont(std::span<Limb> r, std::span<const Limb> x, const Modulus& m,
             std::span<Limb> scratch) noexcept;

/// r = a*R^{-1} mod n for a < R.
void from_mont(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
               std::span<Limb> scratch) noexcept;

/// r = a^e in Montgomery form, for a base `am` already in Montgomery form,
/// over the low `bits` bits of e (bits <= 64 * e.size()): ceil(bits / 4)
/// windows of 4 squarings, a masked select of one of 16 table entries and
/// one multiply, whatever e's value. r may alias am.
void exp(std::span<Limb> r, std::span<const Limb> am, std::span<const Limb> e,
         std::size_t bits, const Modulus& m, std::span<Limb> scratch) noexcept;

/// rp = x^ep mod p and rq = x^eq mod q in ordinary form, for an x of any
/// width: the two halves of an RSA CRT private op. Every bit of both
/// exponent spans is a window bit, whatever the exponents hold. With
/// IFMA and equal widths both halves run one schedule of
/// 16 * max(ep.size(), eq.size()) windows in lockstep (an exponent reads
/// as zero past its end); otherwise each runs exp over its own span. rp
/// or rq may alias x. scratch: exp2_scratch_limbs(max(L_p, L_q)) limbs.
void exp2(std::span<Limb> rp, std::span<Limb> rq, std::span<const Limb> x,
          std::span<const Limb> ep, std::span<const Limb> eq, const Modulus& mp,
          const Modulus& mq, std::span<Limb> scratch) noexcept;

/// r = (a - b) mod n for a, b < n, without a data-dependent branch.
void sub_mod(std::span<Limb> r, std::span<const Limb> a, std::span<const Limb> b,
             std::span<const Limb> n) noexcept;

/// Zeroes limbs with stores the optimizer cannot elide.
void wipe(std::span<Limb> s) noexcept;

/// The same functions on the portable u128 kernel whatever the CPU: a
/// dedicated squaring (each cross product once, then REDC) and u128 CIOS.
namespace portable {
void mul(std::span<Limb> r, std::span<const Limb> a, std::span<const Limb> b,
         const Modulus& m, std::span<Limb> scratch) noexcept;
void sqr(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
         std::span<Limb> scratch) noexcept;
void compute_rr(std::span<Limb> rr, std::span<const Limb> n, Limb n0_inv,
                std::span<Limb> scratch) noexcept;
void to_mont(std::span<Limb> r, std::span<const Limb> x, const Modulus& m,
             std::span<Limb> scratch) noexcept;
void from_mont(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
               std::span<Limb> scratch) noexcept;
void exp(std::span<Limb> r, std::span<const Limb> am, std::span<const Limb> e,
         std::size_t bits, const Modulus& m, std::span<Limb> scratch) noexcept;
}  // namespace portable

}  // namespace mont

/// Precomputed state for repeated multiplication modulo an odd modulus n.
class MontgomeryContext {
 public:
  /// Requires n odd and n > 1.
  explicit MontgomeryContext(const Bignum& n);

  const Bignum& modulus() const noexcept { return n_; }

  /// R^2 mod n — together with the modulus this is what OpenSSL stores in a
  /// BN_MONT_CTX (and thus what leaks as an extra copy of P/Q).
  const Bignum& rr() const noexcept { return rr_; }

  /// Converts into Montgomery form: a*R mod n (any a).
  Bignum to_mont(const Bignum& a) const;

  /// Converts out of Montgomery form: a*R^{-1} mod n (requires a < R).
  Bignum from_mont(const Bignum& a) const;

  /// Montgomery product: a*b*R^{-1} mod n (operands in Montgomery form, < n).
  Bignum mul(const Bignum& a, const Bignum& b) const;

  /// a^e mod n via mont::exp, operands in ordinary form. The window count
  /// is fixed by the modulus width (or e's limb count, when wider), never
  /// by e's bit length.
  Bignum exp(const Bignum& a, const Bignum& e) const;

 private:
  Bignum n_;
  Bignum rr_;    // R^2 mod n, R = 2^(64 * limbs(n))
  Limb n0_inv_;  // -n^{-1} mod 2^64
};

/// How many windows an exponentiation runs: kSecret covers the modulus
/// width (16 windows per limb of max(n, e)); kPublic covers e's bit
/// length only, for exponents such as RSA's e = 65537 (5 windows).
enum class Exponent { kSecret, kPublic };

/// a^e mod n for an odd n > 1 on one scratch vector, wiped on exit, with
/// no copy of n: what Bignum::mod_exp and mod_exp_public run for odd moduli.
Bignum mont_mod_exp(const Bignum& a, const Bignum& e, const Bignum& n, Exponent kind);

/// {a^ep mod p, a^eq mod q} for odd p, q > 1 through mont::exp2, on the
/// calling thread's scratch vector (grown to its widest call, wiped after
/// every call), so only the two results allocate. Each exponent covers
/// every bit of max(limbs(modulus), limbs(e)) limbs, as mod_exp's kSecret
/// does.
std::pair<Bignum, Bignum> mont_mod_exp2(const Bignum& a, const Bignum& ep, const Bignum& p,
                                        const Bignum& eq, const Bignum& q);

}  // namespace keyguard::bn
