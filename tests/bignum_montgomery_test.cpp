#include "bignum/montgomery.hpp"

#include <gtest/gtest.h>

#include "bignum/prime.hpp"
#include "util/rng.hpp"

namespace keyguard::bn {
namespace {

// Square-and-multiply with %-reduction: the oracle for every exp below.
Bignum ref_exp(const Bignum& base, const Bignum& e, const Bignum& n) {
  const Bignum b = base % n;
  Bignum ref = Bignum(1) % n;
  for (std::size_t bit = e.bit_length(); bit-- > 0;) {
    ref = (ref * ref) % n;
    if (e.bit(bit)) ref = (ref * b) % n;
  }
  return ref;
}

// A random odd modulus of exactly `limbs` limbs, its top limb 2..64 bits.
Bignum odd_modulus(util::Rng& rng, std::size_t limbs) {
  Bignum n = random_bits(rng, 64 * (limbs - 1) + 2 + rng.next_below(63));
  return n.is_odd() ? n : n.add_limb(1);
}

// Bases and exponents every modulus is checked with.
void check_edges(util::Rng& rng, const Bignum& n) {
  const MontgomeryContext ctx(n);
  const std::size_t l = n.limb_count();
  const Bignum one(1);
  // The kernel runs max(l, limbs(e)) * 16 windows whatever e holds; the
  // oracle's cost grows with e's bits, so e stays at most 3 limbs (above
  // that every exponent has leading zero limbs in the padded span).
  const Bignum random_e = random_bits(rng, 64 * std::min<std::size_t>(l, 3) - 5);
  const Bignum bases[] = {Bignum{}, one,          n - one,
                          n,        n + one,      n * Bignum(3) + Bignum(5),
                          random_bits(rng, 64 * l * 3), random_below(rng, n)};
  const Bignum exps[] = {Bignum{},
                         one,
                         random_e,
                         random_e << 16,              // zero low windows
                         (random_e >> 64) << 64,      // a zero low limb
                         Bignum(0xf000),              // one live window
                         // wider than n while n is at most 4 limbs
                         random_bits(rng, 64 * std::min<std::size_t>(l, 4) + 70)};
  // Every base with random_e, every exponent with a random base (through
  // exp and mod_exp_public), and exponents 0 and 1 with the corner bases.
  const auto check = [&](const Bignum& a, const Bignum& e) {
    EXPECT_EQ(ctx.exp(a, e), ref_exp(a, e, n))
        << "limbs=" << l << " n=" << n.to_hex() << " a=" << a.to_hex() << " e=" << e.to_hex();
  };
  for (const Bignum& a : bases) check(a, random_e);
  for (const Bignum& e : exps) {
    check(bases[7], e);
    EXPECT_EQ(Bignum::mod_exp_public(bases[7], e, n), ref_exp(bases[7], e, n)) << e.to_hex();
  }
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 2; ++j) check(bases[i], exps[j]);
  }
  EXPECT_EQ(ctx.rr(), ((Bignum(1) << (128 * l)) % n));
}

TEST(Montgomery, ToFromMontRoundTrip) {
  util::Rng rng(5);
  const Bignum n = random_bits(rng, 256).add_limb(1);  // odd? force below
  const Bignum modulus = n.is_odd() ? n : n.add_limb(1);
  const MontgomeryContext ctx(modulus);
  for (int i = 0; i < 50; ++i) {
    const Bignum a = random_below(rng, modulus);
    EXPECT_EQ(ctx.from_mont(ctx.to_mont(a)), a);
  }
}

TEST(Montgomery, MulMatchesPlainModularProduct) {
  util::Rng rng(6);
  Bignum modulus = random_bits(rng, 384);
  if (modulus.is_even()) modulus = modulus.add_limb(1);
  const MontgomeryContext ctx(modulus);
  for (int i = 0; i < 50; ++i) {
    const Bignum a = random_below(rng, modulus);
    const Bignum b = random_below(rng, modulus);
    const Bignum got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
    EXPECT_EQ(got, (a * b) % modulus);
  }
}

TEST(Montgomery, ExpMatchesGenericModExp) {
  util::Rng rng(7);
  for (const std::size_t bits : {65u, 128u, 255u, 512u}) {
    Bignum modulus = random_bits(rng, bits);
    if (modulus.is_even()) modulus = modulus.add_limb(1);
    const MontgomeryContext ctx(modulus);
    for (int i = 0; i < 10; ++i) {
      const Bignum base = random_below(rng, modulus);
      const Bignum e = random_bits(rng, 48);
      // Reference: square-and-multiply with divmod reduction.
      Bignum ref(1);
      for (std::size_t bit = e.bit_length(); bit-- > 0;) {
        ref = (ref * ref) % modulus;
        if (e.bit(bit)) ref = (ref * base) % modulus;
      }
      EXPECT_EQ(ctx.exp(base, e), ref) << "bits=" << bits;
    }
  }
}

TEST(Montgomery, ExpZeroExponentIsOne) {
  const MontgomeryContext ctx(Bignum(101));
  EXPECT_TRUE(ctx.exp(Bignum(7), Bignum{}).is_one());
}

TEST(Montgomery, ExpHandlesBaseLargerThanModulus) {
  const MontgomeryContext ctx(Bignum(101));
  EXPECT_EQ(ctx.exp(Bignum(1000), Bignum(3)), Bignum(1000 % 101 * (1000 % 101) % 101 * (1000 % 101) % 101));
}

TEST(Montgomery, SingleLimbModulus) {
  const MontgomeryContext ctx(Bignum(0xfffffffbULL));  // prime near 2^32
  util::Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const Bignum a = Bignum(rng.next_below(0xfffffffbULL));
    const Bignum b = Bignum(rng.next_below(0xfffffffbULL));
    const Bignum got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
    EXPECT_EQ(got, (a * b) % Bignum(0xfffffffbULL));
  }
}

TEST(Montgomery, RrIsRSquaredModN) {
  const Bignum n(1000003);
  const MontgomeryContext ctx(n);
  const Bignum r = Bignum(1) << 64;
  EXPECT_EQ(ctx.rr(), (r * r) % n);
}

TEST(MontgomeryKernel, EveryLimbCountOneToThirtyThree) {
  util::Rng rng(33);
  for (std::size_t l = 1; l <= 33; ++l) check_edges(rng, odd_modulus(rng, l));
}

TEST(MontgomeryKernel, TopLimbAllOnesTakesTheCarryPath) {
  // n's top limb is 0xFFFF...: intermediate t reaches 2^(64L) and the
  // final subtract must use the carry limb.
  util::Rng rng(34);
  for (const std::size_t l : {1u, 2u, 3u, 8u, 16u}) {
    const Bignum r = Bignum(1) << (64 * l);
    check_edges(rng, r - Bignum(1));                      // 2^(64L) - 1
    check_edges(rng, r - Bignum(0xbd));                   // just below R
    Bignum n = Bignum(0xffffffffffffffffULL) << (64 * (l - 1));
    if (l > 1) n = n + random_bits(rng, 64 * (l - 1) - 1);
    if (n.is_even()) n = n.add_limb(1);
    check_edges(rng, n);
  }
}

TEST(MontgomeryKernel, LeadingZeroExponentLimbsChangeNothing) {
  // mont::exp runs the windows it is told to whatever e holds: zero limbs
  // on top of e only square 1 (in Montgomery form) longer, and a public
  // bit-length window count gives the same value.
  util::Rng rng(35);
  for (const std::size_t l : {1u, 4u, 9u}) {
    const Bignum n = odd_modulus(rng, l);
    const MontgomeryContext ctx(n);
    std::vector<Limb> rr(ctx.rr().limbs().begin(), ctx.rr().limbs().end());
    rr.resize(l);
    const mont::Modulus m{n.limbs(), rr, mont::neg_inv(n.low_limb())};
    std::vector<Limb> scratch(mont::scratch_limbs(l));
    const Bignum a = random_below(rng, n);
    const Bignum e = random_bits(rng, 100);
    std::vector<Limb> am(l), r(l);
    mont::to_mont(am, a.limbs(), m, scratch);
    for (const std::size_t width : {e.limb_count(), e.limb_count() + 1, e.limb_count() + 5}) {
      std::vector<Limb> ev(e.limbs().begin(), e.limbs().end());
      ev.resize(width);
      mont::exp(r, am, ev, 64 * width, m, scratch);
      mont::from_mont(r, r, m, scratch);
      EXPECT_EQ(Bignum::from_limbs_le(r), ref_exp(a, e, n)) << "l=" << l << " width=" << width;
    }
    mont::exp(r, am, e.limbs(), e.bit_length(), m, scratch);
    mont::from_mont(r, r, m, scratch);
    EXPECT_EQ(Bignum::from_limbs_le(r), ref_exp(a, e, n)) << "l=" << l << " public";
  }
}

TEST(MontgomeryKernel, SubModWrapsBelowZero) {
  util::Rng rng(36);
  const Bignum n = odd_modulus(rng, 3);
  for (int i = 0; i < 20; ++i) {
    const Bignum a = random_below(rng, n);
    const Bignum b = random_below(rng, n);
    std::vector<Limb> av(a.limbs().begin(), a.limbs().end()), bv(b.limbs().begin(), b.limbs().end());
    av.resize(3);
    bv.resize(3);
    std::vector<Limb> r(3);
    mont::sub_mod(r, av, bv, n.limbs());
    EXPECT_EQ(Bignum::from_limbs_le(r), a >= b ? a - b : n - (b - a));
  }
}

TEST(Montgomery, ModulusAccessor) {
  const Bignum n(999983);
  EXPECT_EQ(MontgomeryContext(n).modulus(), n);
}

}  // namespace
}  // namespace keyguard::bn
