#include "bignum/montgomery.hpp"

#include <gtest/gtest.h>

#include <string_view>

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
  // mont::exp runs a window for every bit of e's span whatever e holds:
  // zero limbs on top of e only square 1 (in Montgomery form) longer.
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
      mont::exp(r, am, ev, m, scratch);
      mont::from_mont(r, r, m, scratch);
      EXPECT_EQ(Bignum::from_limbs_le(r), ref_exp(a, e, n)) << "l=" << l << " width=" << width;
    }
  }
}

TEST(PublicExp, MatchesTheOracleAtEveryWidth) {
  // mod_exp_public runs square-and-multiply over e's bits with R^2 from a
  // division: exponents 0, 1, 2, 3, 65537, 2^64 + 1 and random ones of
  // one to three limbs, bases 0, 1, n - 1, n, n + 1 and one wider than n,
  // odd moduli of 1..33 limbs plus all-ones ones (the carry limb).
  util::Rng rng(45);
  const Bignum one(1);
  std::vector<Bignum> moduli;
  for (std::size_t l = 1; l <= 33; ++l) moduli.push_back(odd_modulus(rng, l));
  for (const std::size_t l : {1u, 8u, 16u}) moduli.push_back((one << (64 * l)) - one);
  for (const Bignum& n : moduli) {
    const std::size_t l = n.limb_count();
    std::vector<Bignum> exps = {Bignum{}, one, Bignum(2), Bignum(3), Bignum(65537),
                                (one << 64) + one};
    for (std::size_t el = 1; el <= 3; ++el) {
      exps.push_back(random_bits(rng, 64 * el - rng.next_below(64)));
    }
    const Bignum bases[] = {Bignum{}, one, n - one, n, n + one,
                            random_bits(rng, 64 * l + 1 + rng.next_below(128))};
    for (const Bignum& a : bases) {
      for (const Bignum& e : exps) {
        EXPECT_EQ(Bignum::mod_exp_public(a, e, n), ref_exp(a, e, n))
            << "limbs=" << l << " n=" << n.to_hex() << " a=" << a.to_hex()
            << " e=" << e.to_hex();
      }
    }
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

// --- kernel equivalence: the CPUID-selected kernel vs mont::portable:: ---

std::vector<Limb> padded(const Bignum& v, std::size_t l) {
  std::vector<Limb> out(v.limbs().begin(), v.limbs().end());
  out.resize(l);
  return out;
}

// Every kernel entry point on both kernels, compared bit for bit, for one
// modulus: compute_rr, to_mont of several widths, mul and sqr over corner
// operands (0, 1, n-1, n-2, random) with r aliasing a and b, and exp.
void check_kernels_agree(util::Rng& rng, const Bignum& n) {
  const std::size_t l = n.limb_count();
  const std::vector<Limb> nv = padded(n, l);
  const Limb n0 = mont::neg_inv(nv[0]);
  std::vector<Limb> s(mont::scratch_limbs(l)), rr(l), rr_p(l), r(l), r_p(l);
  mont::compute_rr(rr, nv, n0, s);
  mont::portable::compute_rr(rr_p, nv, n0, s);
  ASSERT_EQ(rr, rr_p) << "compute_rr l=" << l << " n=" << n.to_hex();
  const mont::Modulus m{nv, rr, n0};

  const Bignum one(1);
  std::vector<std::vector<Limb>> ops;
  for (const Bignum& v : {Bignum{}, one, n - one, n - Bignum(2), random_below(rng, n),
                          random_below(rng, n), n >> 1}) {
    ops.push_back(padded(v, l));
  }
  const auto where = [&](std::size_t i, std::size_t j) {
    return "l=" + std::to_string(l) + " n=" + n.to_hex() + " ops " + std::to_string(i) + "," +
           std::to_string(j);
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    mont::sqr(r, ops[i], m, s);
    mont::portable::sqr(r_p, ops[i], m, s);
    EXPECT_EQ(r, r_p) << "sqr " << where(i, i);
    r = ops[i];  // r aliases a
    mont::sqr(r, r, m, s);
    EXPECT_EQ(r, r_p) << "sqr in place " << where(i, i);
    for (std::size_t j = 0; j < ops.size(); ++j) {
      mont::mul(r, ops[i], ops[j], m, s);
      mont::portable::mul(r_p, ops[i], ops[j], m, s);
      EXPECT_EQ(r, r_p) << "mul " << where(i, j);
      r = ops[i];
      mont::mul(r, r, ops[j], m, s);
      EXPECT_EQ(r, r_p) << "mul r=a " << where(i, j);
      r = ops[j];
      mont::mul(r, ops[i], r, m, s);
      EXPECT_EQ(r, r_p) << "mul r=b " << where(i, j);
    }
  }
  // a*b < R*n also holds for a = R - 1 (all ones) against b < n.
  const std::vector<Limb> ones(l, ~Limb{0});
  mont::mul(r, ones, ops[2], m, s);
  mont::portable::mul(r_p, ones, ops[2], m, s);
  EXPECT_EQ(r, r_p) << "mul by R-1 " << where(2, 2);

  for (const std::size_t bits : {std::size_t{0}, 64 * l - 1, 64 * l, 64 * l + 64, 192 * l + 5}) {
    const Bignum x = random_bits(rng, bits);
    mont::to_mont(r, x.limbs(), m, s);
    mont::portable::to_mont(r_p, x.limbs(), m, s);
    EXPECT_EQ(r, r_p) << "to_mont bits=" << bits << " l=" << l;
  }
  mont::to_mont(r, ones, m, s);
  mont::portable::to_mont(r_p, ones, m, s);
  EXPECT_EQ(r, r_p) << "to_mont R-1 l=" << l;
  mont::from_mont(r, ops[2], m, s);
  mont::portable::from_mont(r_p, ops[2], m, s);
  EXPECT_EQ(r, r_p) << "from_mont n-1 l=" << l;

  // exp of a random base and of n-1, by a random full-width exponent and
  // by an all-ones one; r aliases the base.
  std::vector<Limb> am(l);
  const std::vector<Limb> e_rand = padded(random_bits(rng, 64 * l), l);
  for (const auto& base : {ops[4], ops[2]}) {
    mont::portable::to_mont(am, base, m, s);
    for (const auto& e : {e_rand, ones}) {
      mont::portable::exp(r_p, am, e, m, s);
      r = am;
      mont::exp(r, r, e, m, s);
      EXPECT_EQ(r, r_p) << "exp l=" << l << " n=" << n.to_hex();
    }
  }
}

class KernelEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::string_view(mont::kernel_name()).starts_with("adx")) {
      GTEST_SKIP() << "CPUID reports no ADX/BMI2: mont:: runs the portable kernel itself";
    }
  }
};

TEST_F(KernelEquivalence, EveryLimbCountOneToThirtyThree) {
  // l = 1..3 never enter a 4-limb block; l % 4 = 1..3 end in the tail.
  util::Rng rng(37);
  for (std::size_t l = 1; l <= 33; ++l) check_kernels_agree(rng, odd_modulus(rng, l));
}

TEST_F(KernelEquivalence, TopLimbAllOnes) {
  // 0xFFFF... top limbs drive both carry chains and the column-l carry.
  util::Rng rng(38);
  for (std::size_t l = 1; l <= 33; ++l) {
    const Bignum r = Bignum(1) << (64 * l);
    check_kernels_agree(rng, r - Bignum(1));
    Bignum n = Bignum(0xffffffffffffffffULL) << (64 * (l - 1));
    if (l > 1) n = n + random_bits(rng, 64 * (l - 1) - 1);
    check_kernels_agree(rng, n.is_odd() ? n : n.add_limb(1));
  }
}

TEST_F(KernelEquivalence, RandomModuliAtRsaWidths) {
  // The CRT halves of 1024- and 2048-bit keys, many times over.
  util::Rng rng(39);
  for (int i = 0; i < 20; ++i) {
    for (const std::size_t l : {8u, 16u}) check_kernels_agree(rng, odd_modulus(rng, l));
  }
}

// --- exp2: both CRT halves at once vs two mont::portable::exp calls ---

// A modulus with its R^2, owning the limbs a mont::Modulus views.
struct OwnedModulus {
  explicit OwnedModulus(const Bignum& v) : n(padded(v, v.limb_count())), rr(n.size()) {
    std::vector<Limb> s(mont::scratch_limbs(n.size()));
    mont::portable::compute_rr(rr, n, mont::neg_inv(n[0]), s);
  }
  mont::Modulus view() const { return {n, rr, mont::neg_inv(n[0])}; }
  std::vector<Limb> n;
  std::vector<Limb> rr;
};

// x^e mod n on the portable kernel over every bit of e's span.
std::vector<Limb> portable_exp(const Bignum& x, const std::vector<Limb>& e,
                               const OwnedModulus& n) {
  const mont::Modulus m = n.view();
  std::vector<Limb> s(mont::scratch_limbs(m.limbs())), r(m.limbs());
  mont::portable::to_mont(r, x.limbs(), m, s);
  mont::portable::exp(r, r, e, m, s);
  mont::portable::from_mont(r, r, m, s);
  return r;
}

// exp2 against two portable exps, also with rp and then rq aliasing x
// (when x fits that half's width).
void check_exp2(const Bignum& p, const Bignum& q, const Bignum& x, const std::vector<Limb>& ep,
                const std::vector<Limb>& eq) {
  const OwnedModulus mp(p), mq(q);
  const std::size_t lp = mp.n.size(), lq = mq.n.size();
  const std::vector<Limb> want_p = portable_exp(x, ep, mp), want_q = portable_exp(x, eq, mq);
  const std::string where = "lp=" + std::to_string(lp) + " lq=" + std::to_string(lq) +
                            " p=" + p.to_hex() + " q=" + q.to_hex() + " x=" + x.to_hex();
  std::vector<Limb> s(mont::exp2_scratch_limbs(std::max(lp, lq))), rp(lp), rq(lq);
  mont::exp2(rp, rq, x.limbs(), ep, eq, mp.view(), mq.view(), s);
  EXPECT_EQ(rp, want_p) << "p half " << where;
  EXPECT_EQ(rq, want_q) << "q half " << where;
  if (x.limb_count() <= lp) {
    rp = padded(x, lp);
    mont::exp2(rp, rq, rp, ep, eq, mp.view(), mq.view(), s);
    EXPECT_EQ(rp, want_p) << "rp aliases x " << where;
    EXPECT_EQ(rq, want_q) << "rp aliases x " << where;
  }
  if (x.limb_count() <= lq) {
    rq = padded(x, lq);
    mont::exp2(rp, rq, rq, ep, eq, mp.view(), mq.view(), s);
    EXPECT_EQ(rp, want_p) << "rq aliases x " << where;
    EXPECT_EQ(rq, want_q) << "rq aliases x " << where;
  }
}

// Random full-width exponents, x = 0, 1, n-1 (of p), a random x below
// p*q and an x wider than both, then e = 0 and all-ones exponents.
void check_exp2_corners(util::Rng& rng, const Bignum& p, const Bignum& q) {
  const std::size_t lp = p.limb_count(), lq = q.limb_count();
  const std::vector<Limb> ep = padded(random_bits(rng, 64 * lp), lp);
  const std::vector<Limb> eq = padded(random_bits(rng, 64 * lq), lq);
  for (const Bignum& x : {Bignum{}, Bignum(1), p - Bignum(1), q - Bignum(1),
                          random_below(rng, p * q), random_bits(rng, 64 * (lp + lq) + 70)}) {
    check_exp2(p, q, x, ep, eq);
  }
  const Bignum x = random_below(rng, p * q);
  check_exp2(p, q, x, std::vector<Limb>(lp), std::vector<Limb>(lq));
  check_exp2(p, q, x, std::vector<Limb>(lp, ~Limb{0}), std::vector<Limb>(lq, ~Limb{0}));
}

// The modulus whose 52-bit digits are all ones up to bit 52k, for the
// largest k that keeps it `limbs` wide (else 2^(64 limbs) - 1).
Bignum all_ones_digits(std::size_t limbs) {
  const std::size_t k = 64 * limbs / 52;
  const std::size_t bits = 52 * k > 64 * (limbs - 1) ? 52 * k : 64 * limbs;
  return (Bignum(1) << bits) - Bignum(1);
}

TEST(Exp2, UnequalWidthsMatchTwoPortableExps) {
  // lp != lq never takes the lockstep kernel, whatever the CPU.
  util::Rng rng(40);
  for (const auto& [lp, lq] : {std::pair<std::size_t, std::size_t>{1, 2}, {2, 1}, {7, 9},
                              {9, 7}, {8, 16}, {16, 15}}) {
    check_exp2_corners(rng, odd_modulus(rng, lp), odd_modulus(rng, lq));
  }
}

TEST(Exp2, ExponentSpansOfDifferentWidths) {
  // One schedule covers the wider span; the narrower reads as zero past
  // its end, which changes no value.
  util::Rng rng(41);
  for (const std::size_t l : {1u, 8u, 16u}) {
    const Bignum p = odd_modulus(rng, l), q = odd_modulus(rng, l);
    const Bignum x = random_below(rng, p * q);
    check_exp2(p, q, x, padded(random_bits(rng, 64 * l), l),
               padded(random_bits(rng, 64 * l + 40), l + 1));
    check_exp2(p, q, x, padded(random_bits(rng, 30), 1), padded(random_bits(rng, 64 * l), l));
  }
}

TEST(Exp2, MontModExp2MatchesTwoModExps) {
  // The Bignum wrapper, including exponents wider than their modulus.
  util::Rng rng(42);
  for (const auto& [lp, lq] : {std::pair<std::size_t, std::size_t>{8, 8}, {3, 5}, {16, 16}}) {
    const Bignum p = odd_modulus(rng, lp), q = odd_modulus(rng, lq);
    const Bignum a = random_below(rng, p * q);
    const Bignum ep = random_bits(rng, 64 * lp - 3), eq = random_bits(rng, 64 * lq + 90);
    const auto [m1, m2] = mont_mod_exp2(a, ep, p, eq, q);
    EXPECT_EQ(m1, Bignum::mod_exp(a, ep, p)) << "lp=" << lp;
    EXPECT_EQ(m2, Bignum::mod_exp(a, eq, q)) << "lq=" << lq;
  }
}

TEST(Exp2, CallerRrIsBitIdenticalToComputingIt) {
  // R^2 from a MontgomeryContext (the values sslsim's contexts hold) gives
  // the results a computed R^2 does, for either half or both, at equal
  // widths (the lockstep kernel where the CPU has it) and unequal ones.
  // 2^(64(l-1)) + 1 has R^2 = 2^128 mod it, far narrower than l limbs.
  util::Rng rng(46);
  const Bignum one(1);
  const auto sparse = [&](std::size_t l) { return (one << (64 * (l - 1))) + one; };
  const std::pair<Bignum, Bignum> moduli[] = {
      {odd_modulus(rng, 1), odd_modulus(rng, 1)},   {odd_modulus(rng, 8), odd_modulus(rng, 8)},
      {odd_modulus(rng, 16), odd_modulus(rng, 16)}, {odd_modulus(rng, 3), odd_modulus(rng, 5)},
      {odd_modulus(rng, 9), odd_modulus(rng, 7)},   {odd_modulus(rng, 16), odd_modulus(rng, 15)},
      {sparse(8), odd_modulus(rng, 8)},             {sparse(8), sparse(5)}};
  for (const auto& [p, q] : moduli) {
    const std::size_t lp = p.limb_count(), lq = q.limb_count();
    const MontgomeryContext cp(p), cq(q);
    const Bignum ep = random_bits(rng, 64 * lp - 3), eq = random_bits(rng, 64 * lq + 20);
    for (const Bignum& a : {Bignum{}, one, random_below(rng, p * q),
                            random_bits(rng, 64 * (lp + lq) + 70)}) {
      const auto computed = mont_mod_exp2(a, ep, p, eq, q);
      const std::string where = "lp=" + std::to_string(lp) + " lq=" + std::to_string(lq) +
                                " a=" + a.to_hex();
      EXPECT_EQ(computed.first, Bignum::mod_exp(a, ep, p)) << where;
      EXPECT_EQ(computed.second, Bignum::mod_exp(a, eq, q)) << where;
      EXPECT_EQ(mont_mod_exp2(a, ep, p, eq, q, &cp.rr(), &cq.rr()), computed) << where;
      EXPECT_EQ(mont_mod_exp2(a, ep, p, eq, q, &cp.rr(), nullptr), computed) << where;
      EXPECT_EQ(mont_mod_exp2(a, ep, p, eq, q, nullptr, &cq.rr()), computed) << where;
    }
  }
}

class Exp2Lockstep : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string_view(mont::kernel_name()) != "adx+ifma") {
      GTEST_SKIP() << "CPUID reports no AVX512F/AVX512IFMA (kernel "
                   << mont::kernel_name() << "): exp2 runs the row kernel twice, "
                   << "which the unequal-width cases cover";
    }
  }
};

TEST_F(Exp2Lockstep, EveryLimbCountOneToThirtyThree) {
  // 1 to 6 zmm registers per operand; D = 8k digits at l = 6, 13, 19, 26.
  util::Rng rng(43);
  for (std::size_t l = 1; l <= 33; ++l) {
    check_exp2_corners(rng, odd_modulus(rng, l), odd_modulus(rng, l));
  }
}

TEST_F(Exp2Lockstep, AllOnesDigitsDriveTheCarryLookahead) {
  // Lanes equal to 2^52 - 1 propagate a carry through the whole vector:
  // all-ones moduli, n - 1 bases and all-ones exponents.
  util::Rng rng(44);
  for (std::size_t l = 1; l <= 33; ++l) {
    const Bignum ones = all_ones_digits(l);
    const Bignum top = (Bignum(1) << (64 * l)) - Bignum(1);
    check_exp2_corners(rng, ones, top);
    check_exp2_corners(rng, top, odd_modulus(rng, l));
  }
}

TEST_F(Exp2Lockstep, RandomModuliAtRsaWidths) {
  // The CRT halves of 1024- to 4096-bit keys, and the widest modulus the
  // kernel takes (8 registers per operand).
  util::Rng rng(45);
  for (int i = 0; i < 10; ++i) {
    for (const std::size_t l : {8u, 16u, 32u, 51u}) {
      if (l > 16 && i > 1) continue;
      const Bignum p = odd_modulus(rng, l), q = odd_modulus(rng, l);
      check_exp2(p, q, random_below(rng, p * q), padded(random_bits(rng, 64 * l), l),
                 padded(random_bits(rng, 64 * l), l));
    }
  }
}

TEST(Montgomery, ModulusAccessor) {
  const Bignum n(999983);
  EXPECT_EQ(MontgomeryContext(n).modulus(), n);
}

}  // namespace
}  // namespace keyguard::bn
