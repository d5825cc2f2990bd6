#include "bignum/montgomery.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "bignum/montgomery_adx.hpp"
#include "bignum/montgomery_ifma.hpp"

namespace keyguard::bn {
namespace mont {
namespace {

using u128 = unsigned __int128;

// All-ones when bit 0 of `bit` is set, else zero.
inline Limb mask_of(Limb bit) noexcept { return Limb{0} - (bit & 1); }

// out = v - n if v >= n, else v, for v < 2n given as l limbs plus a
// carry bit `top`: the difference goes to `diff`, then a masked select
// keeps v when the subtract borrows past `top`. out may alias v or diff.
void subtract_if_ge(Limb* out, const Limb* v, Limb top, const Limb* n, std::size_t l,
                    Limb* diff) noexcept {
  Limb borrow = 0;
  for (std::size_t i = 0; i < l; ++i) {
    const u128 d = static_cast<u128>(v[i]) - n[i] - borrow;
    diff[i] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 64) & 1;
  }
  const Limb keep = mask_of(borrow & ~top);
  for (std::size_t i = 0; i < l; ++i) out[i] = (v[i] & keep) | (diff[i] & ~keep);
}

// r = a + b mod n for a, b < n (r may alias either). tmp: l limbs.
void add_mod(Limb* r, const Limb* a, const Limb* b, const Limb* n, std::size_t l,
             Limb* tmp) noexcept {
  Limb carry = 0;
  for (std::size_t i = 0; i < l; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    r[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
  subtract_if_ge(r, r, carry, n, l, tmp);
}

}  // namespace

namespace portable {

// r = a*a*R^{-1} mod n for a < n: each cross product once, doubled, plus
// the diagonal, then a separate REDC pass. scratch: 2l + 1 limbs.
void sqr(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
         std::span<Limb> scratch) noexcept {
  const std::size_t l = m.limbs();
  const Limb* ap = a.data();
  const Limb* np = m.n.data();
  Limb* t = scratch.data();
  std::fill_n(t, 2 * l + 1, Limb{0});
  for (std::size_t i = 0; i + 1 < l; ++i) {
    const u128 ai = ap[i];
    Limb carry = 0;
    for (std::size_t j = i + 1; j < l; ++j) {
      const u128 cur = ai * ap[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    t[i + l] = carry;
  }
  // Double the cross terms (their sum is below a^2 / 2: no carry out).
  for (std::size_t i = 2 * l; i-- > 1;) t[i] = (t[i] << 1) | (t[i - 1] >> 63);
  t[0] <<= 1;
  Limb carry = 0;  // add the squares a[i]^2 at limb 2i
  for (std::size_t i = 0; i < l; ++i) {
    const u128 sq = static_cast<u128>(ap[i]) * ap[i];
    u128 s = static_cast<u128>(t[2 * i]) + static_cast<Limb>(sq) + carry;
    t[2 * i] = static_cast<Limb>(s);
    s = static_cast<u128>(t[2 * i + 1]) + static_cast<Limb>(sq >> 64) + static_cast<Limb>(s >> 64);
    t[2 * i + 1] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
  // REDC: cancel one low limb per pass; `top` carries into limb i + l + 1.
  Limb top = 0;
  for (std::size_t i = 0; i < l; ++i) {
    const u128 q = t[i] * m.n0_inv;
    Limb c = 0;
    for (std::size_t j = 0; j < l; ++j) {
      const u128 cur = q * np[j] + t[i + j] + c;
      t[i + j] = static_cast<Limb>(cur);
      c = static_cast<Limb>(cur >> 64);
    }
    const u128 s = static_cast<u128>(t[i + l]) + c + top;
    t[i + l] = static_cast<Limb>(s);
    top = static_cast<Limb>(s >> 64);
  }
  subtract_if_ge(r.data(), t + l, top, np, l, r.data());
}

}  // namespace portable

Limb neg_inv(Limb x) noexcept {
  Limb inv = x;  // correct to 3 bits for odd x; each Newton step doubles that
  for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
  return ~inv + 1;
}

namespace portable {

void mul(std::span<Limb> r, std::span<const Limb> a, std::span<const Limb> b,
         const Modulus& m, std::span<Limb> scratch) noexcept {
  const std::size_t l = m.limbs();
  const Limb* np = m.n.data();
  const Limb* ap = a.data();
  Limb* t = scratch.data();
  std::fill_n(t, l + 2, Limb{0});
  for (std::size_t i = 0; i < l; ++i) {
    // t += a * b[i]
    const u128 bi = b[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < l; ++j) {
      const u128 cur = ap[j] * bi + t[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    u128 top = static_cast<u128>(t[l]) + carry;
    t[l] = static_cast<Limb>(top);
    t[l + 1] = static_cast<Limb>(top >> 64);
    // t = (t + q*n) / 2^64 with q chosen so the low limb cancels.
    const u128 q = t[0] * m.n0_inv;
    u128 cur = q * np[0] + t[0];
    carry = static_cast<Limb>(cur >> 64);
    for (std::size_t j = 1; j < l; ++j) {
      cur = q * np[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    top = static_cast<u128>(t[l]) + carry;
    t[l - 1] = static_cast<Limb>(top);
    t[l] = t[l + 1] + static_cast<Limb>(top >> 64);
  }
  subtract_if_ge(r.data(), t, t[l], np, l, r.data());  // t < 2n
}

}  // namespace portable

namespace {

// The two row kernels as template arguments of the functions built on
// them, so each instantiation calls its kernel directly.
struct PortableKernel {
  static void mul(std::span<Limb> r, std::span<const Limb> a, std::span<const Limb> b,
                  const Modulus& m, std::span<Limb> scratch) noexcept {
    portable::mul(r, a, b, m, scratch);
  }
  static void sqr(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
                  std::span<Limb> scratch) noexcept {
    portable::sqr(r, a, m, scratch);
  }
};

#if KEYGUARD_MONT_ADX
struct AdxKernel {
  static void mul(std::span<Limb> r, std::span<const Limb> a, std::span<const Limb> b,
                  const Modulus& m, std::span<Limb> scratch) noexcept {
    const std::size_t l = m.limbs();
    Limb* t = scratch.data();
    adx::mul_rows(t, a.data(), b.data(), m.n.data(), m.n0_inv, l);
    subtract_if_ge(r.data(), t + l, t[2 * l], m.n.data(), l, r.data());  // t < 2n
  }
  static void sqr(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
                  std::span<Limb> scratch) noexcept {
    mul(r, a, a, m, scratch);
  }
};
#endif

// CPUID, read once per process.
bool adx_selected() noexcept {
#if KEYGUARD_MONT_ADX
  static const bool selected = adx::available();
  return selected;
#else
  return false;
#endif
}

// CPUID again: the IFMA dual exp runs only beside the ADX rows, which
// prepare its inputs.
bool ifma_selected() noexcept {
#if KEYGUARD_MONT_IFMA
  static const bool selected = adx_selected() && ifma::available();
  return selected;
#else
  return false;
#endif
}

// Calls f with the selected kernel's tag.
template <class F>
void with_kernel(F&& f) noexcept {
#if KEYGUARD_MONT_ADX
  if (adx_selected()) return f(AdxKernel{});
#endif
  f(PortableKernel{});
}

template <class K>
void from_mont_with(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
                    std::span<Limb> scratch) noexcept {
  const std::size_t l = m.limbs();
  const auto one = scratch.first(l);
  std::fill(one.begin(), one.end(), Limb{0});
  one[0] = 1;
  K::mul(r, a, one, m, scratch.subspan(l));
}

template <class K>
void to_mont_with(std::span<Limb> r, std::span<const Limb> x, const Modulus& m,
                  std::span<Limb> scratch) noexcept {
  const std::size_t l = m.limbs();
  std::fill(r.begin(), r.end(), Limb{0});
  const auto chunk = scratch.first(l);
  const auto t = scratch.subspan(l);
  // x = sum C_k R^k; Montgomery form of the running prefix v is v*R, and
  // (v*R + C)*R = mont(v*R, R^2) + mont(C, R^2). Each C < R, R^2 < n.
  for (std::size_t k = (x.size() + l - 1) / l; k-- > 0;) {
    const std::size_t lo = k * l;
    const std::size_t len = std::min(l, x.size() - lo);
    std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(lo), len, chunk.begin());
    std::fill(chunk.begin() + static_cast<std::ptrdiff_t>(len), chunk.end(), Limb{0});
    K::mul(chunk, chunk, m.rr, m, t);
    K::mul(r, r, m.rr, m, t);
    add_mod(r.data(), r.data(), chunk.data(), m.n.data(), l, t.data());
  }
}

template <class K>
void exp_with(std::span<Limb> r, std::span<const Limb> am, std::span<const Limb> e,
              const Modulus& m, std::span<Limb> scratch) noexcept {
  constexpr std::size_t kWindow = 4;
  constexpr std::size_t kTable = std::size_t{1} << kWindow;
  const std::size_t l = m.limbs();
  const auto entry = [&](std::size_t i) { return scratch.subspan(i * l, l); };
  const auto sel = scratch.subspan(kTable * l, l);
  const auto t = scratch.subspan((kTable + 1) * l);

  // table[i] = am^i in Montgomery form; table[0] = R mod n = mont(1, R^2).
  std::copy(am.begin(), am.end(), entry(1).begin());
  std::fill(sel.begin(), sel.end(), Limb{0});
  sel[0] = 1;
  K::mul(entry(0), sel, m.rr, m, t);
  for (std::size_t i = 2; i < kTable; ++i) K::mul(entry(i), entry(i - 1), entry(1), m, t);

  std::copy(entry(0).begin(), entry(0).end(), r.begin());
  constexpr std::size_t kPerLimb = 64 / kWindow;
  for (std::size_t w = kPerLimb * e.size(); w-- > 0;) {
    for (std::size_t s = 0; s < kWindow; ++s) K::sqr(r, r, m, t);
    const Limb idx = (e[w / kPerLimb] >> (kWindow * (w % kPerLimb))) & (kTable - 1);
    // Read every entry; keep the one whose index matches.
    std::fill(sel.begin(), sel.end(), Limb{0});
    for (std::size_t i = 0; i < kTable; ++i) {
      const Limb diff = idx ^ i;
      const Limb hit = mask_of(((diff | (Limb{0} - diff)) >> 63) ^ 1);
      const Limb* src = entry(i).data();
      for (std::size_t j = 0; j < l; ++j) sel[j] |= src[j] & hit;
    }
    K::mul(r, r, sel, m, t);
  }
}

template <class K>
void compute_rr_with(std::span<Limb> rr, std::span<const Limb> n, Limb n0_inv,
                     std::span<Limb> scratch) noexcept {
  const std::size_t l = n.size();
  const std::size_t bits =
      64 * l - static_cast<std::size_t>(std::countl_zero(n[l - 1]));
  // 64l = t * 2^j with t odd: reach R*2^t by doublings, then j Montgomery
  // squarings take R*2^t to R*2^(t*2^j) = R^2.
  const auto tz = static_cast<std::size_t>(std::countr_zero(l));
  const std::size_t t = l >> tz;
  const std::size_t squarings = 6 + tz;
  std::fill(rr.begin(), rr.end(), Limb{0});
  rr[(bits - 1) / 64] = Limb{1} << ((bits - 1) % 64);  // 2^(bits-1) < n
  const auto d = scratch.first(l);
  for (std::size_t i = 64 * l - (bits - 1) + t; i-- > 0;) {
    // rr = 2*rr mod n
    const Limb carry = rr[l - 1] >> 63;
    for (std::size_t j = l; j-- > 1;) rr[j] = (rr[j] << 1) | (rr[j - 1] >> 63);
    rr[0] <<= 1;
    subtract_if_ge(rr.data(), rr.data(), carry, n.data(), l, d.data());
  }
  const Modulus m{n, {}, n0_inv};
  for (std::size_t i = 0; i < squarings; ++i) K::sqr(rr, rr, m, scratch);
}

}  // namespace

const char* kernel_name() noexcept {
  if (ifma_selected()) return "adx+ifma";
  return adx_selected() ? "adx" : "portable";
}

void mul(std::span<Limb> r, std::span<const Limb> a, std::span<const Limb> b,
         const Modulus& m, std::span<Limb> scratch) noexcept {
  with_kernel([&](auto k) { decltype(k)::mul(r, a, b, m, scratch); });
}

void sqr(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
         std::span<Limb> scratch) noexcept {
  with_kernel([&](auto k) { decltype(k)::sqr(r, a, m, scratch); });
}

void from_mont(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
               std::span<Limb> scratch) noexcept {
  with_kernel([&](auto k) { from_mont_with<decltype(k)>(r, a, m, scratch); });
}

void to_mont(std::span<Limb> r, std::span<const Limb> x, const Modulus& m,
             std::span<Limb> scratch) noexcept {
  with_kernel([&](auto k) { to_mont_with<decltype(k)>(r, x, m, scratch); });
}

void exp(std::span<Limb> r, std::span<const Limb> am, std::span<const Limb> e,
         const Modulus& m, std::span<Limb> scratch) noexcept {
  with_kernel([&](auto k) { exp_with<decltype(k)>(r, am, e, m, scratch); });
}

void compute_rr(std::span<Limb> rr, std::span<const Limb> n, Limb n0_inv,
                std::span<Limb> scratch) noexcept {
  with_kernel([&](auto k) { compute_rr_with<decltype(k)>(rr, n, n0_inv, scratch); });
}

static_assert(exp2_scratch_limbs(8) == ifma::scratch_limbs(8) + 4 * 8 + scratch_limbs(8));
static_assert(exp2_scratch_limbs(33) == ifma::scratch_limbs(33) + 4 * 33 + scratch_limbs(33));

void exp2(std::span<Limb> rp, std::span<Limb> rq, std::span<const Limb> x,
          std::span<const Limb> ep, std::span<const Limb> eq, const Modulus& mp,
          const Modulus& mq, std::span<Limb> scratch) noexcept {
#if KEYGUARD_MONT_IFMA
  const std::size_t l = mp.limbs();
  if (ifma_selected() && mq.limbs() == l && l <= ifma::kMaxLimbs) {
    const auto digit_scratch = scratch.first(ifma::scratch_limbs(l));
    const auto prep = scratch.subspan(digit_scratch.size(), 4 * l);
    const auto k = scratch.subspan(digit_scratch.size() + 4 * l);
    // R' = 2^(52D) = 2^(52D - 64l) * R, and 2 <= 52D - 64l <= 53.
    const Limb r_over_r = Limb{1} << (52 * ifma::digits(l) - 64 * l);
    const auto half = [&](std::span<Limb> r, std::span<const Limb> e, const Modulus& m,
                          std::size_t i) {
      const auto xm = prep.subspan(2 * i * l, l);
      const auto one = prep.subspan((2 * i + 1) * l, l);
      to_mont(one, std::span(&r_over_r, 1), m, k);  // R' mod n
      to_mont(xm, x, m, k);                         // x R mod n
      mul(xm, xm, one, m, k);                       // x R' mod n
      return ifma::Half{r, xm, one, m.n, m.n0_inv, e};
    };
    const ifma::Half hp = half(rp, ep, mp, 0);
    const ifma::Half hq = half(rq, eq, mq, 1);
    ifma::exp2(hp, hq, l, 64 * std::max(ep.size(), eq.size()), digit_scratch);
    subtract_if_ge(rp.data(), rp.data(), 0, mp.n.data(), l, k.data());
    subtract_if_ge(rq.data(), rq.data(), 0, mq.n.data(), l, k.data());
    return;
  }
#endif
  const auto tp = scratch.first(mp.limbs());
  const auto tq = scratch.subspan(tp.size(), mq.limbs());
  const auto k = scratch.subspan(tp.size() + tq.size());
  with_kernel([&](auto kernel) {
    using K = decltype(kernel);
    to_mont_with<K>(tp, x, mp, k);
    to_mont_with<K>(tq, x, mq, k);
    exp_with<K>(tp, tp, ep, mp, k);
    exp_with<K>(tq, tq, eq, mq, k);
    from_mont_with<K>(rp, tp, mp, k);
    from_mont_with<K>(rq, tq, mq, k);
  });
}

void sub_mod(std::span<Limb> r, std::span<const Limb> a, std::span<const Limb> b,
             std::span<const Limb> n) noexcept {
  const std::size_t l = n.size();
  Limb borrow = 0;
  for (std::size_t i = 0; i < l; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    r[i] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 64) & 1;
  }
  const Limb add = mask_of(borrow);
  Limb carry = 0;
  for (std::size_t i = 0; i < l; ++i) {
    const u128 s = static_cast<u128>(r[i]) + (n[i] & add) + carry;
    r[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
}

void wipe(std::span<Limb> s) noexcept {
  volatile Limb* vp = s.data();
  for (std::size_t i = 0; i < s.size(); ++i) vp[i] = 0;
#if defined(__GNUC__) || defined(__clang__)
  __asm__ __volatile__("" : : "r"(s.data()) : "memory");
#endif
}

namespace portable {

void compute_rr(std::span<Limb> rr, std::span<const Limb> n, Limb n0_inv,
                std::span<Limb> scratch) noexcept {
  compute_rr_with<PortableKernel>(rr, n, n0_inv, scratch);
}

void to_mont(std::span<Limb> r, std::span<const Limb> x, const Modulus& m,
             std::span<Limb> scratch) noexcept {
  to_mont_with<PortableKernel>(r, x, m, scratch);
}

void from_mont(std::span<Limb> r, std::span<const Limb> a, const Modulus& m,
               std::span<Limb> scratch) noexcept {
  from_mont_with<PortableKernel>(r, a, m, scratch);
}

void exp(std::span<Limb> r, std::span<const Limb> am, std::span<const Limb> e,
         const Modulus& m, std::span<Limb> scratch) noexcept {
  exp_with<PortableKernel>(r, am, e, m, scratch);
}

}  // namespace portable
}  // namespace mont

namespace {

// One allocation per wrapper call, wiped on exit: R^2 padded to the
// modulus width, the operand/result slots, then the kernel scratch.
class Scratch {
 public:
  Scratch(std::size_t l, std::size_t slots)
      : l_(l), buf_(l + slots * l + mont::scratch_limbs(l), Limb{0}) {}
  ~Scratch() { mont::wipe(buf_); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::span<Limb> rr() { return std::span(buf_).first(l_); }
  std::span<Limb> slot(std::size_t i) { return std::span(buf_).subspan(l_ + i * l_, l_); }
  std::span<Limb> kernel(std::size_t slots) {
    return std::span(buf_).subspan(l_ + slots * l_);
  }

  /// Copies v into `dst`, zero-padded (v must fit).
  static void load(std::span<Limb> dst, std::span<const Limb> v) {
    assert(v.size() <= dst.size());
    std::copy_n(v.begin(), std::min(v.size(), dst.size()), dst.begin());
  }

 private:
  std::size_t l_;
  std::vector<Limb> buf_;
};

// a^e mod n over every bit of max(limbs(n), limbs(e)) limbs (e
// zero-padded). `rr` is R^2 mod n when the caller has it; otherwise it is
// computed into the scratch.
Bignum exp_once(const Bignum& a, const Bignum& e, const Bignum& n, Limb n0_inv,
                const Bignum* rr) {
  const std::size_t l = n.limb_count();
  const std::size_t e_limbs = std::max(l, e.limb_count());
  const std::size_t e_slots = (e_limbs + l - 1) / l;
  Scratch s(l, 1 + e_slots);
  const auto r = s.slot(0);
  const auto ek = std::span(s.slot(1).data(), e_limbs);
  const auto k = s.kernel(1 + e_slots);
  if (rr != nullptr) {
    Scratch::load(s.rr(), rr->limbs());
  } else {
    mont::compute_rr(s.rr(), n.limbs(), n0_inv, k);
  }
  const mont::Modulus m{n.limbs(), s.rr(), n0_inv};
  Scratch::load(ek, e.limbs());
  mont::to_mont(r, a.limbs(), m, k);
  mont::exp(r, r, ek, m, k);
  mont::from_mont(r, r, m, k);
  return Bignum::from_limbs_le(r);
}

// a^e mod n for a public e: R^2 from one division of the public modulus,
// then left-to-right square-and-multiply over e's bits, so e = 65537
// costs 16 squarings and one multiply. The branches follow e, never a.
Bignum exp_public(const Bignum& a, const Bignum& e, const Bignum& n) {
  if (e.is_zero()) return Bignum(Limb{1});  // n > 1
  const std::size_t l = n.limb_count();
  Scratch s(l, 2);
  Scratch::load(s.rr(), ((Bignum(Limb{1}) << (128 * l)) % n).limbs());
  const mont::Modulus m{n.limbs(), s.rr(), mont::neg_inv(n.low_limb())};
  const auto am = s.slot(0);
  const auto r = s.slot(1);
  const auto k = s.kernel(2);
  mont::to_mont(am, a.limbs(), m, k);
  std::ranges::copy(am, r.begin());
  for (std::size_t bit = e.bit_length() - 1; bit-- > 0;) {
    mont::sqr(r, r, m, k);
    if (e.bit(bit)) mont::mul(r, r, am, m, k);
  }
  mont::from_mont(r, r, m, k);
  return Bignum::from_limbs_le(r);
}

}  // namespace

MontgomeryContext::MontgomeryContext(const Bignum& n)
    : n_(n), n0_inv_(mont::neg_inv(n.low_limb())) {
  assert(n.is_odd() && n > Bignum(Limb{1}));
  Scratch s(n.limb_count(), 0);
  mont::compute_rr(s.rr(), n_.limbs(), n0_inv_, s.kernel(0));
  rr_ = Bignum::from_limbs_le(s.rr());
}

Bignum MontgomeryContext::to_mont(const Bignum& a) const {
  Scratch s(n_.limb_count(), 1);
  Scratch::load(s.rr(), rr_.limbs());
  mont::to_mont(s.slot(0), a.limbs(), {n_.limbs(), s.rr(), n0_inv_}, s.kernel(1));
  return Bignum::from_limbs_le(s.slot(0));
}

Bignum MontgomeryContext::from_mont(const Bignum& a) const {
  Scratch s(n_.limb_count(), 1);
  Scratch::load(s.slot(0), a.limbs());
  mont::from_mont(s.slot(0), s.slot(0), {n_.limbs(), {}, n0_inv_}, s.kernel(1));
  return Bignum::from_limbs_le(s.slot(0));
}

Bignum MontgomeryContext::mul(const Bignum& a, const Bignum& b) const {
  Scratch s(n_.limb_count(), 2);
  Scratch::load(s.slot(0), a.limbs());
  Scratch::load(s.slot(1), b.limbs());
  mont::mul(s.slot(0), s.slot(0), s.slot(1), {n_.limbs(), {}, n0_inv_}, s.kernel(2));
  return Bignum::from_limbs_le(s.slot(0));
}

Bignum MontgomeryContext::exp(const Bignum& a, const Bignum& e) const {
  return exp_once(a, e, n_, n0_inv_, &rr_);
}

Bignum mont_mod_exp(const Bignum& a, const Bignum& e, const Bignum& n, Exponent kind) {
  assert(n.is_odd() && n > Bignum(Limb{1}));
  if (kind == Exponent::kPublic) return exp_public(a, e, n);
  return exp_once(a, e, n, mont::neg_inv(n.low_limb()), nullptr);
}

std::pair<Bignum, Bignum> mont_mod_exp2(const Bignum& a, const Bignum& ep, const Bignum& p,
                                        const Bignum& eq, const Bignum& q,
                                        const Bignum* rr_p, const Bignum* rr_q) {
  assert(p.is_odd() && p > Bignum(Limb{1}) && q.is_odd() && q > Bignum(Limb{1}));
  assert((rr_p == nullptr || *rr_p < p) && (rr_q == nullptr || *rr_q < q));
  const std::size_t lp = p.limb_count();
  const std::size_t lq = q.limb_count();
  const std::size_t ewp = std::max(lp, ep.limb_count());
  const std::size_t ewq = std::max(lq, eq.limb_count());
  // R^2 mod p and mod q, both results, both padded exponents, then the
  // exp2 scratch, in this thread's scratch: grown to the widest call the
  // thread has made, all-zero between calls.
  const std::size_t need =
      2 * (lp + lq) + ewp + ewq + mont::exp2_scratch_limbs(std::max(lp, lq));
  thread_local std::vector<Limb> buf;
  if (buf.size() < need) buf.resize(need);  // frees only a wiped block
  const std::span<Limb> all = std::span(buf).first(need);
  const struct WipeOnExit {
    std::span<Limb> s;
    ~WipeOnExit() { mont::wipe(s); }
  } wipe_on_exit{all};
  const auto rrp = all.first(lp);
  const auto rrq = all.subspan(lp, lq);
  const auto rp = all.subspan(lp + lq, lp);
  const auto rq = all.subspan(2 * lp + lq, lq);
  const auto e1 = all.subspan(2 * (lp + lq), ewp);
  const auto e2 = all.subspan(2 * (lp + lq) + ewp, ewq);
  const auto k = all.subspan(2 * (lp + lq) + ewp + ewq);
  const mont::Modulus mp{p.limbs(), rrp, mont::neg_inv(p.low_limb())};
  const mont::Modulus mq{q.limbs(), rrq, mont::neg_inv(q.low_limb())};
  if (rr_p != nullptr) {
    Scratch::load(rrp, rr_p->limbs());
  } else {
    mont::compute_rr(rrp, p.limbs(), mp.n0_inv, k);
  }
  if (rr_q != nullptr) {
    Scratch::load(rrq, rr_q->limbs());
  } else {
    mont::compute_rr(rrq, q.limbs(), mq.n0_inv, k);
  }
  std::ranges::copy(ep.limbs(), e1.begin());
  std::ranges::copy(eq.limbs(), e2.begin());
  mont::exp2(rp, rq, a.limbs(), e1, e2, mp, mq, k);
  return {Bignum::from_limbs_le(rp), Bignum::from_limbs_le(rq)};
}

}  // namespace keyguard::bn
