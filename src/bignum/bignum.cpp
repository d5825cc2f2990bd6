#include "bignum/bignum.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "bignum/montgomery.hpp"

namespace keyguard::bn {
namespace {

using u128 = unsigned __int128;

constexpr std::size_t kLimbBits = 64;
// Below this operand size (in limbs) schoolbook multiplication beats
// Karatsuba's bookkeeping; 1024-bit RSA operands (16 limbs) stay schoolbook.
constexpr std::size_t kKaratsubaThreshold = 24;

// out = a + b over raw limb spans (out may alias a). Returns carry.
Limb add_into(std::vector<Limb>& out, std::span<const Limb> a, std::span<const Limb> b) {
  const std::size_t n = std::max(a.size(), b.size());
  out.resize(n);
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb ai = i < a.size() ? a[i] : 0;
    const Limb bi = i < b.size() ? b[i] : 0;
    const Limb s1 = ai + bi;
    const Limb c1 = s1 < ai ? 1 : 0;
    const Limb s2 = s1 + carry;
    const Limb c2 = s2 < s1 ? 1 : 0;
    out[i] = s2;
    carry = c1 | c2;
  }
  return carry;
}

// out = a - b; requires a >= b limb-wise magnitude. Returns borrow (0).
Limb sub_into(std::vector<Limb>& out, std::span<const Limb> a, std::span<const Limb> b) {
  out.resize(a.size());
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Limb bi = i < b.size() ? b[i] : 0;
    const Limb d1 = a[i] - bi;
    const Limb br1 = a[i] < bi ? 1 : 0;
    const Limb d2 = d1 - borrow;
    const Limb br2 = d1 < borrow ? 1 : 0;
    out[i] = d2;
    borrow = br1 | br2;
  }
  return borrow;
}

int cmp_limbs(std::span<const Limb> a, std::span<const Limb> b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// Schoolbook product into `out` (must be zeroed, size a+b).
void mul_schoolbook(std::vector<Limb>& out, std::span<const Limb> a, std::span<const Limb> b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    Limb carry = 0;
    const u128 ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      const u128 cur = ai * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> kLimbBits);
    }
    out[i + b.size()] += carry;
  }
}

std::vector<Limb> mul_limbs(std::span<const Limb> a, std::span<const Limb> b);

// Karatsuba split at m limbs: a = a1*B^m + a0, b = b1*B^m + b0.
std::vector<Limb> mul_karatsuba(std::span<const Limb> a, std::span<const Limb> b) {
  const std::size_t m = std::min(a.size(), b.size()) / 2;
  const auto a0 = a.subspan(0, m);
  const auto a1 = a.subspan(m);
  const auto b0 = b.subspan(0, m);
  const auto b1 = b.subspan(m);

  std::vector<Limb> z0 = mul_limbs(a0, b0);
  std::vector<Limb> z2 = mul_limbs(a1, b1);

  std::vector<Limb> sa, sb;
  if (Limb carry = add_into(sa, a0, a1); carry != 0) sa.push_back(carry);
  if (Limb carry = add_into(sb, b0, b1); carry != 0) sb.push_back(carry);
  std::vector<Limb> z1 = mul_limbs(sa, sb);
  // z1 -= z0 + z2
  {
    std::vector<Limb> sum;
    Limb carry = add_into(sum, z0, z2);
    if (carry) sum.push_back(carry);
    std::vector<Limb> diff;
    const Limb borrow = sub_into(diff, z1, sum);
    assert(borrow == 0);
    (void)borrow;
    z1 = std::move(diff);
  }

  std::vector<Limb> out(a.size() + b.size(), 0);
  auto acc = [&](const std::vector<Limb>& part, std::size_t shift) {
    Limb carry = 0;
    std::size_t i = 0;
    for (; i < part.size(); ++i) {
      const Limb before = out[shift + i];
      const Limb s1 = before + part[i];
      const Limb c1 = s1 < before ? 1 : 0;
      const Limb s2 = s1 + carry;
      const Limb c2 = s2 < s1 ? 1 : 0;
      out[shift + i] = s2;
      carry = c1 | c2;
    }
    while (carry != 0 && shift + i < out.size()) {
      const Limb s = out[shift + i] + carry;
      carry = s < carry ? 1 : 0;
      out[shift + i] = s;
      ++i;
    }
  };
  acc(z0, 0);
  acc(z1, m);
  acc(z2, 2 * m);
  return out;
}

std::vector<Limb> mul_limbs(std::span<const Limb> a, std::span<const Limb> b) {
  if (a.empty() || b.empty()) return {};
  if (std::min(a.size(), b.size()) < kKaratsubaThreshold) {
    std::vector<Limb> out(a.size() + b.size(), 0);
    mul_schoolbook(out, a, b);
    return out;
  }
  return mul_karatsuba(a, b);
}

}  // namespace

Bignum::Bignum(Limb v) {
  if (v != 0) limbs_.push_back(v);
}

Bignum Bignum::from_limbs(std::vector<Limb> limbs) {
  Bignum r;
  r.limbs_ = std::move(limbs);
  r.normalize();
  return r;
}

void Bignum::normalize() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

std::optional<Bignum> Bignum::from_decimal(std::string_view s) {
  if (s.empty()) return std::nullopt;
  Bignum r;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    r = r.mul_limb(10).add_limb(static_cast<Limb>(c - '0'));
  }
  return r;
}

std::optional<Bignum> Bignum::from_hex(std::string_view s) {
  if (s.empty()) return std::nullopt;
  Bignum r;
  for (char c : s) {
    Limb v;
    if (c >= '0' && c <= '9') v = static_cast<Limb>(c - '0');
    else if (c >= 'a' && c <= 'f') v = static_cast<Limb>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v = static_cast<Limb>(c - 'A' + 10);
    else return std::nullopt;
    r = (r << 4).add_limb(v);
  }
  return r;
}

Bignum Bignum::from_bytes_be(std::span<const std::byte> bytes) {
  std::vector<Limb> limbs((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // byte i (most significant first) lands at bit offset 8*(n-1-i).
    const std::size_t pos = bytes.size() - 1 - i;
    limbs[pos / 8] |= std::to_integer<Limb>(bytes[i]) << (8 * (pos % 8));
  }
  return from_limbs(std::move(limbs));
}

Bignum Bignum::from_bytes_le(std::span<const std::byte> bytes) {
  std::vector<Limb> limbs((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    limbs[i / 8] |= std::to_integer<Limb>(bytes[i]) << (8 * (i % 8));
  }
  return from_limbs(std::move(limbs));
}

Bignum Bignum::from_limbs_le(std::span<const Limb> limbs) {
  return from_limbs(std::vector<Limb>(limbs.begin(), limbs.end()));
}

std::size_t Bignum::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * kLimbBits +
         (kLimbBits - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool Bignum::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return ((limbs_[limb] >> (i % kLimbBits)) & 1) != 0;
}

std::strong_ordering operator<=>(const Bignum& a, const Bignum& b) noexcept {
  const int c = cmp_limbs(a.limbs_, b.limbs_);
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

Bignum operator+(const Bignum& a, const Bignum& b) {
  std::vector<Limb> out;
  const Limb carry = add_into(out, a.limbs_, b.limbs_);
  if (carry) out.push_back(carry);
  return Bignum::from_limbs(std::move(out));
}

Bignum operator-(const Bignum& a, const Bignum& b) {
  assert(a >= b && "unsigned subtraction underflow");
  if (a < b) return Bignum{};  // release-mode clamp
  std::vector<Limb> out;
  sub_into(out, a.limbs_, b.limbs_);
  return Bignum::from_limbs(std::move(out));
}

Bignum operator*(const Bignum& a, const Bignum& b) {
  return Bignum::from_limbs(mul_limbs(a.limbs_, b.limbs_));
}

DivMod Bignum::divmod(const Bignum& a, const Bignum& b) {
  assert(!b.is_zero() && "division by zero");
  if (b.is_zero()) return {};
  if (a < b) return {Bignum{}, a};

  // Fast path: single-limb divisor.
  if (b.limbs_.size() == 1) {
    const Limb d = b.limbs_[0];
    std::vector<Limb> q(a.limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      const u128 cur = (rem << kLimbBits) | a.limbs_[i];
      q[i] = static_cast<Limb>(cur / d);
      rem = cur % d;
    }
    return {from_limbs(std::move(q)), Bignum(static_cast<Limb>(rem))};
  }

  // Knuth Algorithm D (TAOCP vol. 2, 4.3.1).
  const std::size_t n = b.limbs_.size();
  const std::size_t m = a.limbs_.size() - n;
  const int shift = std::countl_zero(b.limbs_.back());

  // Normalize: v = b << shift so the top limb of v has its high bit set;
  // u = a << shift with one extra high limb.
  std::vector<Limb> v(n);
  for (std::size_t i = n; i-- > 0;) {
    v[i] = b.limbs_[i] << shift;
    if (shift != 0 && i > 0) v[i] |= b.limbs_[i - 1] >> (kLimbBits - shift);
  }
  std::vector<Limb> u(a.limbs_.size() + 1, 0);
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    u[i] = a.limbs_[i] << shift;
    if (shift != 0 && i > 0) u[i] |= a.limbs_[i - 1] >> (kLimbBits - shift);
  }
  if (shift != 0) u[a.limbs_.size()] = a.limbs_.back() >> (kLimbBits - shift);

  std::vector<Limb> q(m + 1, 0);
  const Limb vn1 = v[n - 1];
  const Limb vn2 = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat from the top two limbs of the current window.
    const u128 num = (static_cast<u128>(u[j + n]) << kLimbBits) | u[j + n - 1];
    u128 qhat = num / vn1;
    u128 rhat = num % vn1;
    while (qhat >= (u128{1} << kLimbBits) ||
           qhat * vn2 > ((rhat << kLimbBits) | u[j + n - 2])) {
      --qhat;
      rhat += vn1;
      if (rhat >= (u128{1} << kLimbBits)) break;
    }

    // u[j..j+n] -= qhat * v
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 p = qhat * v[i] + carry;
      carry = p >> kLimbBits;
      const Limb plo = static_cast<Limb>(p);
      const Limb before = u[j + i];
      const Limb d1 = before - plo;
      const Limb br1 = before < plo ? 1 : 0;
      const Limb bl = static_cast<Limb>(borrow);
      const Limb d2 = d1 - bl;
      const Limb br2 = d1 < bl ? 1 : 0;
      u[j + i] = d2;
      borrow = br1 + br2;
    }
    {
      const u128 top = static_cast<u128>(u[j + n]);
      const u128 sub = carry + borrow;
      if (top < sub) {
        // qhat was one too large: add v back and decrement qhat.
        u[j + n] = static_cast<Limb>(top - sub);
        --qhat;
        Limb c = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const Limb s1 = u[j + i] + v[i];
          const Limb c1 = s1 < u[j + i] ? 1 : 0;
          const Limb s2 = s1 + c;
          const Limb c2 = s2 < s1 ? 1 : 0;
          u[j + i] = s2;
          c = c1 | c2;
        }
        u[j + n] += c;
      } else {
        u[j + n] = static_cast<Limb>(top - sub);
      }
    }
    q[j] = static_cast<Limb>(qhat);
  }

  // Denormalize the remainder: r = u[0..n) >> shift.
  std::vector<Limb> r(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = u[i] >> shift;
    if (shift != 0 && i + 1 < u.size()) {
      r[i] |= u[i + 1] << (kLimbBits - shift);
    }
  }
  return {from_limbs(std::move(q)), from_limbs(std::move(r))};
}

Bignum operator/(const Bignum& a, const Bignum& b) { return Bignum::divmod(a, b).quotient; }
Bignum operator%(const Bignum& a, const Bignum& b) { return Bignum::divmod(a, b).remainder; }

Bignum operator<<(const Bignum& a, std::size_t bits) {
  if (a.is_zero() || bits == 0) {
    if (bits == 0) return a;
    return Bignum{};
  }
  const std::size_t limb_shift = bits / kLimbBits;
  const std::size_t bit_shift = bits % kLimbBits;
  std::vector<Limb> out(a.limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    out[i + limb_shift] |= bit_shift == 0 ? a.limbs_[i] : (a.limbs_[i] << bit_shift);
    if (bit_shift != 0) {
      out[i + limb_shift + 1] |= a.limbs_[i] >> (kLimbBits - bit_shift);
    }
  }
  return Bignum::from_limbs(std::move(out));
}

Bignum operator>>(const Bignum& a, std::size_t bits) {
  if (bits == 0) return a;
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= a.limbs_.size()) return Bignum{};
  const std::size_t bit_shift = bits % kLimbBits;
  std::vector<Limb> out(a.limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      out[i] |= a.limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
  }
  return Bignum::from_limbs(std::move(out));
}

Bignum Bignum::add_limb(Limb v) const { return *this + Bignum(v); }

Bignum Bignum::mul_limb(Limb v) const {
  if (v == 0 || is_zero()) return Bignum{};
  std::vector<Limb> out(limbs_.size() + 1, 0);
  Limb carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u128 cur = static_cast<u128>(limbs_[i]) * v + carry;
    out[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> kLimbBits);
  }
  out[limbs_.size()] = carry;
  return from_limbs(std::move(out));
}

Limb Bignum::mod_limb(Limb divisor) const {
  assert(divisor != 0);
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << kLimbBits) | limbs_[i]) % divisor;
  }
  return static_cast<Limb>(rem);
}

Bignum Bignum::gcd(Bignum a, Bignum b) {
  // Euclid with divmod; operand sizes here (<= 2048 bits) make this fine.
  while (!b.is_zero()) {
    Bignum r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::optional<Bignum> Bignum::mod_inverse(const Bignum& a, const Bignum& m) {
  if (m.is_zero() || m.is_one()) return std::nullopt;
  // Extended Euclid with coefficients tracked as (magnitude, sign).
  Bignum r0 = m, r1 = a % m;
  Bignum t0{}, t1{Limb{1}};
  bool neg0 = false, neg1 = false;
  while (!r1.is_zero()) {
    const auto [q, r2] = divmod(r0, r1);
    // t2 = t0 - q * t1  (signed)
    const Bignum qt1 = q * t1;
    Bignum t2;
    bool neg2;
    if (neg0 == neg1) {
      // Same sign: magnitude is |t0| - q|t1| or q|t1| - |t0|.
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        neg2 = neg0;
      } else {
        t2 = qt1 - t0;
        neg2 = !neg0;
      }
    } else {
      t2 = t0 + qt1;
      neg2 = neg0;
    }
    r0 = std::move(r1);
    r1 = r2;
    t0 = std::move(t1);
    neg0 = neg1;
    t1 = std::move(t2);
    neg1 = neg2;
  }
  if (!r0.is_one()) return std::nullopt;  // not coprime
  if (neg0) return m - (t0 % m);
  return t0 % m;
}

Bignum Bignum::mod_exp(const Bignum& a, const Bignum& e, const Bignum& m) {
  assert(m > Bignum(Limb{1}));
  if (m.is_odd()) return mont_mod_exp(a, e, m, Exponent::kSecret);
  // Even modulus: plain left-to-right square and multiply.
  Bignum base = a % m;
  Bignum result{Limb{1}};
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = (result * result) % m;
    if (e.bit(i)) result = (result * base) % m;
  }
  return result;
}

Bignum Bignum::mod_exp_public(const Bignum& a, const Bignum& e, const Bignum& m) {
  if (m.is_odd() && m > Bignum(Limb{1})) return mont_mod_exp(a, e, m, Exponent::kPublic);
  return mod_exp(a, e, m);
}

std::vector<std::byte> Bignum::to_bytes_be(std::size_t min_len) const {
  std::vector<std::byte> le = to_bytes_le();
  std::vector<std::byte> out(std::max(le.size(), min_len), std::byte{0});
  for (std::size_t i = 0; i < le.size(); ++i) {
    out[out.size() - 1 - i] = le[i];
  }
  return out;
}

std::vector<std::byte> Bignum::to_bytes_le() const {
  std::vector<std::byte> out;
  out.reserve(limbs_.size() * 8);
  for (const Limb limb : limbs_) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::byte>(limb >> (8 * b)));
  }
  while (!out.empty() && out.back() == std::byte{0}) out.pop_back();
  return out;
}

std::string Bignum::to_decimal() const {
  if (is_zero()) return "0";
  // Peel 19 decimal digits at a time (largest power of ten in a limb).
  constexpr Limb kChunk = 10'000'000'000'000'000'000ULL;
  std::string out;
  Bignum cur = *this;
  const Bignum chunk(kChunk);
  while (!cur.is_zero()) {
    const auto [q, r] = divmod(cur, chunk);
    Limb digits = r.low_limb();
    const bool last = q.is_zero();
    for (int i = 0; i < 19 && (digits != 0 || !last); ++i) {
      out.push_back(static_cast<char>('0' + digits % 10));
      digits /= 10;
    }
    cur = q;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void Bignum::scrub() noexcept {
  mont::wipe(limbs_);
  limbs_.clear();
  limbs_.shrink_to_fit();
}

std::string Bignum::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      const unsigned v = static_cast<unsigned>((limbs_[i] >> (nib * 4)) & 0xF);
      if (leading && v == 0) continue;
      leading = false;
      out.push_back(kDigits[v]);
    }
  }
  return out;
}

}  // namespace keyguard::bn
