#include "core/secure_rsa.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

#include "bignum/montgomery.hpp"
#include "core/secure_zero.hpp"
#include "crypto/pem.hpp"

namespace keyguard::secure {

using bn::Bignum;
using bn::Limb;
namespace mont = bn::mont;

namespace {

std::span<Limb> as_limbs(SecureBuffer& buf) noexcept {
  return {reinterpret_cast<Limb*>(buf.data().data()), buf.size() / sizeof(Limb)};
}

SecureBuffer& thread_arena_buffer() {
  thread_local SecureBuffer buf(0);
  return buf;
}

// The integers a key supplies, in DER order after the version; the first
// seven are also the header's.
enum Input : std::size_t { kN, kE, kD, kP, kQ, kDmp1, kDmq1, kIqmp, kInputs };
// Image parts: the seven stored inputs, then what the builder derives.
enum Part : std::size_t { kIqmpModP = kInputs - 1, kRrP, kRrQ, kN0, kParts };
static_assert(kIqmp == rsa_slot::kHeaderLimbs);
// Significant limb widths of the inputs; the header holds all but qInv's.
using Widths = std::array<std::size_t, kInputs>;

// Where each part sits, from the header's seven widths.
struct Layout {
  std::array<std::size_t, kParts> offset{};
  std::array<std::size_t, kParts> limbs{};
  std::size_t total = 0;

  explicit Layout(const Widths& w) {
    const std::size_t lp = w[kP], lq = w[kQ];
    const std::array<std::size_t, kParts> widths = {
        w[kN], w[kE], w[kD], lp, lq, std::max(lp, w[kDmp1]), std::max(lq, w[kDmq1]),
        lp,    lp,    lq,    2};
    total = rsa_slot::kHeaderLimbs;
    for (std::size_t i = 0; i < kParts; ++i) {
      offset[i] = total;
      limbs[i] = widths[i];
      total += widths[i];
    }
  }

  template <class T>
  std::span<T> part(std::span<T> image, std::size_t p) const noexcept {
    return image.subspan(offset[p], limbs[p]);
  }
};

Layout layout_of(std::span<const Limb> image) noexcept {
  Widths w{};
  std::copy_n(image.begin(), rsa_slot::kHeaderLimbs, w.begin());
  return Layout(w);
}

// Scratch the builder takes: qInv as given, the reduced value, and the
// kernel's. Every width is at most `l` limbs.
std::size_t build_scratch_limbs(std::size_t iqmp_limbs, std::size_t l) noexcept {
  return iqmp_limbs + l + mont::scratch_limbs(l);
}

// Writes an image for inputs of significant widths `w` into `out`;
// fill(input, dst) writes that input zero-padded into dst. 0 when the
// image does not fit or p or q has no Montgomery form.
template <class Fill>
std::size_t build(std::span<Limb> out, const Widths& w, std::span<Limb> scratch,
                  Fill&& fill) noexcept {
  const Layout lay(w);
  const std::size_t lp = w[kP], lq = w[kQ];
  if (lay.total > out.size() || lp == 0 || lq == 0 ||
      scratch.size() < build_scratch_limbs(w[kIqmp], std::max(lp, lq))) {
    return 0;
  }
  const auto image = out.first(lay.total);
  std::ranges::fill(image, Limb{0});
  std::copy_n(w.begin(), rsa_slot::kHeaderLimbs, image.begin());
  for (std::size_t i = 0; i < rsa_slot::kHeaderLimbs; ++i) fill(i, lay.part(image, i));

  // Primes without a Montgomery form (even, or 1) are refused before the
  // kernel runs over them. Widths are significant, so neither is 0.
  const auto p = lay.part(image, kP);
  const auto q = lay.part(image, kQ);
  const auto usable = [](std::span<const Limb> v) {
    return (v[0] & 1) != 0 && !(v.size() == 1 && v[0] == 1);
  };
  if (!usable(p) || !usable(q)) {
    secure_zero(image.data(), image.size_bytes());
    return 0;
  }
  const auto n0 = lay.part(image, kN0);
  n0[0] = mont::neg_inv(p[0]);
  n0[1] = mont::neg_inv(q[0]);
  const auto rrp = lay.part(image, kRrP);
  const auto iqmp = scratch.first(w[kIqmp]);
  const auto tmp = scratch.subspan(w[kIqmp], lp);
  const auto k = scratch.subspan(w[kIqmp] + std::max(lp, lq));
  mont::compute_rr(rrp, p, n0[0], k);
  mont::compute_rr(lay.part(image, kRrQ), q, n0[1], k);
  // qInv reduced mod p (a no-op for a valid key) so it fits p's width.
  fill(kIqmp, iqmp);
  const mont::Modulus mp{p, rrp, n0[0]};
  mont::to_mont(tmp, iqmp, mp, k);
  mont::from_mont(lay.part(image, kIqmpModP), tmp, mp, k);
  // fill and the copies above move limbs through vector registers.
  clear_vector_registers();
  return lay.total;
}

Widths key_widths(const crypto::RsaPrivateKey& key) noexcept {
  return {key.n.limb_count(), key.e.limb_count(),    key.d.limb_count(),
          key.p.limb_count(), key.q.limb_count(),    key.dmp1.limb_count(),
          key.dmq1.limb_count(), key.iqmp.limb_count()};
}

// out += a * b, schoolbook. out holds a.size() + b.size() limbs and an
// addend in its low b.size() limbs (the rest zero).
void mul_add(std::span<Limb> out, std::span<const Limb> a, std::span<const Limb> b) noexcept {
  using u128 = unsigned __int128;
  for (std::size_t i = 0; i < a.size(); ++i) {
    Limb carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    out[i + b.size()] = carry;
  }
}

}  // namespace

ArenaLease::ArenaLease(std::size_t limbs) {
  SecureBuffer& buf = thread_arena_buffer();
  if (buf.size() < limbs * sizeof(Limb)) buf = SecureBuffer(limbs * sizeof(Limb));
  limbs_ = as_limbs(buf).first(limbs);
}

ArenaLease::~ArenaLease() { secure_zero(limbs_.data(), limbs_.size_bytes()); }

std::span<Limb> ArenaLease::take(std::size_t n) {
  const auto s = limbs_.subspan(used_, n);
  used_ += n;
  return s;
}

std::span<Limb> ArenaLease::rest() { return limbs_.subspan(used_); }

namespace rsa_slot {

std::size_t image_limbs(const crypto::RsaPrivateKey& key) noexcept {
  return Layout(key_widths(key)).total;
}

std::size_t der_scratch_limbs(std::size_t der_bytes) noexcept {
  // No INTEGER of the body is wider than the body.
  const std::size_t l = (der_bytes + sizeof(Limb) - 1) / sizeof(Limb);
  return build_scratch_limbs(l, l);
}

std::size_t from_key(std::span<Limb> out, const crypto::RsaPrivateKey& key,
                     std::span<Limb> scratch) noexcept {
  const Bignum* const in[kInputs] = {&key.n, &key.e,    &key.d,    &key.p,
                                     &key.q, &key.dmp1, &key.dmq1, &key.iqmp};
  return build(out, key_widths(key), scratch, [&](std::size_t i, std::span<Limb> dst) {
    std::ranges::copy(in[i]->limbs(), dst.begin());  // dst arrives zeroed
  });
}

std::size_t from_der(std::span<Limb> out, std::span<const std::byte> der,
                     std::span<Limb> scratch) noexcept {
  const auto fields = crypto::der_private_key_integers(der);
  if (!fields) return 0;
  Widths w{};
  for (std::size_t i = 0; i < kInputs; ++i) {
    w[i] = crypto::der_integer_limbs((*fields)[i + 1]);
  }
  return build(out, w, scratch, [&](std::size_t i, std::span<Limb> dst) {
    crypto::der_integer_to_limbs((*fields)[i + 1], dst);
  });
}

std::size_t limbs_of(std::span<const Limb> image) noexcept {
  return layout_of(image).total;
}

crypto::RsaPublicKey public_key(std::span<const Limb> image) {
  const Layout lay = layout_of(image);
  return {Bignum::from_limbs_le(lay.part(image, kN)),
          Bignum::from_limbs_le(lay.part(image, kE))};
}

Bignum decrypt(std::span<const Limb> image, const Bignum& c) {
  // Garner's recombination, as RsaPrivateKey::decrypt_crt:
  //   m1 = c^dP mod p, m2 = c^dQ mod q, h = qInv (m1 - m2) mod p,
  //   m = m2 + h q.
  const Layout lay = layout_of(image);
  const auto p = lay.part(image, kP);
  const auto q = lay.part(image, kQ);
  const auto n0 = lay.part(image, kN0);
  const mont::Modulus mp{p, lay.part(image, kRrP), n0[0]};
  const mont::Modulus mq{q, lay.part(image, kRrQ), n0[1]};
  const std::size_t lp = p.size();
  const std::size_t lq = q.size();

  ArenaLease arena(4 * lp + 2 * lq + mont::exp2_scratch_limbs(std::max(lp, lq)));
  const auto m1 = arena.take(lp);
  const auto m2 = arena.take(lq);
  const auto x = arena.take(lp);
  const auto y = arena.take(lp);
  const auto m = arena.take(lp + lq);
  const auto k = arena.rest();

  // Both halves at once over every bit of the padded dP, dQ slots: the
  // window count is the width.
  mont::exp2(m1, m2, c.limbs(), lay.part(image, kDmp1), lay.part(image, kDmq1), mp, mq,
             k);
  mont::to_mont(x, m2, mp, k);            // m2 R mod p (q may exceed p)
  mont::to_mont(y, m1, mp, k);            // m1 R mod p
  mont::sub_mod(x, y, x, p);              // (m1 - m2) R mod p
  mont::mul(m1, x, lay.part(image, kIqmpModP), mp, k);  // h
  std::ranges::fill(m, Limb{0});
  std::ranges::copy(m2, m.begin());
  mul_add(m, m1, q);
  return Bignum::from_limbs_le(m);
}

}  // namespace rsa_slot

SecureRsaKey SecureRsaKey::from_key(const crypto::RsaPrivateKey& key) {
  SecureRsaKey out;
  out.buf_ = SecureBuffer(rsa_slot::image_limbs(key) * sizeof(Limb));
  ArenaLease arena(build_scratch_limbs(key.iqmp.limb_count(),
                                       std::max(key.p.limb_count(), key.q.limb_count())));
  // Primes without a Montgomery form are a caller bug; stop in every
  // build rather than run the kernel over an empty modulus.
  if (rsa_slot::from_key(as_limbs(out.buf_), key, arena.rest()) == 0) std::abort();
  return out;
}

SecureRsaKey SecureRsaKey::from_key_scrubbing(crypto::RsaPrivateKey& key) {
  SecureRsaKey out = from_key(key);
  // Destroy the caller's plain copies of everything secret.
  key.scrub_private_parts();
  return out;
}

std::span<const Limb> SecureRsaKey::image() const noexcept {
  return {reinterpret_cast<const Limb*>(buf_.data().data()), buf_.size() / sizeof(Limb)};
}

std::span<const std::byte> SecureRsaKey::thread_arena() noexcept {
  return thread_arena_buffer().data();
}

}  // namespace keyguard::secure
