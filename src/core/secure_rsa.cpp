#include "core/secure_rsa.hpp"

#include <algorithm>
#include <cstdlib>

#include "bignum/montgomery.hpp"
#include "core/secure_zero.hpp"

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

// The calling thread's arena, grown to `limbs` and carved front to back;
// everything carved is wiped when the lease ends.
class ArenaLease {
 public:
  explicit ArenaLease(std::size_t limbs) {
    SecureBuffer& buf = thread_arena_buffer();
    if (buf.size() < limbs * sizeof(Limb)) buf = SecureBuffer(limbs * sizeof(Limb));
    limbs_ = as_limbs(buf).first(limbs);
  }
  ~ArenaLease() { secure_zero(limbs_.data(), limbs_.size_bytes()); }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  std::span<Limb> take(std::size_t n) {
    const auto s = limbs_.subspan(used_, n);
    used_ += n;
    return s;
  }
  std::span<Limb> rest() { return limbs_.subspan(used_); }

 private:
  std::span<Limb> limbs_;
  std::size_t used_ = 0;
};

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

SecureRsaKey SecureRsaKey::from_key(const crypto::RsaPrivateKey& key) {
  // Primes without a Montgomery form (even, 0 or 1) are a caller bug; stop
  // in every build rather than run the kernel over an empty modulus.
  const auto usable = [](const Bignum& v) { return v.is_odd() && !v.is_one(); };
  if (!usable(key.p) || !usable(key.q)) std::abort();
  const std::size_t lp = key.p.limb_count();
  const std::size_t lq = key.q.limb_count();
  const std::array<std::size_t, kParts> widths = {
      key.n.limb_count(), key.e.limb_count(), key.d.limb_count(),
      lp,                 lq,                 std::max(lp, key.dmp1.limb_count()),
      std::max(lq, key.dmq1.limb_count()),    lp,
      lp,                 lq,                 2};

  SecureRsaKey out;
  std::size_t total = 0;
  for (std::size_t i = 0; i < kParts; ++i) {
    out.slots_[i] = {total, widths[i]};
    total += widths[i];
  }
  out.buf_ = SecureBuffer(total * sizeof(Limb));
  const auto limbs = as_limbs(out.buf_);
  const auto slot = [&](Part p) {
    return limbs.subspan(out.slots_[p].offset, out.slots_[p].limbs);
  };
  // The buffer starts zeroed, so each copy is zero-padded to its width.
  const std::pair<Part, const Bignum*> copied[] = {
      {kN, &key.n}, {kE, &key.e},       {kD, &key.d},       {kP, &key.p},
      {kQ, &key.q}, {kDmp1, &key.dmp1}, {kDmq1, &key.dmq1}};
  for (const auto& [p, v] : copied) std::ranges::copy(v->limbs(), slot(p).begin());

  const auto n0 = slot(kN0);
  n0[0] = mont::neg_inv(key.p.low_limb());
  n0[1] = mont::neg_inv(key.q.low_limb());
  ArenaLease arena(lp + mont::scratch_limbs(std::max(lp, lq)));
  const auto tmp = arena.take(lp);
  const auto k = arena.rest();
  mont::compute_rr(slot(kRrP), slot(kP), n0[0], k);
  mont::compute_rr(slot(kRrQ), slot(kQ), n0[1], k);
  // qInv reduced mod p (a no-op for a valid key) so it fits p's width.
  const mont::Modulus mp{slot(kP), slot(kRrP), n0[0]};
  mont::to_mont(tmp, key.iqmp.limbs(), mp, k);
  mont::from_mont(slot(kIqmp), tmp, mp, k);
  return out;
}

SecureRsaKey SecureRsaKey::from_key_scrubbing(crypto::RsaPrivateKey& key) {
  SecureRsaKey out = from_key(key);
  // Destroy the caller's plain copies of everything secret.
  key.scrub_private_parts();
  return out;
}

std::span<const Limb> SecureRsaKey::part(Part p) const noexcept {
  const auto* base = reinterpret_cast<const Limb*>(buf_.data().data());
  return {base + slots_[p].offset, slots_[p].limbs};
}

crypto::RsaPublicKey SecureRsaKey::public_key() const {
  return {Bignum::from_limbs_le(part(kN)), Bignum::from_limbs_le(part(kE))};
}

std::span<const std::byte> SecureRsaKey::thread_arena() noexcept {
  return thread_arena_buffer().data();
}

Bignum SecureRsaKey::decrypt(const Bignum& c) const {
  // Garner's recombination, as RsaPrivateKey::decrypt_crt:
  //   m1 = c^dP mod p, m2 = c^dQ mod q, h = qInv (m1 - m2) mod p,
  //   m = m2 + h q.
  const auto p = part(kP);
  const auto q = part(kQ);
  const auto n0 = part(kN0);
  const mont::Modulus mp{p, part(kRrP), n0[0]};
  const mont::Modulus mq{q, part(kRrQ), n0[1]};
  const std::size_t lp = p.size();
  const std::size_t lq = q.size();

  ArenaLease arena(3 * lp + 2 * lq + mont::scratch_limbs(std::max(lp, lq)));
  const auto m1 = arena.take(lp);
  const auto m2 = arena.take(lq);
  const auto x = arena.take(lp);
  const auto m = arena.take(lp + lq);
  const auto k = arena.rest();

  // Every bit of the padded dP, dQ slots: the window count is the width.
  const auto dp = part(kDmp1);
  const auto dq = part(kDmq1);
  mont::to_mont(m1, c.limbs(), mp, k);
  mont::exp(m1, m1, dp, 64 * dp.size(), mp, k);  // m1 R mod p
  mont::to_mont(m2, c.limbs(), mq, k);
  mont::exp(m2, m2, dq, 64 * dq.size(), mq, k);
  mont::from_mont(m2, m2, mq, k);
  mont::to_mont(x, m2, mp, k);            // m2 R mod p
  mont::sub_mod(x, m1, x, p);             // (m1 - m2) R mod p
  mont::mul(m1, x, part(kIqmp), mp, k);   // h
  std::ranges::fill(m, Limb{0});
  std::ranges::copy(m2, m.begin());
  mul_add(m, m1, q);
  return Bignum::from_limbs_le(m);
}

}  // namespace keyguard::secure
