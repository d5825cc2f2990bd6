// Twin of known_bad/kl101_locked_copy.cpp: the same owning copies of the
// locked key image, each scrubbed on every path out (the early refusal
// included), and the result returned whole. The two members below it hand
// their copy on instead: returned whole, or moved into the caller's list.
#include "bignum/bignum.hpp"
#include "core/secure_buffer.hpp"

namespace keyguard::secure {

using bn::Bignum;

class SecureRsaKey {
 public:
  Bignum decrypt(const Bignum& c) const;
  std::vector<std::byte> export_image() const;
  void stage(std::vector<std::vector<std::byte>>& staged) const;

 private:
  struct Layout {
    std::size_t n, e, d, p, q, dmp1, dmq1, iqmp;
    std::size_t n_len, e_len, d_len, p_len, q_len, dmp1_len, dmq1_len, iqmp_len;
  };
  SecureBuffer buf_;
  Layout layout_;
};

Bignum SecureRsaKey::decrypt(const Bignum& c) const {
  Bignum p = Bignum::from_bytes_le(buf_.data().subspan(layout_.p, layout_.p_len));
  Bignum q = Bignum::from_bytes_le(buf_.data().subspan(layout_.q, layout_.q_len));
  if (c.is_zero()) {
    p.scrub();
    q.scrub();
    return Bignum{};
  }
  Bignum dmp1 =
      Bignum::from_bytes_le(buf_.data().subspan(layout_.dmp1, layout_.dmp1_len));
  const Bignum m1 = Bignum::mod_exp(c % p, dmp1, p);
  dmp1.scrub();
  Bignum dmq1 =
      Bignum::from_bytes_le(buf_.data().subspan(layout_.dmq1, layout_.dmq1_len));
  const Bignum m2 = Bignum::mod_exp(c % q, dmq1, q);
  dmq1.scrub();

  Bignum diff;
  if (m1 >= m2) {
    diff = m1 - m2;
  } else {
    diff = p - ((m2 - m1) % p);
    if (diff == p) diff = Bignum{};
  }
  Bignum iqmp =
      Bignum::from_bytes_le(buf_.data().subspan(layout_.iqmp, layout_.iqmp_len));
  const Bignum h = (iqmp * diff) % p;
  iqmp.scrub();
  p.scrub();
  Bignum m = m2 + h * q;
  q.scrub();
  return m;
}

std::vector<std::byte> SecureRsaKey::export_image() const {
  std::vector<std::byte> out(buf_.data().begin(), buf_.data().end());
  return out;
}

void SecureRsaKey::stage(std::vector<std::vector<std::byte>>& staged) const {
  std::vector<std::byte> copy(buf_.data().begin(), buf_.data().end());
  staged.push_back(std::move(copy));
}

}  // namespace keyguard::secure
