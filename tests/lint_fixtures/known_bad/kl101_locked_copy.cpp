// SecureRsaKey::decrypt as it stood before the slot-image rewrite, with
// the private read() helper inlined (keylint2 is intraprocedural). Each
// CRT part is copied out of the mlocked SecureBuffer into a heap-backed
// bn::Bignum and never scrubbed: the limbs go back to the allocator when
// the locals die. `q` is only an operand of the returned expression; the
// caller gets a new value, not q. The class excerpt is the header's, so
// this file declares buf_ as locked memory.
#include "bignum/bignum.hpp"
#include "core/secure_buffer.hpp"

namespace keyguard::secure {

using bn::Bignum;

class SecureRsaKey {
 public:
  Bignum decrypt(const Bignum& c) const;

 private:
  struct Layout {
    std::size_t n, e, d, p, q, dmp1, dmq1, iqmp;
    std::size_t n_len, e_len, d_len, p_len, q_len, dmp1_len, dmq1_len, iqmp_len;
  };
  SecureBuffer buf_;
  Layout layout_;
};

Bignum SecureRsaKey::decrypt(const Bignum& c) const {
  const Bignum p =  // expect: KL101
      Bignum::from_bytes_le(buf_.data().subspan(layout_.p, layout_.p_len));
  const Bignum q =  // expect: KL101
      Bignum::from_bytes_le(buf_.data().subspan(layout_.q, layout_.q_len));
  const Bignum dmp1 =  // expect: KL101
      Bignum::from_bytes_le(buf_.data().subspan(layout_.dmp1, layout_.dmp1_len));
  const Bignum dmq1 =  // expect: KL101
      Bignum::from_bytes_le(buf_.data().subspan(layout_.dmq1, layout_.dmq1_len));
  const Bignum iqmp =  // expect: KL101
      Bignum::from_bytes_le(buf_.data().subspan(layout_.iqmp, layout_.iqmp_len));

  const Bignum m1 = Bignum::mod_exp(c % p, dmp1, p);
  const Bignum m2 = Bignum::mod_exp(c % q, dmq1, q);
  Bignum diff;
  if (m1 >= m2) {
    diff = m1 - m2;
  } else {
    diff = p - ((m2 - m1) % p);
    if (diff == p) diff = Bignum{};
  }
  const Bignum h = (iqmp * diff) % p;
  return m2 + h * q;
}

}  // namespace keyguard::secure
