// Owning copies of a SecureRsaKey's image: one made through the key
// (`key.image()`), one inside a member through the bare accessor. Neither
// is scrubbed, and `d` is only an operand of what is returned.
#include "core/secure_rsa.hpp"

namespace keyguard::secure {

bn::Bignum blinded_exponent(const SecureRsaKey& key, const bn::Bignum& r) {
  const auto d = bn::Bignum::from_limbs_le(key.image());  // expect: KL101
  return d + r;
}

std::uint64_t SecureRsaKey::image_checksum() const {
  std::vector<bn::Limb> copy(image().begin(), image().end());  // expect: KL101
  return checksum(copy);
}

}  // namespace keyguard::secure
