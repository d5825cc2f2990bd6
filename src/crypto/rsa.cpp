#include "crypto/rsa.hpp"

#include <cassert>

#include "bignum/prime.hpp"
#include "crypto/sha256.hpp"

namespace keyguard::crypto {

using bn::Bignum;
using bn::Limb;

Bignum RsaPublicKey::encrypt_raw(const Bignum& m) const {
  assert(m < n);
  return Bignum::mod_exp_public(m, e, n);
}

Bignum RsaPrivateKey::decrypt_crt(const Bignum& c) const {
  // Garner's recombination:
  //   m1 = c^dmp1 mod p,  m2 = c^dmq1 mod q
  //   h  = iqmp * (m1 - m2) mod p
  //   m  = m2 + h * q
  const Bignum m1 = Bignum::mod_exp(c % p, dmp1, p);
  const Bignum m2 = Bignum::mod_exp(c % q, dmq1, q);
  Bignum diff;
  if (m1 >= m2) {
    diff = m1 - m2;
  } else {
    // (m1 - m2) mod p without signed arithmetic.
    diff = p - ((m2 - m1) % p);
    if (diff == p) diff = Bignum{};
  }
  const Bignum h = (iqmp * diff) % p;
  return m2 + h * q;
}

Bignum RsaPrivateKey::decrypt_plain(const Bignum& c) const {
  return Bignum::mod_exp(c, d, n);
}

bool RsaPrivateKey::validate() const {
  const Bignum one(Limb{1});
  if (p.is_zero() || q.is_zero() || n != p * q) return false;
  const Bignum p1 = p - one;
  const Bignum q1 = q - one;
  if (dmp1 != d % p1 || dmq1 != d % q1) return false;
  const auto inv = Bignum::mod_inverse(q, p);
  if (!inv || *inv != iqmp) return false;
  // e*d == 1 mod lcm(p-1, q-1)
  const Bignum g = Bignum::gcd(p1, q1);
  const Bignum lcm = (p1 / g) * q1;
  return (e * d) % lcm == one;
}

void RsaPrivateKey::scrub_private_parts() noexcept {
  d.scrub();
  p.scrub();
  q.scrub();
  dmp1.scrub();
  dmq1.scrub();
  iqmp.scrub();
}

RsaPrivateKey generate_rsa_key(util::Rng& rng, std::size_t n_bits, std::uint64_t e_val) {
  assert(n_bits >= 128 && n_bits % 2 == 0);
  const Bignum one(Limb{1});
  RsaPrivateKey key;
  key.e = Bignum(e_val);
  for (;;) {
    key.p = bn::random_prime(rng, n_bits / 2, key.e);
    do {
      key.q = bn::random_prime(rng, n_bits / 2, key.e);
    } while (key.q == key.p);
    // Keep the conventional p > q so iqmp = q^{-1} mod p is the standard
    // PKCS#1 coefficient.
    if (key.p < key.q) std::swap(key.p, key.q);
    key.n = key.p * key.q;
    if (key.n.bit_length() != n_bits) continue;

    const Bignum p1 = key.p - one;
    const Bignum q1 = key.q - one;
    const Bignum g = Bignum::gcd(p1, q1);
    const Bignum lcm = (p1 / g) * q1;
    const auto d = Bignum::mod_inverse(key.e, lcm);
    if (!d || d->bit_length() < n_bits / 2) continue;  // tiny d: regenerate
    key.d = *d;
    key.dmp1 = key.d % p1;
    key.dmq1 = key.d % q1;
    key.iqmp = *Bignum::mod_inverse(key.q, key.p);
    return key;
  }
}

std::optional<Bignum> pad_encrypt(util::Rng& rng, const RsaPublicKey& pub,
                                  std::span<const std::byte> message) {
  const std::size_t k = pub.modulus_bytes();
  if (message.size() + 11 > k) return std::nullopt;
  std::vector<std::byte> block(k);
  block[0] = std::byte{0x00};
  block[1] = std::byte{0x02};
  const std::size_t ps_len = k - 3 - message.size();
  for (std::size_t i = 0; i < ps_len; ++i) {
    // Padding bytes must be nonzero.
    std::byte b;
    do {
      b = static_cast<std::byte>(rng.next_u64() & 0xFF);
    } while (b == std::byte{0});
    block[2 + i] = b;
  }
  block[2 + ps_len] = std::byte{0x00};
  std::copy(message.begin(), message.end(), block.begin() + 3 + ps_len);
  return pub.encrypt_raw(Bignum::from_bytes_be(block));
}

std::optional<std::vector<std::byte>> unpad_decrypt(const RsaPrivateKey& priv,
                                                    const Bignum& ciphertext) {
  const Bignum m = priv.decrypt_crt(ciphertext);
  const std::size_t k = priv.public_key().modulus_bytes();
  const std::vector<std::byte> block = m.to_bytes_be(k);
  if (block.size() != k || block[0] != std::byte{0x00} || block[1] != std::byte{0x02}) {
    return std::nullopt;
  }
  std::size_t sep = 2;
  while (sep < block.size() && block[sep] != std::byte{0}) ++sep;
  if (sep < 10 || sep == block.size()) return std::nullopt;  // PS must be >= 8
  return std::vector<std::byte>(block.begin() + static_cast<std::ptrdiff_t>(sep) + 1,
                                block.end());
}

std::string key_fingerprint(const RsaPublicKey& pub) {
  const auto bytes = pub.n.to_bytes_be();
  return digest_hex(Sha256::hash(bytes)).substr(0, 16);
}

}  // namespace keyguard::crypto
