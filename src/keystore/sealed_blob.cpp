#include "keystore/sealed_blob.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/secure_zero.hpp"
#include "crypto/sha256.hpp"

namespace keyguard::keystore {

namespace {

constexpr std::byte kMagic[4] = {std::byte{'K'}, std::byte{'S'}, std::byte{'B'},
                                 std::byte{'1'}};
constexpr std::byte kAuthMagic[4] = {std::byte{'K'}, std::byte{'S'},
                                     std::byte{'B'}, std::byte{'2'}};

/// Constant-time tag comparison — a timing-dependent memcmp would be the
/// one cryptographic sin the sim should not model.
bool ct_equal(std::span<const std::byte> a, std::span<const std::byte> b) {
  if (a.size() != b.size()) return false;
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<unsigned>(a[i] ^ b[i]);
  }
  return diff == 0;
}

void put_le64(std::byte* out, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

std::uint64_t get_le64(const std::byte* in) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::uint64_t salted_nonce(std::uint64_t nonce, std::uint64_t salt) {
  if (salt == 0) return nonce;  // legacy layout, golden baseline
  // splitmix64 finalizer over the salt; XOR keeps the map injective in
  // `nonce` for a fixed salt. Bit 63 stays clear so salted blob nonces
  // never land in the encrypted backend's page-nonce space.
  std::uint64_t z = salt + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return (nonce ^ z) & ~(1ULL << 63);
}

void keystream_xor(std::span<std::byte> data, std::span<const std::byte> master,
                   std::uint64_t nonce) {
  assert(master.size() == kMasterKeyBytes);
  std::byte trailer[16];
  put_le64(trailer, nonce);
  for (std::size_t off = 0, block = 0; off < data.size();
       off += crypto::Sha256::kDigestSize, ++block) {
    put_le64(trailer + 8, block);
    crypto::Sha256 h;
    h.update(master);
    h.update(trailer);
    auto ks = h.finish();
    const std::size_t n = std::min(crypto::Sha256::kDigestSize, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) data[off + i] ^= ks[i];
    secure::secure_zero(ks);
  }
}

std::vector<std::byte> seal(std::span<const std::byte> plaintext,
                            std::span<const std::byte> master,
                            std::uint64_t nonce) {
  std::vector<std::byte> blob(kSealedHeaderBytes + plaintext.size());
  std::memcpy(blob.data(), kMagic, sizeof kMagic);
  put_le64(blob.data() + sizeof kMagic, nonce);
  std::memcpy(blob.data() + kSealedHeaderBytes, plaintext.data(), plaintext.size());
  keystream_xor(std::span(blob).subspan(kSealedHeaderBytes), master, nonce);
  return blob;
}

std::optional<std::size_t> unseal_into(std::span<const std::byte> blob,
                                       std::span<const std::byte> master,
                                       std::span<std::byte> out) {
  if (blob.size() < kSealedHeaderBytes) return std::nullopt;
  if (std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) return std::nullopt;
  const auto ct = blob.subspan(kSealedHeaderBytes);
  if (out.size() < ct.size()) return std::nullopt;
  const auto plain = out.first(ct.size());
  std::memcpy(plain.data(), ct.data(), ct.size());
  keystream_xor(plain, master, get_le64(blob.data() + sizeof kMagic));
  return ct.size();
}

std::optional<std::vector<std::byte>> unseal(std::span<const std::byte> blob,
                                             std::span<const std::byte> master) {
  std::vector<std::byte> plain(blob.size() - std::min(blob.size(), kSealedHeaderBytes));
  if (!unseal_into(blob, master, plain)) return std::nullopt;
  return plain;
}

std::optional<std::vector<std::byte>> seal_authenticated(
    std::span<const std::byte> plaintext, sim::CoprocessorDomain& domain,
    std::uint64_t nonce) {
  std::vector<std::byte> blob(kSealedHeaderBytes + plaintext.size() +
                              kAuthTagBytes);
  std::memcpy(blob.data(), kAuthMagic, sizeof kAuthMagic);
  put_le64(blob.data() + sizeof kAuthMagic, nonce);
  const auto body = std::span(blob).subspan(kSealedHeaderBytes, plaintext.size());
  std::memcpy(body.data(), plaintext.data(), plaintext.size());
  if (!domain.keystream_xor(nonce, body)) {
    secure::secure_zero(blob);  // the plaintext copy never got its keystream
    return std::nullopt;
  }
  const auto tag = domain.mac(nonce, body);
  if (!tag) {
    secure::secure_zero(blob);  // half-built ciphertext without a key to reopen it
    return std::nullopt;
  }
  std::memcpy(blob.data() + kSealedHeaderBytes + plaintext.size(), tag->data(),
              kAuthTagBytes);
  return blob;
}

std::optional<std::uint64_t> authenticated_nonce(std::span<const std::byte> blob) {
  if (blob.size() < kSealedHeaderBytes + kAuthTagBytes) return std::nullopt;
  if (std::memcmp(blob.data(), kAuthMagic, sizeof kAuthMagic) != 0) {
    return std::nullopt;
  }
  return get_le64(blob.data() + sizeof kAuthMagic);
}

std::optional<std::size_t> unseal_authenticated_into(
    std::span<const std::byte> blob, sim::CoprocessorDomain& domain,
    std::span<std::byte> out) {
  // Verify EVERYTHING before touching the keystream: fail-closed means no
  // partial plaintext exists on any rejection path.
  const auto nonce = authenticated_nonce(blob);
  if (!nonce) return std::nullopt;
  const auto ct = blob.subspan(kSealedHeaderBytes,
                               blob.size() - kSealedHeaderBytes - kAuthTagBytes);
  if (out.size() < ct.size()) return std::nullopt;
  const auto tag = blob.subspan(blob.size() - kAuthTagBytes);
  const auto expect = domain.mac(*nonce, ct);
  if (!expect) return std::nullopt;  // domain off: refuse, never fall back
  if (!ct_equal(tag, *expect)) return std::nullopt;

  const auto plain = out.first(ct.size());
  std::memcpy(plain.data(), ct.data(), ct.size());
  if (!domain.keystream_xor(*nonce, plain)) {
    secure::secure_zero(plain);
    return std::nullopt;
  }
  return ct.size();
}

std::optional<std::vector<std::byte>> unseal_authenticated(
    std::span<const std::byte> blob, sim::CoprocessorDomain& domain) {
  const std::size_t overhead = kSealedHeaderBytes + kAuthTagBytes;
  std::vector<std::byte> plain(blob.size() - std::min(blob.size(), overhead));
  if (!unseal_authenticated_into(blob, domain, plain)) return std::nullopt;
  return plain;
}

}  // namespace keyguard::keystore
