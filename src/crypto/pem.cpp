#include "crypto/pem.hpp"

#include <algorithm>
#include <array>

#include "util/bytes.hpp"
#include "util/encoding.hpp"

namespace keyguard::crypto {
namespace {

constexpr std::byte kIntegerTag{0x02};

// Big-endian content bytes of v: its bit length's worth (none for zero).
std::size_t content_len(const bn::Bignum& v) { return (v.bit_length() + 7) / 8; }

// Writes v's TLV at `out` and returns the end. The content bytes are read
// straight from v's limbs: no byte-string temporary holds a private part.
std::byte* put_tlv(std::byte* out, const bn::Bignum& v) {
  const std::size_t len = content_len(v);
  *out++ = kIntegerTag;
  // 4-byte big-endian length: simpler than DER's variable-length form and
  // unambiguous for the scanner's purposes.
  for (int i = 3; i >= 0; --i) *out++ = static_cast<std::byte>(len >> (8 * i));
  const auto limbs = v.limbs();
  for (std::size_t i = len; i-- > 0;) {
    *out++ = static_cast<std::byte>(limbs[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

// The content of the INTEGER at the front of `cursor`, which moves past it.
std::optional<std::span<const std::byte>> read_tlv(std::span<const std::byte>& cursor) {
  if (cursor.size() < 5 || cursor[0] != kIntegerTag) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 1; i <= 4; ++i) len = (len << 8) | std::to_integer<std::uint32_t>(cursor[i]);
  if (cursor.size() < 5 + static_cast<std::size_t>(len)) return std::nullopt;
  const auto content = cursor.subspan(5, len);
  cursor = cursor.subspan(5 + len);
  return content;
}

}  // namespace

std::vector<std::byte> der_encode_private_key(const RsaPrivateKey& key) {
  const bn::Bignum version;  // 0
  const bn::Bignum* const parts[] = {&version, &key.n,    &key.e,    &key.d,   &key.p,
                                     &key.q,   &key.dmp1, &key.dmq1, &key.iqmp};
  // Sized once: a growing vector would free partial encodings unscrubbed.
  std::size_t size = 0;
  for (const bn::Bignum* v : parts) size += 5 + content_len(*v);
  std::vector<std::byte> out(size);
  std::byte* w = out.data();
  for (const bn::Bignum* v : parts) w = put_tlv(w, *v);
  return out;
}

std::optional<DerIntegers> der_private_key_integers(std::span<const std::byte> der) {
  std::span<const std::byte> cursor = der;
  DerIntegers fields;
  for (auto& f : fields) {
    const auto v = read_tlv(cursor);
    if (!v) return std::nullopt;
    f = *v;
  }
  if (!cursor.empty()) return std::nullopt;  // trailing junk
  if (der_integer_limbs(fields[0]) != 0) return std::nullopt;  // unsupported version
  return fields;
}

std::size_t der_integer_limbs(std::span<const std::byte> content) noexcept {
  std::size_t skip = 0;
  while (skip < content.size() && content[skip] == std::byte{0}) ++skip;
  return (content.size() - skip + sizeof(bn::Limb) - 1) / sizeof(bn::Limb);
}

void der_integer_to_limbs(std::span<const std::byte> content,
                          std::span<bn::Limb> out) noexcept {
  std::ranges::fill(out, bn::Limb{0});
  // Byte i from the end lands in limb i / 8 at bit 8 * (i % 8).
  for (std::size_t i = 0; i < content.size(); ++i) {
    const std::size_t limb = i / sizeof(bn::Limb);
    if (limb >= out.size()) break;  // a leading zero byte past the width
    out[limb] |= std::to_integer<bn::Limb>(content[content.size() - 1 - i])
                 << (8 * (i % sizeof(bn::Limb)));
  }
}

std::optional<RsaPrivateKey> der_decode_private_key(std::span<const std::byte> der) {
  const auto fields = der_private_key_integers(der);
  if (!fields) return std::nullopt;
  // Built in place: a named const copy would be freed unscrubbed.
  RsaPrivateKey key;
  bn::Bignum* const parts[] = {&key.n,    &key.e,    &key.d,    &key.p,
                               &key.q,    &key.dmp1, &key.dmq1, &key.iqmp};
  for (std::size_t i = 0; i < 8; ++i) {
    *parts[i] = bn::Bignum::from_bytes_be((*fields)[i + 1]);
  }
  return key;
}

std::string pem_encode_private_key(const RsaPrivateKey& key) {
  const auto der = der_encode_private_key(key);
  std::string out;
  out += kPemHeader;
  out += '\n';
  out += util::wrap_lines(util::base64_encode(der), 64);
  out += kPemFooter;
  out += '\n';
  return out;
}

std::optional<RsaPrivateKey> pem_decode_private_key(std::string_view pem) {
  const auto begin = pem.find(kPemHeader);
  if (begin == std::string_view::npos) return std::nullopt;
  const auto body_start = begin + kPemHeader.size();
  const auto end = pem.find(kPemFooter, body_start);
  if (end == std::string_view::npos) return std::nullopt;
  const auto body = pem.substr(body_start, end - body_start);
  const auto der = util::base64_decode(body);
  if (!der) return std::nullopt;
  return der_decode_private_key(*der);
}

}  // namespace keyguard::crypto
