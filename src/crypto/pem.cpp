#include "crypto/pem.hpp"

#include <array>

#include "util/bytes.hpp"
#include "util/encoding.hpp"

namespace keyguard::crypto {
namespace {

constexpr std::byte kIntegerTag{0x02};

void append_tlv(std::vector<std::byte>& out, const bn::Bignum& v) {
  const std::vector<std::byte> bytes = v.to_bytes_be();
  out.push_back(kIntegerTag);
  // 4-byte big-endian length: simpler than DER's variable-length form and
  // unambiguous for the scanner's purposes.
  const auto len = static_cast<std::uint32_t>(bytes.size());
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::byte>(len >> (8 * i)));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::optional<bn::Bignum> read_tlv(std::span<const std::byte>& cursor) {
  if (cursor.size() < 5 || cursor[0] != kIntegerTag) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 1; i <= 4; ++i) len = (len << 8) | std::to_integer<std::uint32_t>(cursor[i]);
  if (cursor.size() < 5 + static_cast<std::size_t>(len)) return std::nullopt;
  const auto content = cursor.subspan(5, len);
  cursor = cursor.subspan(5 + len);
  // Built in place: a named const copy would be freed unscrubbed.
  return bn::Bignum::from_bytes_be(content);
}

}  // namespace

std::vector<std::byte> der_encode_private_key(const RsaPrivateKey& key) {
  std::vector<std::byte> out;
  append_tlv(out, bn::Bignum{});  // version 0
  append_tlv(out, key.n);
  append_tlv(out, key.e);
  append_tlv(out, key.d);
  append_tlv(out, key.p);
  append_tlv(out, key.q);
  append_tlv(out, key.dmp1);
  append_tlv(out, key.dmq1);
  append_tlv(out, key.iqmp);
  return out;
}

std::optional<RsaPrivateKey> der_decode_private_key(std::span<const std::byte> der) {
  std::span<const std::byte> cursor = der;
  std::array<bn::Bignum, 9> fields;
  for (auto& f : fields) {
    auto v = read_tlv(cursor);
    if (!v) return std::nullopt;
    f = std::move(*v);
  }
  if (!cursor.empty()) return std::nullopt;  // trailing junk
  if (!fields[0].is_zero()) return std::nullopt;  // unsupported version
  RsaPrivateKey key;
  key.n = std::move(fields[1]);
  key.e = std::move(fields[2]);
  key.d = std::move(fields[3]);
  key.p = std::move(fields[4]);
  key.q = std::move(fields[5]);
  key.dmp1 = std::move(fields[6]);
  key.dmq1 = std::move(fields[7]);
  key.iqmp = std::move(fields[8]);
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
