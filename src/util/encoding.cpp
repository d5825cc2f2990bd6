#include "util/encoding.hpp"

#include <array>
#include <cctype>

#include "core/secure_zero.hpp"

namespace keyguard::util {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";
constexpr char kB64Digits[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

int b64_value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}

}  // namespace

std::string to_hex(std::span<const std::byte> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::byte b : data) {
    const auto v = std::to_integer<unsigned>(b);
    out.push_back(kHexDigits[v >> 4]);
    out.push_back(kHexDigits[v & 0xF]);
  }
  return out;
}

std::optional<std::vector<std::byte>> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::vector<std::byte> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::byte>((hi << 4) | lo));
  }
  return out;
}

std::string base64_encode(std::span<const std::byte> data) {
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 3 <= data.size()) {
    const unsigned v = (std::to_integer<unsigned>(data[i]) << 16) |
                       (std::to_integer<unsigned>(data[i + 1]) << 8) |
                       std::to_integer<unsigned>(data[i + 2]);
    out.push_back(kB64Digits[(v >> 18) & 63]);
    out.push_back(kB64Digits[(v >> 12) & 63]);
    out.push_back(kB64Digits[(v >> 6) & 63]);
    out.push_back(kB64Digits[v & 63]);
    i += 3;
  }
  const std::size_t rem = data.size() - i;
  if (rem == 1) {
    const unsigned v = std::to_integer<unsigned>(data[i]) << 16;
    out.push_back(kB64Digits[(v >> 18) & 63]);
    out.push_back(kB64Digits[(v >> 12) & 63]);
    out.append("==");
  } else if (rem == 2) {
    const unsigned v = (std::to_integer<unsigned>(data[i]) << 16) |
                       (std::to_integer<unsigned>(data[i + 1]) << 8);
    out.push_back(kB64Digits[(v >> 18) & 63]);
    out.push_back(kB64Digits[(v >> 12) & 63]);
    out.push_back(kB64Digits[(v >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

std::optional<std::vector<std::byte>> base64_decode(std::string_view text) {
  // Sized once for the most n characters can decode to (3n/4, rounded
  // up: an unpadded body need not be whole quads), so growth never frees
  // a partial decode; a refusal wipes what it decoded (the text may be a
  // private key's PEM body).
  std::vector<std::byte> out;
  out.reserve((text.size() * 3 + 3) / 4);
  const auto refuse = [&out]() -> std::optional<std::vector<std::byte>> {
    secure::secure_zero(out);
    return std::nullopt;
  };
  unsigned acc = 0;
  int bits = 0;
  int pad = 0;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (c == '=') {
      ++pad;
      continue;
    }
    if (pad > 0) return refuse();  // data after padding
    const int v = b64_value(c);
    if (v < 0) return refuse();
    acc = (acc << 6) | static_cast<unsigned>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::byte>((acc >> bits) & 0xFF));
    }
  }
  if (pad > 2) return refuse();
  return out;
}

std::string wrap_lines(std::string_view text, std::size_t width) {
  std::string out;
  out.reserve(text.size() + text.size() / (width ? width : 1) + 1);
  std::size_t col = 0;
  for (char c : text) {
    out.push_back(c);
    if (++col == width) {
      out.push_back('\n');
      col = 0;
    }
  }
  if (col != 0) out.push_back('\n');
  return out;
}

}  // namespace keyguard::util
