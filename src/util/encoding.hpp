// Hex and base64 codecs.
//
// Base64 is needed by the PEM-style key container (the paper's attacks
// search for the PEM text verbatim, so the encoding must round-trip
// byte-exactly); hex is used for fingerprints and diagnostics.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace keyguard::util {

/// Lower-case hex encoding of a byte span.
std::string to_hex(std::span<const std::byte> data);

/// Decodes hex (upper or lower case); returns nullopt on odd length or a
/// non-hex character.
std::optional<std::vector<std::byte>> from_hex(std::string_view hex);

/// Standard base64 (RFC 4648, with '=' padding, no line breaks).
std::string base64_encode(std::span<const std::byte> data);

/// Decodes base64; whitespace (including newlines, as found inside PEM
/// bodies) is skipped. Returns nullopt on any other invalid character or
/// bad padding, after zeroing the bytes decoded so far.
std::optional<std::vector<std::byte>> base64_decode(std::string_view text);

/// Wraps text at `width` columns with '\n' (PEM bodies use width 64).
std::string wrap_lines(std::string_view text, std::size_t width);

}  // namespace keyguard::util
