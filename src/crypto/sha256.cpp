#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/secure_zero.hpp"
#include "util/encoding.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KEYGUARD_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define KEYGUARD_SHA_NI 0
#endif

namespace keyguard::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t load_be32(const std::byte* p) {
  return (std::to_integer<std::uint32_t>(p[0]) << 24) |
         (std::to_integer<std::uint32_t>(p[1]) << 16) |
         (std::to_integer<std::uint32_t>(p[2]) << 8) |
         std::to_integer<std::uint32_t>(p[3]);
}

void store_be32(std::byte* p, std::uint32_t v) {
  p[0] = static_cast<std::byte>(v >> 24);
  p[1] = static_cast<std::byte>(v >> 16);
  p[2] = static_cast<std::byte>(v >> 8);
  p[3] = static_cast<std::byte>(v);
}

#if KEYGUARD_SHA_NI
// The SHA extensions keep the state as two lanes of four words, ABEF and
// CDGH, and sha256rnds2 runs two rounds on the low two words of its
// message operand (schedule words plus round constants). Each group of
// four rounds takes four schedule words: loaded and byte-swapped for
// groups 0-3, and for group g >= 4
//   W_g = msg2(msg1(W_g-4, W_g-3) + alignr(W_g-1, W_g-2, 4), W_g-1),
// so the schedule lives in four rotating registers, never in memory.
#define KEYGUARD_SHA_NI_TARGET gnu::target("sha,sse4.1,ssse3")

[[KEYGUARD_SHA_NI_TARGET, gnu::always_inline]] inline void sha_ni_rounds(__m128i& abef,
                                                                         __m128i& cdgh,
                                                                         __m128i w, int g) {
  const __m128i k = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * g)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(k, 0x0E));
}

[[KEYGUARD_SHA_NI_TARGET, gnu::always_inline]] inline void sha_ni_schedule(
    __m128i& w4, __m128i w3, __m128i w2, __m128i w1) {
  w4 = _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8(w1, w2, 4)), w1);
}

[[KEYGUARD_SHA_NI_TARGET]] void compress_sha_ni(Sha256State& state,
                                                std::span<const std::byte> blocks) noexcept {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (const std::byte* p = blocks.data(); p != blocks.data() + blocks.size(); p += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(p);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    sha_ni_rounds(abef, cdgh, w0, 0);
    sha_ni_rounds(abef, cdgh, w1, 1);
    sha_ni_rounds(abef, cdgh, w2, 2);
    sha_ni_rounds(abef, cdgh, w3, 3);
    for (int g = 4; g < 16; g += 4) {
      sha_ni_schedule(w0, w1, w2, w3);
      sha_ni_rounds(abef, cdgh, w0, g);
      sha_ni_schedule(w1, w2, w3, w0);
      sha_ni_rounds(abef, cdgh, w1, g + 1);
      sha_ni_schedule(w2, w3, w0, w1);
      sha_ni_rounds(abef, cdgh, w2, g + 2);
      sha_ni_schedule(w3, w0, w1, w2);
      sha_ni_rounds(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), _mm_alignr_epi8(dchg, feba, 8));
  secure::clear_vector_registers();
}

#undef KEYGUARD_SHA_NI_TARGET
#endif

// CPUID, read once per process. SHA is leaf 7 EBX bit 29, read directly:
// not every clang's __builtin_cpu_supports accepts "sha".
bool sha_ni_selected() noexcept {
#if KEYGUARD_SHA_NI
  static const bool selected = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    __builtin_cpu_init();
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 && (ebx & bit_SHA) != 0 &&
           __builtin_cpu_supports("sse4.1") && __builtin_cpu_supports("ssse3");
  }();
  return selected;
#else
  return false;
#endif
}

}  // namespace

namespace portable {

void sha256_compress(Sha256State& state, std::span<const std::byte> blocks) noexcept {
  std::uint32_t w[64];
  for (const std::byte* p = blocks.data(); p != blocks.data() + blocks.size(); p += 64) {
    for (int i = 0; i < 16; ++i) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    auto [a, b, c, d, e, f, g, h] = state;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
  secure::secure_zero(w, sizeof w);
  secure::clear_vector_registers();
}

}  // namespace portable

void sha256_compress(Sha256State& state, std::span<const std::byte> blocks) noexcept {
#if KEYGUARD_SHA_NI
  if (sha_ni_selected()) return compress_sha_ni(state, blocks);
#endif
  portable::sha256_compress(state, blocks);
}

const char* sha256_kernel_name() noexcept { return sha_ni_selected() ? "sha_ni" : "portable"; }

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(std::span<const std::byte> data) {
  if (data.empty()) return;
  total_bytes_ += data.size();
  if (buffered_ != 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    data = data.subspan(take);
    if (buffered_ != buffer_.size()) return;
    sha256_compress(state_, buffer_);
    buffered_ = 0;
  }
  // Whole blocks compress straight from the input.
  const std::size_t whole = data.size() - data.size() % buffer_.size();
  if (whole != 0) sha256_compress(state_, data.first(whole));
  buffered_ = data.size() - whole;
  if (buffered_ != 0) std::memcpy(buffer_.data(), data.data() + whole, buffered_);
}

Sha256::Digest Sha256::finish() {
  // One pass: 0x80, zeros up to 56 mod 64, the big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  const auto zero_from = [&](std::size_t from, std::size_t to) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(from),
              buffer_.begin() + static_cast<std::ptrdiff_t>(to), std::byte{0});
  };
  buffer_[buffered_++] = std::byte{0x80};
  if (buffered_ > 56) {
    zero_from(buffered_, buffer_.size());
    sha256_compress(state_, buffer_);
    buffered_ = 0;
  }
  zero_from(buffered_, 56);
  for (int i = 0; i < 8; ++i) buffer_[56 + i] = static_cast<std::byte>(bit_len >> (8 * (7 - i)));
  sha256_compress(state_, buffer_);
  Digest out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  secure::secure_zero(buffer_.data(), buffer_.size());
  secure::secure_zero(state_.data(), sizeof state_);
  return out;
}

Sha256::Digest Sha256::hash(std::span<const std::byte> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256::Digest Sha256::hash_str(std::string_view s) {
  return hash({reinterpret_cast<const std::byte*>(s.data()), s.size()});
}

std::string digest_hex(const Sha256::Digest& d) { return util::to_hex(d); }

}  // namespace keyguard::crypto
