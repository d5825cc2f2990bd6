#include "scan/simd_match.hpp"

#include "util/flags.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define KEYGUARD_SIMD_X86 1
#include <immintrin.h>
#else
#define KEYGUARD_SIMD_X86 0
#endif

namespace keyguard::scan {

namespace {

SimdKind detect_hardware() noexcept {
#if KEYGUARD_SIMD_X86 && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")) {
    return SimdKind::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdKind::kAvx2;
#endif
  return SimdKind::kNone;
}

/// KEYGUARD_SCAN_SIMD caps (never raises) the detected level: "none"
/// forces the scalar fallback everywhere, "avx2" pins AVX-512 hardware to
/// the 32-byte path so both kernels are testable on one machine. Unset or
/// unrecognized values keep the hardware's best level.
SimdKind apply_env_cap(SimdKind hw) {
  const auto env = util::env_string("KEYGUARD_SCAN_SIMD");
  if (env == "none") return SimdKind::kNone;
  if (env == "avx2" && hw == SimdKind::kAvx512) return SimdKind::kAvx2;
  return hw;
}

}  // namespace

const char* simd_kind_name(SimdKind k) noexcept {
  switch (k) {
    case SimdKind::kNone:
      return "none";
    case SimdKind::kAvx2:
      return "avx2";
    case SimdKind::kAvx512:
      return "avx512";
  }
  return "none";
}

SimdKind simd_available() noexcept {
  static const SimdKind cached = apply_env_cap(detect_hardware());
  return cached;
}

namespace simd_detail {

#if KEYGUARD_SIMD_X86 && defined(__GNUC__)

namespace {

__attribute__((target("avx2"))) std::size_t collect_avx2(
    const unsigned char* base, std::size_t pos, std::size_t limit,
    const ShuftiTables& t, std::vector<std::size_t>& out) {
  const __m256i lo0 = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo0)));
  const __m256i hi0 = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi0)));
  const __m256i lo1 = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo1)));
  const __m256i hi1 = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi1)));
  const __m256i nib = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  while (pos + 32 <= limit) {
    // v0 covers positions [pos, pos+32); v1 is the same span shifted one
    // byte right — the second byte of every position. limit < buf_size, so
    // the byte at pos+32 (v1's last lane) is in bounds.
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + pos));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + pos + 1));
    const __m256i c0 = _mm256_and_si256(
        _mm256_shuffle_epi8(lo0, _mm256_and_si256(v0, nib)),
        _mm256_shuffle_epi8(
            hi0, _mm256_and_si256(_mm256_srli_epi16(v0, 4), nib)));
    const __m256i c1 = _mm256_and_si256(
        _mm256_shuffle_epi8(lo1, _mm256_and_si256(v1, nib)),
        _mm256_shuffle_epi8(
            hi1, _mm256_and_si256(_mm256_srli_epi16(v1, 4), nib)));
    const __m256i both = _mm256_and_si256(c0, c1);
    std::uint32_t m = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(both, zero)));
    while (m != 0) {
      out.push_back(pos + static_cast<std::size_t>(__builtin_ctz(m)));
      m &= m - 1;
    }
    pos += 32;
  }
  return pos;
}

__attribute__((target("avx512f,avx512bw"))) std::size_t collect_avx512(
    const unsigned char* base, std::size_t pos, std::size_t limit,
    const ShuftiTables& t, std::vector<std::size_t>& out) {
  // Zero-masked broadcast with every lane selected: the same result as
  // _mm512_broadcast_i32x4, whose gcc 12 expansion passes an
  // _mm512_undefined_epi32() source that trips -Wuninitialized.
  constexpr __mmask16 kAll = 0xFFFF;
  const __m512i lo0 = _mm512_maskz_broadcast_i32x4(
      kAll, _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo0)));
  const __m512i hi0 = _mm512_maskz_broadcast_i32x4(
      kAll, _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi0)));
  const __m512i lo1 = _mm512_maskz_broadcast_i32x4(
      kAll, _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo1)));
  const __m512i hi1 = _mm512_maskz_broadcast_i32x4(
      kAll, _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi1)));
  const __m512i nib = _mm512_set1_epi8(0x0f);
  while (pos + 64 <= limit) {
    const __m512i v0 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(base + pos));
    const __m512i v1 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(base + pos + 1));
    const __m512i c0 = _mm512_and_si512(
        _mm512_shuffle_epi8(lo0, _mm512_and_si512(v0, nib)),
        _mm512_shuffle_epi8(
            hi0, _mm512_and_si512(_mm512_srli_epi16(v0, 4), nib)));
    const __m512i c1 = _mm512_and_si512(
        _mm512_shuffle_epi8(lo1, _mm512_and_si512(v1, nib)),
        _mm512_shuffle_epi8(
            hi1, _mm512_and_si512(_mm512_srli_epi16(v1, 4), nib)));
    // test_epi8_mask sets a lane's bit iff (c0 & c1) is non-zero there —
    // the candidate mask in one instruction.
    std::uint64_t m = _mm512_test_epi8_mask(c0, c1);
    while (m != 0) {
      out.push_back(pos + static_cast<std::size_t>(__builtin_ctzll(m)));
      m &= m - 1;
    }
    pos += 64;
  }
  return pos;
}

}  // namespace

#endif  // KEYGUARD_SIMD_X86

std::size_t collect_candidates(SimdKind kind, const unsigned char* base,
                               std::size_t pos, std::size_t limit,
                               const ShuftiTables& tables,
                               std::vector<std::size_t>& out) {
#if KEYGUARD_SIMD_X86 && defined(__GNUC__)
  if (kind == SimdKind::kAvx512) {
    return collect_avx512(base, pos, limit, tables, out);
  }
  if (kind == SimdKind::kAvx2) {
    return collect_avx2(base, pos, limit, tables, out);
  }
#else
  (void)base;
  (void)limit;
  (void)tables;
  (void)out;
  (void)kind;
#endif
  return pos;  // kNone (or non-x86 build): nothing vectorized
}

}  // namespace simd_detail
}  // namespace keyguard::scan
