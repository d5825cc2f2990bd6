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

/// One depth's classes for 32 positions: lo[b & 15] & hi[b >> 4].
__attribute__((target("avx2"))) inline __m256i classify_avx2(
    const unsigned char* p, __m256i lo, __m256i hi, __m256i nib) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  return _mm256_and_si256(
      _mm256_shuffle_epi8(lo, _mm256_and_si256(v, nib)),
      _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi16(v, 4), nib)));
}

template <std::size_t D>
__attribute__((target("avx2"))) Skimmed collect_avx2(
    const unsigned char* base, std::size_t pos, std::size_t limit,
    const ShuftiTables& t, std::uint32_t* out) {
  __m256i lo[D];
  __m256i hi[D];
#pragma GCC unroll 4
  for (std::size_t k = 0; k < D; ++k) {
    lo[k] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[k])));
    hi[k] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[k])));
  }
  const __m256i nib = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  const std::size_t start = pos;
  std::size_t n = 0;
  while (pos + 32 <= limit) {
    // Layer k classifies the span shifted k bytes right — byte p + k of
    // every position p in [pos, pos+32). limit + D - 1 <= buffer size, so
    // the last layer's last lane is in bounds.
    __m256i both = classify_avx2(base + pos, lo[0], hi[0], nib);
#pragma GCC unroll 4
    for (std::size_t k = 1; k < D; ++k) {
      both = _mm256_and_si256(both, classify_avx2(base + pos + k, lo[k], hi[k], nib));
    }
    std::uint32_t m = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(both, zero)));
    while (m != 0) {
      out[n++] = static_cast<std::uint32_t>(pos - start) +
                 static_cast<std::uint32_t>(__builtin_ctz(m));
      m &= m - 1;
    }
    pos += 32;
  }
  return {pos, n};
}

/// One depth's classes for 64 positions.
__attribute__((target("avx512f,avx512bw"))) inline __m512i classify_avx512(
    const unsigned char* p, __m512i lo, __m512i hi, __m512i nib) {
  const __m512i v = _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  return _mm512_and_si512(
      _mm512_shuffle_epi8(lo, _mm512_and_si512(v, nib)),
      _mm512_shuffle_epi8(hi, _mm512_and_si512(_mm512_srli_epi16(v, 4), nib)));
}

template <std::size_t D>
__attribute__((target("avx512f,avx512bw"))) Skimmed collect_avx512(
    const unsigned char* base, std::size_t pos, std::size_t limit,
    const ShuftiTables& t, std::uint32_t* out) {
  // Zero-masked broadcast with every lane selected: the same result as
  // _mm512_broadcast_i32x4, whose gcc 12 expansion passes an
  // _mm512_undefined_epi32() source that trips -Wuninitialized.
  constexpr __mmask16 kAll = 0xFFFF;
  __m512i lo[D];
  __m512i hi[D];
#pragma GCC unroll 4
  for (std::size_t k = 0; k < D; ++k) {
    lo[k] = _mm512_maskz_broadcast_i32x4(
        kAll, _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[k])));
    hi[k] = _mm512_maskz_broadcast_i32x4(
        kAll, _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[k])));
  }
  const __m512i nib = _mm512_set1_epi8(0x0f);
  const std::size_t start = pos;
  std::size_t n = 0;
  while (pos + 64 <= limit) {
    __m512i acc = classify_avx512(base + pos, lo[0], hi[0], nib);
#pragma GCC unroll 4
    for (std::size_t k = 1; k + 1 < D; ++k) {
      acc = _mm512_and_si512(acc, classify_avx512(base + pos + k, lo[k], hi[k], nib));
    }
    // test_epi8_mask sets a lane's bit iff (acc & last layer) is non-zero
    // there — the candidate mask in one instruction.
    std::uint64_t m = _mm512_test_epi8_mask(
        acc, classify_avx512(base + pos + D - 1, lo[D - 1], hi[D - 1], nib));
    while (m != 0) {
      out[n++] = static_cast<std::uint32_t>(pos - start) +
                 static_cast<std::uint32_t>(__builtin_ctzll(m));
      m &= m - 1;
    }
    pos += 64;
  }
  return {pos, n};
}

template <std::size_t D>
Skimmed collect_at_depth(SimdKind kind, const unsigned char* base,
                         std::size_t pos, std::size_t limit,
                         const ShuftiTables& t, std::uint32_t* out) {
  return kind == SimdKind::kAvx512 ? collect_avx512<D>(base, pos, limit, t, out)
                                   : collect_avx2<D>(base, pos, limit, t, out);
}

}  // namespace

#endif  // KEYGUARD_SIMD_X86

Skimmed collect_candidates(SimdKind kind, const unsigned char* base,
                           std::size_t pos, std::size_t limit,
                           const ShuftiTables& tables, std::uint32_t* out) {
#if KEYGUARD_SIMD_X86 && defined(__GNUC__)
  if (kind == SimdKind::kNone) return {pos, 0};
  switch (tables.depth) {
    case 2:
      return collect_at_depth<2>(kind, base, pos, limit, tables, out);
    case 3:
      return collect_at_depth<3>(kind, base, pos, limit, tables, out);
    default:
      return collect_at_depth<kMaxSkimDepth>(kind, base, pos, limit, tables, out);
  }
#else
  (void)base;
  (void)limit;
  (void)tables;
  (void)out;
  (void)kind;
#endif
  return {pos, 0};  // kNone (or non-x86 build): nothing vectorized
}

}  // namespace simd_detail
}  // namespace keyguard::scan
