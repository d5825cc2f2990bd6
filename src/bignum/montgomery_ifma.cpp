// Two Montgomery exponentiations in lockstep on 52-bit digits (IFMA).
//
// Each operand is D = digits(l) digits of 52 bits, one per 64-bit lane,
// in N = lanes(l) / 8 zmm registers. vpmadd52luq/huq add the low and high
// 52 bits of a digit product to a lane, so a lane can absorb thousands of
// products before it overflows. The multiply is Gueron–Krasnov almost-
// Montgomery (AMM): R' = 2^(52D) > 4n, so for a, b < 2n the result
// (a*b + y*n) / R' stays below 2n and no multiply subtracts.
//
// One AMM runs D steps, one per digit b_i:
//
//   y    = (acc_0 + a_0 b_i) * (-n^{-1}) mod 2^52        scalar
//   acc += lo(a * b_i) + lo(n * y)                       vector, per lane
//   acc >>= one lane                                     valignq
//   acc += hi(a * b_i) + hi(n * y)                       vector, per lane
//
// Lane 0 is tracked exactly in a scalar s: y needs it every step, and a
// lane extract plus an add is shorter than broadcasting it back out. Its
// whole value is carried into the next s: the low halves' carry in 64-bit
// scalar arithmetic, the high halves from a two-madd side chain that runs
// beside the main one. The vector's lane 0 is never read. The p and q
// steps are written one after the other, so the core overlaps two
// independent chains.
//
// After D steps the lanes hold sums up to ~2^60. Normalization splits
// each lane at bit 52 and adds the high part to the next lane, which
// leaves every lane at most 2^52 + 2^12: a carry of at most one left.
// That carry ripples like binary addition over per-lane masks, G (lane
// > 2^52 - 1, generates) and P (lane == 2^52 - 1, propagates): the lanes
// that receive one are ((G << 1) + P) ^ P. No branch depends on a digit.
//
// Operands, the modulus and the table are read from the caller's scratch
// each step, behind a compiler barrier, so the compiler cannot hoist them
// into registers it might later spill: nothing secret is ever written to
// the stack. The kernel ends by zeroing the registers themselves.
#include "bignum/montgomery_ifma.hpp"

#if KEYGUARD_MONT_IFMA

#include <immintrin.h>

// bmi2 lets the compiler use mulx for the scalar lane: montgomery.cpp
// runs this file only where the ADX kernel (ADX + BMI2) is selected too.
#define KEYGUARD_IFMA __attribute__((target("avx512f,avx512ifma,bmi2")))
#define KEYGUARD_IFMA_INLINE \
  __attribute__((target("avx512f,avx512ifma,bmi2"), always_inline)) inline

namespace keyguard::bn::mont::ifma {
namespace {

using u128 = unsigned __int128;  // from_digits' bit buffer
using u64x8 = unsigned long long __attribute__((vector_size(64)));

constexpr Limb kMask = (Limb{1} << 52) - 1;
constexpr std::size_t kWindow = 4;
constexpr std::size_t kTable = std::size_t{1} << kWindow;

// Memory may have changed here, as far as the optimizer knows: loads of
// operands after it are redone rather than hoisted into registers.
inline void reload_barrier() noexcept { __asm__ volatile("" : : : "memory"); }

// p, with its value hidden from the optimizer: loads through it are not
// merged with earlier loads through p.
inline const Limb* opaque(const Limb* p) noexcept {
  __asm__("" : "+r"(p));
  return p;
}

KEYGUARD_IFMA_INLINE __m512i load(const Limb* p) noexcept { return _mm512_loadu_si512(p); }
KEYGUARD_IFMA_INLINE void store(Limb* p, __m512i v) noexcept { _mm512_storeu_si512(p, v); }
KEYGUARD_IFMA_INLINE __m512i splat(Limb v) noexcept {
  return _mm512_set1_epi64(static_cast<long long>(v));
}
// Lanes 1..7 of lo, then lane 0 of hi.
KEYGUARD_IFMA_INLINE __m512i next_lane(__m512i hi, __m512i lo) noexcept {
  return _mm512_maskz_alignr_epi64(0xFF, hi, lo, 1);
}

// One half's digit state: modulus, table, running value, selected entry.
struct Lanes {
  const Limb* n;
  Limb* table;
  Limb* r;
  Limb* sel;
  Limb k0;  // -n^{-1} mod 2^52
};

// The lane vector of one AMM accumulator plus its exact lane 0.
template <std::size_t N>
struct Acc {
  __m512i v[N];
  Limb s;
};

template <std::size_t N>
KEYGUARD_IFMA_INLINE void zero(Acc<N>& acc) noexcept {
#pragma GCC unroll 8
  for (std::size_t k = 0; k < N; ++k) acc.v[k] = _mm512_setzero_si512();
  acc.s = 0;
}

// One digit b_i of an AMM.
template <std::size_t N>
KEYGUARD_IFMA_INLINE void step(Acc<N>& acc, const Limb* a, Limb bi, const Limb* n,
                               Limb k0) noexcept {
  const Limb ab = a[0] * bi;  // low 64 bits: enough for y and the low carry
  const Limb y = ((acc.s + ab) * k0) & kMask;
  const Limb low_carry = (acc.s + (ab & kMask) + ((n[0] * y) & kMask)) >> 52;
  const __m512i b = splat(bi);
  const __m512i yv = splat(y);
  __m512i av[N], nv[N];
#pragma GCC unroll 8
  for (std::size_t k = 0; k < N; ++k) {
    av[k] = load(a + 8 * k);
    nv[k] = load(n + 8 * k);
    acc.v[k] = _mm512_madd52lo_epu64(acc.v[k], av[k], b);
    acc.v[k] = _mm512_madd52lo_epu64(acc.v[k], nv[k], yv);
  }
  // Lane 0's high halves, hi(a_0 b_i) + hi(n_0 y), on their own short
  // chain; lane 1 becomes lane 0, read before the shift.
  const __m512i high0 = _mm512_madd52hi_epu64(
      _mm512_madd52hi_epu64(_mm512_setzero_si512(), av[0], b), nv[0], yv);
  acc.s = static_cast<Limb>(acc.v[0][1]) + static_cast<Limb>(high0[0]) + low_carry;
#pragma GCC unroll 8
  for (std::size_t k = 0; k + 1 < N; ++k) acc.v[k] = next_lane(acc.v[k + 1], acc.v[k]);
  acc.v[N - 1] = next_lane(_mm512_setzero_si512(), acc.v[N - 1]);
  // Keeping both halves' operands live across the shift takes 4N zmm
  // registers beside the 2N accumulators: past N = 3 they would spill, so
  // the wider kernels reload a and n here instead.
  const Limb* a_again = N > 3 ? opaque(a) : a;
  const Limb* n_again = N > 3 ? opaque(n) : n;
#pragma GCC unroll 8
  for (std::size_t k = 0; k < N; ++k) {
    acc.v[k] = _mm512_madd52hi_epu64(acc.v[k], load(a_again + 8 * k), b);
    acc.v[k] = _mm512_madd52hi_epu64(acc.v[k], load(n_again + 8 * k), yv);
  }
}

// Carries every lane into 52-bit digits and stores them to r.
template <std::size_t N>
KEYGUARD_IFMA_INLINE void normalize_store(Acc<N>& acc, Limb* r) noexcept {
  acc.v[0] = _mm512_mask_mov_epi64(acc.v[0], 1, splat(acc.s));
  const u64x8 mask = reinterpret_cast<u64x8>(splat(kMask));
  __m512i high[N];
#pragma GCC unroll 8
  for (std::size_t k = 0; k < N; ++k) {
    const u64x8 v = reinterpret_cast<u64x8>(acc.v[k]);
    high[k] = reinterpret_cast<__m512i>(v >> 52);
    acc.v[k] = reinterpret_cast<__m512i>(v & mask);
  }
  // Lane j gains lane j-1's high part: at most 2^52 + 2^12 after this.
  unsigned long long gen = 0, prop = 0;
#pragma GCC unroll 8
  for (std::size_t k = 0; k < N; ++k) {
    const __m512i below = k == 0 ? _mm512_setzero_si512() : high[k - 1];
    acc.v[k] = _mm512_add_epi64(acc.v[k], _mm512_maskz_alignr_epi64(0xFF, high[k], below, 7));
    gen |= static_cast<unsigned long long>(_mm512_cmpgt_epu64_mask(acc.v[k], splat(kMask)))
           << (8 * k);
    prop |= static_cast<unsigned long long>(_mm512_cmpeq_epu64_mask(acc.v[k], splat(kMask)))
            << (8 * k);
  }
  const unsigned long long carry_in = ((gen << 1) + prop) ^ prop;
#pragma GCC unroll 8
  for (std::size_t k = 0; k < N; ++k) {
    const auto in = static_cast<__mmask8>(carry_in >> (8 * k));
    const __m512i v = _mm512_mask_add_epi64(acc.v[k], in, acc.v[k], splat(1));
    store(r + 8 * k, reinterpret_cast<__m512i>(reinterpret_cast<u64x8>(v) & mask));
  }
}

// r = a*b/R' (mod n, below 2n) for both halves; r may alias a or b.
template <std::size_t N>
KEYGUARD_IFMA_INLINE void amm2(const Lanes& p, Limb* rp, const Limb* ap, const Limb* bp,
                               const Lanes& q, Limb* rq, const Limb* aq, const Limb* bq,
                               std::size_t d) noexcept {
  Acc<N> accp, accq;
  zero(accp);
  zero(accq);
  for (std::size_t i = 0; i < d; ++i) {
    reload_barrier();
    step(accp, ap, bp[i], p.n, p.k0);
    step(accq, aq, bq[i], q.n, q.k0);
  }
  normalize_store(accp, rp);
  normalize_store(accq, rq);
}

template <std::size_t N>
KEYGUARD_IFMA_INLINE void copy_lanes(Limb* dst, const Limb* src) noexcept {
#pragma GCC unroll 8
  for (std::size_t k = 0; k < N; ++k) store(dst + 8 * k, load(src + 8 * k));
}

// Zeroes every vector and mask register and the call-clobbered general
// ones. They still hold digits of the moduli and the table, and the next
// lazy-binding trampoline or signal frame would save them to the stack
// (XSAVE writes all 32 zmm registers).
KEYGUARD_IFMA_INLINE void clear_registers() noexcept {
  __asm__ volatile(
      "vzeroall\n\t"
      "vpxord %%zmm16, %%zmm16, %%zmm16\n\tvpxord %%zmm17, %%zmm17, %%zmm17\n\t"
      "vpxord %%zmm18, %%zmm18, %%zmm18\n\tvpxord %%zmm19, %%zmm19, %%zmm19\n\t"
      "vpxord %%zmm20, %%zmm20, %%zmm20\n\tvpxord %%zmm21, %%zmm21, %%zmm21\n\t"
      "vpxord %%zmm22, %%zmm22, %%zmm22\n\tvpxord %%zmm23, %%zmm23, %%zmm23\n\t"
      "vpxord %%zmm24, %%zmm24, %%zmm24\n\tvpxord %%zmm25, %%zmm25, %%zmm25\n\t"
      "vpxord %%zmm26, %%zmm26, %%zmm26\n\tvpxord %%zmm27, %%zmm27, %%zmm27\n\t"
      "vpxord %%zmm28, %%zmm28, %%zmm28\n\tvpxord %%zmm29, %%zmm29, %%zmm29\n\t"
      "vpxord %%zmm30, %%zmm30, %%zmm30\n\tvpxord %%zmm31, %%zmm31, %%zmm31\n\t"
      "kxorw %%k1, %%k1, %%k1\n\tkxorw %%k2, %%k2, %%k2\n\tkxorw %%k3, %%k3, %%k3\n\t"
      "kxorw %%k4, %%k4, %%k4\n\tkxorw %%k5, %%k5, %%k5\n\tkxorw %%k6, %%k6, %%k6\n\t"
      "kxorw %%k7, %%k7, %%k7\n\t"
      "xorl %%eax, %%eax\n\txorl %%ecx, %%ecx\n\txorl %%edx, %%edx\n\t"
      "xorl %%esi, %%esi\n\txorl %%edi, %%edi\n\txorl %%r8d, %%r8d\n\t"
      "xorl %%r9d, %%r9d\n\txorl %%r10d, %%r10d\n\txorl %%r11d, %%r11d"
      :
      :
      : "xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5", "xmm6", "xmm7", "xmm8", "xmm9",
        "xmm10", "xmm11", "xmm12", "xmm13", "xmm14", "xmm15", "xmm16", "xmm17", "xmm18",
        "xmm19", "xmm20", "xmm21", "xmm22", "xmm23", "xmm24", "xmm25", "xmm26", "xmm27",
        "xmm28", "xmm29", "xmm30", "xmm31", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "rax",
        "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11", "cc");
}

// sel = table[idx], reading all 16 entries and keeping one by mask.
template <std::size_t N>
KEYGUARD_IFMA_INLINE void select(Limb* sel, const Limb* table, Limb idx) noexcept {
  __m512i out[N];
#pragma GCC unroll 8
  for (std::size_t k = 0; k < N; ++k) out[k] = _mm512_setzero_si512();
  for (std::size_t i = 0; i < kTable; ++i) {
    const Limb diff = idx ^ i;
    const __m512i hit = splat((((diff | (Limb{0} - diff)) >> 63) ^ 1) * ~Limb{0});
    reload_barrier();
    const Limb* entry = table + i * 8 * N;
#pragma GCC unroll 8
    for (std::size_t k = 0; k < N; ++k) {
      out[k] = _mm512_or_si512(out[k], _mm512_and_si512(load(entry + 8 * k), hit));
    }
  }
#pragma GCC unroll 8
  for (std::size_t k = 0; k < N; ++k) store(sel + 8 * k, out[k]);
}

// The digits of an l-limb x, zero-padded to `count`.
void to_digits(Limb* d, std::size_t count, std::span<const Limb> x) noexcept {
  const std::size_t l = x.size();
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t limb = 52 * j / 64;
    const std::size_t off = 52 * j % 64;
    Limb v = limb < l ? x[limb] >> off : 0;
    if (off > 12 && limb + 1 < l) v |= x[limb + 1] << (64 - off);
    d[j] = v & kMask;
  }
}

// x = the low 64 * x.size() bits of D normalized digits.
void from_digits(std::span<Limb> x, const Limb* d, std::size_t count) noexcept {
  u128 bits = 0;
  std::size_t have = 0, k = 0;
  for (std::size_t j = 0; j < count; ++j) {
    bits |= static_cast<u128>(d[j]) << have;
    have += 52;
    if (have >= 64 && k < x.size()) {
      x[k++] = static_cast<Limb>(bits);
      bits >>= 64;
      have -= 64;
    }
  }
  for (; k < x.size(); ++k, bits >>= 64) x[k] = static_cast<Limb>(bits);
}

// The 4-bit window w of e (zero past its end).
Limb window(std::span<const Limb> e, std::size_t w) noexcept {
  constexpr std::size_t kPerLimb = 64 / kWindow;
  const std::size_t limb = w / kPerLimb;
  return limb < e.size() ? (e[limb] >> (kWindow * (w % kPerLimb))) & (kTable - 1) : 0;
}

template <std::size_t N>
KEYGUARD_IFMA void exp2_lanes(const Half& hp, const Half& hq, std::size_t l,
                              std::size_t bits, std::span<Limb> scratch) noexcept {
  constexpr std::size_t kLanes = 8 * N;
  const std::size_t d = digits(l);
  Lanes half[2];
  const Half* in[2] = {&hp, &hq};
  for (std::size_t h = 0; h < 2; ++h) {
    Limb* base = scratch.data() + h * 19 * kLanes;
    Limb* n = base;
    half[h] = {n, base + kLanes, base + 17 * kLanes, base + 18 * kLanes,
               in[h]->n0_inv & kMask};
    to_digits(n, kLanes, in[h]->n);
    to_digits(half[h].table, kLanes, in[h]->one);       // R' mod n
    to_digits(half[h].table + kLanes, kLanes, in[h]->xm);  // x R' mod n
  }
  const Lanes& p = half[0];
  const Lanes& q = half[1];
  const auto entry = [](const Lanes& h, std::size_t i) { return h.table + i * kLanes; };

  for (std::size_t i = 2; i < kTable; ++i) {
    amm2<N>(p, entry(p, i), entry(p, i - 1), entry(p, 1), q, entry(q, i), entry(q, i - 1),
            entry(q, 1), d);
  }
  copy_lanes<N>(p.r, entry(p, 0));
  copy_lanes<N>(q.r, entry(q, 0));
  for (std::size_t w = (bits + kWindow - 1) / kWindow; w-- > 0;) {
    for (std::size_t s = 0; s < kWindow; ++s) amm2<N>(p, p.r, p.r, p.r, q, q.r, q.r, q.r, d);
    select<N>(p.sel, p.table, window(hp.e, w));
    select<N>(q.sel, q.table, window(hq.e, w));
    amm2<N>(p, p.r, p.r, p.sel, q, q.r, q.r, q.sel, d);
  }
  // Out of Montgomery form: AMM by 1 leaves a value at most n.
  for (Limb* sel : {p.sel, q.sel}) {
    store(sel, _mm512_maskz_mov_epi64(1, splat(1)));
#pragma GCC unroll 8
    for (std::size_t k = 1; k < N; ++k) store(sel + 8 * k, _mm512_setzero_si512());
  }
  amm2<N>(p, p.r, p.r, p.sel, q, q.r, q.r, q.sel, d);
  from_digits(hp.r, p.r, d);
  from_digits(hq.r, q.r, d);
  clear_registers();
}

}  // namespace

bool available() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
}

void exp2(const Half& p, const Half& q, std::size_t l, std::size_t bits,
          std::span<Limb> scratch) noexcept {
  switch (lanes(l) / 8) {
    case 1: return exp2_lanes<1>(p, q, l, bits, scratch);
    case 2: return exp2_lanes<2>(p, q, l, bits, scratch);
    case 3: return exp2_lanes<3>(p, q, l, bits, scratch);
    case 4: return exp2_lanes<4>(p, q, l, bits, scratch);
    case 5: return exp2_lanes<5>(p, q, l, bits, scratch);
    case 6: return exp2_lanes<6>(p, q, l, bits, scratch);
    case 7: return exp2_lanes<7>(p, q, l, bits, scratch);
    default: return exp2_lanes<8>(p, q, l, bits, scratch);
  }
}

}  // namespace keyguard::bn::mont::ifma

#endif  // KEYGUARD_MONT_IFMA
