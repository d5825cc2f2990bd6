// Montgomery rows on two independent carry chains (mulx/adcx/adox).
//
// Row i of CIOS adds q*n and a*b[i] to the accumulator, q chosen so the
// low limb cancels. The accumulator slides instead of shifting: row i
// works on t[i..i+l+1], so the running value after row i is t[i+1..i+l+1]
// and the product ends in t[l..2l]. Each row runs in 4-limb blocks plus a
// 1-limb tail loop, one kernel for every limb count. For the columns c of
// a block:
//
//   phase N  r_c  = lo(q*n_c) + hi(q*n_{c-1}) [OF] + t_c [CF]
//   phase A  r_c += lo(a_c*b_i) [CF] + hi(a_{c-1}*b_i) [OF];  t_c = r_c
//
// mulx leaves the flags alone, so the two adds per column ride separate
// chains and never wait on each other. Each phase closes both chains into
// its block's top high limb (hn, ha), which the next block adds at its
// first column. Neither close can carry out: a 4-limb block plus a 4-limb
// by 1-limb product plus one incoming high limb is at most 2^320 - 1.
// Each phase opens with an xor, so its chains start fresh rather than
// wait on the previous close. Loop control is lea and jrcxz, which touch
// no flags; trip counts depend on l alone. The asm writes only the
// accumulator, keeps every other limb in registers (bi, q and the tail
// count are single-word operands the compiler places) and never names
// rbp.
#include "bignum/montgomery_adx.hpp"

#if KEYGUARD_MONT_ADX

#include <algorithm>

namespace keyguard::bn::mont::adx {
namespace {

// One row: t[0..l] += n*q + a*bi and t[l+1] = the carry out of column l.
// q arrives in rdx so the first block's mulx does not wait on a reload;
// later blocks reload it.
inline void row(Limb* t, const Limb* a, const Limb* n, Limb bi, Limb q, std::size_t blocks,
                std::size_t tail) noexcept {
  Limb r0, r1, r2, r3, x, y, ha, hn;
  Limb rdx = q;
  __asm__ volatile(
      "xorl %k[ha], %k[ha]\n\t"
      "xorl %k[hn], %k[hn]\n\t"
      "jmp 2f\n\t"  // jrcxz reaches only 127 bytes: test at the bottom
      "1:\n\t"
      // phase N: r0..r3 = t[0..3] + n[0..3]*q + hn; hn = high limb
      "xorl %k[x], %k[x]\n\t"  // fresh CF = OF = 0, no wait on the last close
      "mulxq 0(%[n]), %[r0], %[x]\n\t"
      "adoxq %[hn], %[r0]\n\t"
      "adcxq 0(%[t]), %[r0]\n\t"
      "mulxq 8(%[n]), %[r1], %[hn]\n\t"
      "adoxq %[x], %[r1]\n\t"
      "adcxq 8(%[t]), %[r1]\n\t"
      "mulxq 16(%[n]), %[r2], %[x]\n\t"
      "adoxq %[hn], %[r2]\n\t"
      "adcxq 16(%[t]), %[r2]\n\t"
      "mulxq 24(%[n]), %[r3], %[hn]\n\t"
      "adoxq %[x], %[r3]\n\t"
      "adcxq 24(%[t]), %[r3]\n\t"
      "movl $0, %k[x]\n\t"
      "adoxq %[x], %[hn]\n\t"
      "adcxq %[x], %[hn]\n\t"
      // phase A: r0..r3 += a[0..3]*bi + ha; ha = high limb
      "movq %[bi], %%rdx\n\t"
      "xorl %k[y], %k[y]\n\t"
      "mulxq 0(%[a]), %[x], %[y]\n\t"
      "adcxq %[x], %[r0]\n\t"
      "adoxq %[ha], %[r0]\n\t"
      "mulxq 8(%[a]), %[x], %[ha]\n\t"
      "adcxq %[x], %[r1]\n\t"
      "adoxq %[y], %[r1]\n\t"
      "mulxq 16(%[a]), %[x], %[y]\n\t"
      "adcxq %[x], %[r2]\n\t"
      "adoxq %[ha], %[r2]\n\t"
      "mulxq 24(%[a]), %[x], %[ha]\n\t"
      "adcxq %[x], %[r3]\n\t"
      "adoxq %[y], %[r3]\n\t"
      "movl $0, %k[x]\n\t"
      "adoxq %[x], %[ha]\n\t"
      "adcxq %[x], %[ha]\n\t"
      "movq %[r0], 0(%[t])\n\t"
      "movq %[r1], 8(%[t])\n\t"
      "movq %[r2], 16(%[t])\n\t"
      "movq %[r3], 24(%[t])\n\t"
      "movq %[q], %%rdx\n\t"
      "leaq 32(%[a]), %[a]\n\t"
      "leaq 32(%[n]), %[n]\n\t"
      "leaq 32(%[t]), %[t]\n\t"
      "leaq -1(%[cnt]), %[cnt]\n\t"
      "2:\n\t"
      "jrcxz 3f\n\t"
      "jmp 1b\n\t"
      "3:\n\t"
      "movq %[tail], %[cnt]\n\t"
      "jmp 5f\n\t"
      "4:\n\t"
      // one column of each phase, each closed into its high limb
      "xorl %k[y], %k[y]\n\t"
      "mulxq (%[n]), %[r0], %[x]\n\t"
      "adoxq %[hn], %[r0]\n\t"
      "adcxq (%[t]), %[r0]\n\t"
      "movl $0, %k[y]\n\t"
      "adoxq %[y], %[x]\n\t"
      "adcxq %[y], %[x]\n\t"
      "movq %[x], %[hn]\n\t"
      "movq %[bi], %%rdx\n\t"
      "xorl %k[y], %k[y]\n\t"
      "mulxq (%[a]), %[x], %[y]\n\t"
      "adcxq %[x], %[r0]\n\t"
      "adoxq %[ha], %[r0]\n\t"
      "movl $0, %k[x]\n\t"
      "adoxq %[x], %[y]\n\t"
      "adcxq %[x], %[y]\n\t"
      "movq %[y], %[ha]\n\t"
      "movq %[r0], (%[t])\n\t"
      "movq %[q], %%rdx\n\t"
      "leaq 8(%[a]), %[a]\n\t"
      "leaq 8(%[n]), %[n]\n\t"
      "leaq 8(%[t]), %[t]\n\t"
      "leaq -1(%[cnt]), %[cnt]\n\t"
      "5:\n\t"
      "jrcxz 6f\n\t"
      "jmp 4b\n\t"
      "6:\n\t"
      // column l: the running value's top limb (at most 1) plus both
      // highs; the carry out (at most 1) starts t[l+1]
      "xorl %k[y], %k[y]\n\t"
      "movq (%[t]), %[x]\n\t"
      "adcxq %[ha], %[x]\n\t"
      "adoxq %[hn], %[x]\n\t"
      "movq %[x], (%[t])\n\t"
      "movl $0, %k[x]\n\t"
      "adcxq %[x], %[y]\n\t"
      "adoxq %[x], %[y]\n\t"
      "movq %[y], 8(%[t])\n\t"
      : [t] "+r"(t), [a] "+r"(a), [n] "+r"(n), [cnt] "+c"(blocks), [ha] "=&r"(ha),
        [hn] "=&r"(hn), [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2), [r3] "=&r"(r3),
        [x] "=&r"(x), [y] "=&r"(y), "+d"(rdx)
      : [bi] "m"(bi), [q] "m"(q), [tail] "m"(tail)
      : "cc", "memory");
}

}  // namespace

bool available() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
}

void mul_rows(Limb* t, const Limb* a, const Limb* b, const Limb* n, Limb n0_inv,
              std::size_t l) noexcept {
  std::fill_n(t, l + 1, Limb{0});
  for (std::size_t i = 0; i < l; ++i) {
    const Limb bi = b[i];
    row(t + i, a, n, bi, (t[i] + a[0] * bi) * n0_inv, l / 4, l % 4);
  }
}

}  // namespace keyguard::bn::mont::adx

#endif  // KEYGUARD_MONT_ADX
