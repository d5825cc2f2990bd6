// The x86-64 ADX/BMI2 Montgomery row kernel (internal to src/bignum).
//
// montgomery.cpp selects it once per process by CPUID and runs the
// portable u128 kernel everywhere else; nothing outside src/bignum sees
// this header. Only the CIOS rows live here: the masked final subtract,
// the squaring entry point and everything built on mul stay in
// montgomery.cpp, shared by both kernels.
#pragma once

#include <cstddef>

#include "bignum/bignum.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KEYGUARD_MONT_ADX 1
#else
#define KEYGUARD_MONT_ADX 0
#endif

#if KEYGUARD_MONT_ADX
namespace keyguard::bn::mont::adx {

/// True when the CPU reports both ADX (adcx/adox) and BMI2 (mulx).
bool available() noexcept;

/// The Montgomery rows of a*b for an odd n of l limbs: on return
/// t[l..2l] (l + 1 limbs) holds (a*b + q*n) / 2^(64l) < 2n, for a*b < R*n.
/// t is 2l + 1 limbs of caller scratch and the only memory written; a and
/// b are only read, so the caller's result may alias either.
void mul_rows(Limb* t, const Limb* a, const Limb* b, const Limb* n, Limb n0_inv,
              std::size_t l) noexcept;

}  // namespace keyguard::bn::mont::adx
#endif
