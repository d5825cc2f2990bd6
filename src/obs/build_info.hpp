// Build provenance stamped into every JSON report and printable as a
// one-line banner (`scanmemory_tool --version`). A Fig. 5/6 number that
// cannot be traced back to the compiler + sanitizer that produced it is
// not reproducible, so the stamp rides along everywhere.
#pragma once

#include <string>

namespace keyguard::util {
class JsonWriter;
}

namespace keyguard::obs {
namespace build_info {

/// Project version (CMake PROJECT_VERSION), e.g. "1.0.0".
const char* version();
/// Compiler id + version, e.g. "gcc 13.2.0" / "clang 17.0.6".
std::string compiler();
/// KEYGUARD_SANITIZE value at configure time, or "none".
const char* sanitizer();
/// "debug" or "release" (NDEBUG).
const char* build_type();
/// "adx+ifma", "adx" or "portable": the Montgomery kernels CPUID picked
/// for this process (bn::mont::kernel_name()), i.e. which arithmetic ran.
const char* mont_kernel();
/// "sha_ni" or "portable": the SHA-256 compression kernel CPUID picked
/// (crypto::sha256_kernel_name()), i.e. what every unseal hashed on.
const char* sha256_kernel();
/// "keyguard <version> | <compiler> | sanitizer=<san> | <type> |
/// mont_kernel=<kernel> | sha256_kernel=<kernel>".
std::string one_line();

/// Emits the build object *value* {"version":...,"compiler":...,
/// "sanitizer":...,"build_type":...,"mont_kernel":...,
/// "sha256_kernel":...} — caller supplies the key.
void write(util::JsonWriter& w);

}  // namespace build_info
}  // namespace keyguard::obs
