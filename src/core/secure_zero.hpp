// Guaranteed zeroization.
//
// A plain memset before free() is routinely elided by optimizing compilers
// (dead-store elimination) — one of the reasons the "clear sensitive data
// promptly" best practice the paper cites was so rarely effective in
// shipped binaries. secure_zero() runs memset and then a compiler barrier
// that takes the pointer and clobbers memory, so the stores cannot be
// removed (volatile byte stores where the barrier is unavailable). This is
// the host-side primitive backing everything in keyguard::secure
// (equivalent in intent to memset_s / explicit_bzero / OPENSSL_cleanse).
#pragma once

#include <cstddef>
#include <span>

namespace keyguard::secure {

/// Zeroes [p, p+n) with stores the optimizer cannot elide.
void secure_zero(void* p, std::size_t n) noexcept;

/// Span convenience.
inline void secure_zero(std::span<std::byte> s) noexcept {
  secure_zero(s.data(), s.size());
}

/// Zeroes the vector register file: vzeroall where the CPU has AVX (and
/// zmm16-31 where it has AVX-512F), SSE pxor of xmm0-15 otherwise, and
/// nothing off x86-64. A kernel that held key material in vector
/// registers calls it before it returns: otherwise the next save of the
/// register file writes that material to the stack (the first call
/// through a lazily bound PLT slot runs ld.so's trampoline, which XSAVEs
/// every vector register there).
void clear_vector_registers() noexcept;

/// Constant-time comparison (no early exit on first mismatch), for
/// comparing secrets without a timing side channel.
bool constant_time_equal(std::span<const std::byte> a,
                         std::span<const std::byte> b) noexcept;

}  // namespace keyguard::secure
