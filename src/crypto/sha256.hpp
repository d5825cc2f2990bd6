// SHA-256 (FIPS 180-4).
//
// Used for the KSB1 keystream, the KSB2 MAC and keystream and the sim
// pool's page keystreams (every unseal runs through it), for key
// fingerprints, deterministic session-key derivation in the simulated
// handshakes, and content digests in tests.
//
// The compression function runs on one of two kernels, picked once per
// process by CPUID and named by sha256_kernel_name(): the x86 SHA
// extensions (sha256rnds2, sha256msg1, sha256msg2) when the CPU has them,
// else the portable loop. `portable::sha256_compress` always runs the
// latter; it is the tests' oracle. Both give bit-identical digests.
//
// The inputs are often secrets (master || nonce || i, the domain secret
// || 'C'/'M' || ...), so no transient keeps them: finish() wipes the block
// buffer and the chaining state, the portable kernel wipes its message
// schedule, and both kernels clear the vector registers before they
// return.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace keyguard::crypto {

/// The eight 32-bit chaining words.
using Sha256State = std::array<std::uint32_t, 8>;

/// Runs the compression function over whole 64-byte blocks (blocks.size()
/// a multiple of 64) on the kernel sha256_kernel_name() names.
void sha256_compress(Sha256State& state, std::span<const std::byte> blocks) noexcept;

/// "sha_ni" or "portable": the compression kernel CPUID picked for this
/// process.
const char* sha256_kernel_name() noexcept;

namespace portable {
/// The portable compression loop, on every CPU.
void sha256_compress(Sha256State& state, std::span<const std::byte> blocks) noexcept;
}  // namespace portable

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::byte, kDigestSize>;

  Sha256();

  /// Absorbs more input; may be called repeatedly.
  void update(std::span<const std::byte> data);

  /// Finalizes, wipes the buffered input and the chaining state, and
  /// returns the digest; the object must not be reused after.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(std::span<const std::byte> data);

  /// One-shot over a string.
  static Digest hash_str(std::string_view s);

 private:
  Sha256State state_;
  std::array<std::byte, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Hex rendering of a digest.
std::string digest_hex(const Sha256::Digest& d);

}  // namespace keyguard::crypto
