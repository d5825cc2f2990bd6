#include "util/rng.hpp"

namespace keyguard::util {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's method: multiply into a 128-bit product; reject the small
  // biased fringe so every residue is equally likely.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() noexcept {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_gaussian() noexcept {
  double sum = 0.0;
  for (int i = 0; i < 12; ++i) sum += next_double();
  return sum - 6.0;
}

void Rng::fill_bytes(std::span<std::byte> out) noexcept {
  // Step a local copy: a byte store may alias state_, so stepping the
  // member would reload and store all four state words per output word.
  Rng g = *this;
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    std::uint64_t w = g.next_u64();
    for (int b = 0; b < 8; ++b) out[i++] = static_cast<std::byte>(w >> (8 * b));
  }
  if (i < out.size()) {
    std::uint64_t w = g.next_u64();
    for (; i < out.size(); ++i) {
      out[i] = static_cast<std::byte>(w);
      w >>= 8;
    }
  }
  *this = g;
}

Rng Rng::split() noexcept { return Rng(next_u64()); }

}  // namespace keyguard::util
