#include "speed.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "harness.hpp"

namespace perfbench {

namespace {

constexpr int kComputeSamples = 5;
constexpr int kStreamSamples = 1;
constexpr std::size_t kStreamBytes = 32ull << 20;

/// Typical kernel durations on a 4-vCPU 2.1 GHz Xeon VM (gcc 12 -O3). They
/// define the unit "reference-machine time"; only their constancy matters.
constexpr double kComputeRefSeconds = 100e-6;
constexpr double kStreamRefSeconds = 3.3e-3;

volatile std::uint64_t g_sink;

/// 1000 rounds of an 8x8-limb schoolbook product folded back into A.
void compute_kernel() {
  std::uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint64_t b[8] = {0x9e3779b97f4a7c15ULL, 0xd6e8feb86659fd93ULL, 3, 5,
                              0xff51afd7ed558ccdULL, 7, 11, 0xc4ceb9fe1a85ec53ULL};
  std::uint64_t r[16];
  for (int rep = 0; rep < 1000; ++rep) {
    std::memset(r, 0, sizeof r);
    for (int i = 0; i < 8; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < 8; ++j) {
        carry += static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j];
        r[i + j] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
      r[i + 8] = static_cast<std::uint64_t>(carry);
    }
    for (int i = 0; i < 8; ++i) a[i] = r[i] ^ r[i + 8] ^ static_cast<std::uint64_t>(rep);
  }
  g_sink = a[0];
}

}  // namespace

SpeedGauge::SpeedGauge(SpeedKernel kind) : kind_(kind) {
  if (kind_ == SpeedKernel::kStream) {
    // No 0xff byte anywhere: memchr walks the whole buffer.
    buffer_.resize(kStreamBytes);
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      buffer_[i] = static_cast<unsigned char>((i * 131) % 255);
    }
  }
}

double SpeedGauge::run_once_seconds() {
  const auto t0 = Clock::now();
  if (kind_ == SpeedKernel::kCompute) {
    compute_kernel();
  } else {
    g_sink = reinterpret_cast<std::uintptr_t>(std::memchr(buffer_.data(), 0xff, buffer_.size()));
  }
  return seconds_since(t0);
}

double SpeedGauge::read() {
  std::vector<double> secs;
  const int n = kind_ == SpeedKernel::kCompute ? kComputeSamples : kStreamSamples;
  for (int i = 0; i < n; ++i) secs.push_back(run_once_seconds());
  const double ref =
      kind_ == SpeedKernel::kCompute ? kComputeRefSeconds : kStreamRefSeconds;
  return ref / median(secs);
}

void SpeedGauge::open() { last_ = read(); }

Bracket SpeedGauge::bracket() {
  const double before = last_;
  last_ = read();
  ++blocks_;
  const Bracket b{0.5 * (before + last_), std::fabs(std::log(before / last_)) <= kMaxDrift};
  if (!b.steady) ++unsteady_;
  return b;
}

}  // namespace perfbench
