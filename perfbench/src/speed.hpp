// Machine-speed normalization.
//
// The 4-vCPU VM the benchmark was defined on switches between speed states
// for seconds at a time when the physical core's other tenant is busy: a
// sni request took ~620 us in one run and ~1150 us in the next, the same
// seed; steal time stayed ~0 and a register-only integer loop stayed
// within +-5%, so it is contention for the core, not frequency. Raw wall
// times therefore spread far wider between runs than any regression bound
// worth having.
//
// A benchmark-owned reference kernel slows down with the machine. Every
// measured block is bracketed by kernel readings (the reading after one
// block opens the next); the block's durations are multiplied by the mean
// of its two readings, reference / observed, which expresses them in
// "reference-machine" time. A block whose two readings disagree by more
// than kMaxDrift straddled a change of state and is left out of the
// timing figures (its operations still count as attempted, and are still
// checked). The kernels are fixed code inside the benchmark, so no change
// to the library can move them; only the machine does.
//
//   kCompute  8x8-limb schoolbook multiply-accumulate: throughput-bound
//             integer work with the bignum layer's instruction mix (the
//             ssh, sni and host workloads spend most of their time there).
//   kStream   memchr over a buffer larger than the last-level cache: the
//             memory-bandwidth-bound shape of a physical-memory sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class SpeedKernel { kCompute, kStream };

/// Factor for one bracketed block.
struct Bracket {
  double factor = 1.0;  ///< mean of the readings either side
  bool steady = false;  ///< readings within kMaxDrift of each other
};

class SpeedGauge {
 public:
  /// Largest |ln(before / after)| of a steady block.
  static constexpr double kMaxDrift = 0.15;

  explicit SpeedGauge(SpeedKernel kind);

  /// Takes the reading that opens the next block.
  void open();

  /// Takes the reading that closes the block measured since the last
  /// open() or bracket() (and opens the next one). Needs an open() first.
  Bracket bracket();

  std::uint64_t blocks() const noexcept { return blocks_; }
  std::uint64_t unsteady() const noexcept { return unsteady_; }

 private:
  /// reference / observed kernel time, median of a few runs.
  double read();
  double run_once_seconds();

  SpeedKernel kind_;
  std::vector<unsigned char> buffer_;  // kStream only
  double last_ = 1.0;                  // the reading that opened the block
  std::uint64_t blocks_ = 0;
  std::uint64_t unsteady_ = 0;
};

}  // namespace perfbench
