// Simulated physical memory.
//
// The reproduction's stand-in for the paper's 256 MB testbed RAM: a flat
// byte array divided into 4 KB frames. All simulated processes, the page
// cache, and kernel buffers live in here, so a linear scan of this array is
// exactly what the paper's scanmemory LKM performed, and the two disclosure
// attacks read byte ranges straight out of it.
//
// It also keeps one bit per frame, set by every access that can write the
// frame (the mutable page() and fill()) and cleared by clear_page(). A
// frame whose bit is clear is all zero — the state every frame boots in —
// so a full scan reads only the written frames (scan/settle.hpp,
// written_runs). Reads go through the const overloads and mark nothing.
//
// The byte array boots zero-filled in the lazy sense (util::ZeroedArray):
// like a real kernel's, a frame costs resident memory only once something
// writes it, so a machine's resident cost is the frames it has ever
// written, not its configured size. Reading an unwritten frame reads the host's shared zero
// page and commits nothing, and clear_page() of a frame whose bit is clear
// skips the memset, so clearing a zero frame never commits it either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/taint.hpp"
#include "util/zeroed_array.hpp"

namespace keyguard::sim {

inline constexpr std::size_t kPageSize = 4096;

/// Physical frame number (frame * kPageSize = physical byte address).
using FrameNumber = std::uint32_t;

/// Who currently owns a frame. The scanner classifies matches with this:
/// Free frames are the paper's "unallocated memory", everything else is
/// "allocated memory" (user heap, page cache, or kernel buffers).
enum class FrameState : std::uint8_t {
  kFree,       // on the allocator's free lists
  kUserAnon,   // mapped into one or more process address spaces
  kPageCache,  // caches file contents (the PEM key file lives here)
  kKernel,     // kernel buffer (e.g. the ext2 directory blocks the leak uses)
};

/// Human-readable state name for reports.
const char* frame_state_name(FrameState s) noexcept;

class PhysicalMemory {
 public:
  /// Rounds `bytes` down to whole pages; at least one page.
  explicit PhysicalMemory(std::size_t bytes);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  std::size_t size_bytes() const noexcept { return bytes_.size(); }
  std::size_t page_count() const noexcept { return bytes_.size() / kPageSize; }

  /// Mutable view of one frame, for writing: marks the frame written.
  /// Readers go through the const overload (std::as_const on a mutable
  /// memory), which marks nothing.
  std::span<std::byte> page(FrameNumber frame) noexcept;
  std::span<const std::byte> page(FrameNumber frame) const noexcept;

  /// The whole physical address space (what the scanner walks).
  std::span<const std::byte> all() const noexcept { return bytes_.span(); }

  /// Byte range [offset, offset+len); clamped to the end of memory.
  std::span<const std::byte> range(std::size_t offset, std::size_t len) const noexcept;

  /// Zero-fills one frame (clear_highpage in the paper's patches), clears
  /// its written bit, and clears its shadow taint when a tracker is
  /// attached. A frame whose written bit is already clear is all zero, so
  /// its memset is skipped (counted as kernel.pages_clear_skipped beside
  /// kernel.pages_cleared) and the frame stays uncommitted.
  void clear_page(FrameNumber frame) noexcept;

  /// memset over part of a frame through the taint hook (kernel code that
  /// initialises buffers in place, e.g. ext2_make_empty's "."/".." header,
  /// goes through here so the overwritten shadow bytes are cleared too).
  void fill(FrameNumber frame, std::size_t offset, std::size_t len, std::byte value);

  /// One bit per frame (bit f % 64 of word f / 64), set once the frame may
  /// hold a non-zero byte. Clear bits are exact: that frame is all zero.
  /// Set bits are conservative (a write of zeros still marks).
  std::span<const std::uint64_t> written_bitmap() const noexcept { return written_; }
  /// Frames whose written bit is set, published as the sim.written_frames
  /// gauge by every kernel sweep. Each is resident; so is a frame zeroed
  /// by clear_page after a write, so this counts resident frames from
  /// below.
  std::size_t written_frames() const noexcept;

  /// Shadow-taint observer for every clear/fill on this memory. Null (the
  /// default) disables tracking; the Kernel fans the tracker out to the
  /// swap device as well via Kernel::attach_taint.
  void set_taint_tracker(TaintTracker* t) noexcept { taint_ = t; }
  TaintTracker* taint() const noexcept { return taint_; }

 private:
  util::ZeroedArray<std::byte> bytes_;
  std::vector<std::uint64_t> written_;  // 1 bit per frame, 8 KB per 256 MB
  TaintTracker* taint_ = nullptr;
};

}  // namespace keyguard::sim
