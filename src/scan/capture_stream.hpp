// Streaming capture ingestion.
//
// PR 2's scan_capture takes the whole disclosure as one in-memory span —
// fine for the paper's 256 MB machine, ruinous for the multi-GB captures
// a modern cold-boot or hibernation-file grab produces (loading the file
// first means peak RSS == file size). CaptureStream walks the file in
// bounded windows instead: each window's payload is scanned with a
// seam-overlap view of `max_needle_len - 1` extra bytes into the NEXT
// window — the exact rule a shard seam follows — and a hit is attributed
// to the window containing its FIRST byte. Concatenating per-window
// results therefore reproduces the one-shot scan bit-for-bit (the prefix
// path's extend-while-agreeing loop also exactly fits: a match starting
// in the payload ends at most max_needle_len - 1 bytes past it, the last
// byte of the overlap view). tests/scan_stream_test.cpp enforces the
// equivalence with needles ending at every window boundary.
//
// Resident memory stays O(window): the file is mmap'd (PROT_READ,
// MAP_PRIVATE, MADV_SEQUENTIAL) and fully-consumed pages are released
// with MADV_DONTNEED as the walk advances; where mmap is unavailable (or
// KEYGUARD_CAPTURE_MMAP=0 forces it) a pread loop into one reused
// window+overlap buffer does the same job. The walk covers the size seen
// at open: a file that grows later is read only that far, and one that
// shrinks below the next window refuses it (ok() false, error() names
// the shrink) rather than handing out mapped pages past the end. A
// truncation that lands while the caller is still reading a window it
// already holds is not caught. bench_scan_throughput's
// streaming phase gates the RSS bound against a capture several times the
// simulated RAM size.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace keyguard::scan {

/// One window of the capture: `bytes` views the payload plus the seam
/// overlap into the next window; only matches whose first byte lies in
/// the first `payload` bytes belong to this window. `offset` is the file
/// offset of bytes[0] — add it to rebase window-local match offsets.
struct CaptureWindow {
  std::span<const std::byte> bytes;
  std::size_t payload = 0;
  std::size_t offset = 0;
};

class CaptureStream {
 public:
  /// 64 MiB — large enough that per-window scan startup is noise, small
  /// enough that peak RSS stays far below multi-GB capture sizes.
  static constexpr std::size_t kDefaultWindowBytes = 64u * 1024 * 1024;

  /// Opens `path` read-only and picks the access mode. Never throws:
  /// check ok() before use. window_bytes == 0 selects the default.
  explicit CaptureStream(const std::string& path,
                         std::size_t window_bytes = kDefaultWindowBytes);
  ~CaptureStream();
  CaptureStream(const CaptureStream&) = delete;
  CaptureStream& operator=(const CaptureStream&) = delete;

  bool ok() const noexcept { return ok_; }
  /// Human-readable reason when !ok() — open/stat/read failure + errno.
  const std::string& error() const noexcept { return error_; }

  std::size_t size() const noexcept { return size_; }
  std::size_t window_bytes() const noexcept { return window_; }
  /// True when the file is mmap'd; false on the pread fallback path.
  bool mapped() const noexcept { return map_ != nullptr; }

  /// Rewinds to the start of the file and fixes the seam overlap for the
  /// walk that follows (`reach` == max_needle_len - 1). Must be called
  /// before next(); calling it again restarts the walk.
  void rewind(std::size_t reach);

  /// Returns the next window, or nullopt at end-of-file (or on a read
  /// error — distinguish via ok()). The returned view is valid only
  /// until the NEXT next()/rewind() call: advancing releases the
  /// previous window's pages (mmap) or recycles the buffer (pread).
  std::optional<CaptureWindow> next();

 private:
  void drop_consumed(std::size_t keep_from);

  int fd_ = -1;
  std::size_t size_ = 0;
  std::size_t window_ = kDefaultWindowBytes;
  bool ok_ = false;
  std::string error_;

  const std::byte* map_ = nullptr;  ///< non-null in mmap mode
  std::size_t dropped_ = 0;         ///< mmap bytes already MADV_DONTNEED'd

  std::vector<std::byte> buffer_;  ///< pread mode: payload + overlap

  std::size_t reach_ = 0;
  std::size_t offset_ = 0;         ///< payload start of the current window
  std::size_t prev_view_ = 0;      ///< last view length
  std::size_t prev_payload_ = 0;   ///< last payload (advance amount)
  std::size_t carry_ = 0;          ///< pread mode: overlap bytes kept in buffer_
  bool started_ = false;
};

}  // namespace keyguard::scan
