#include "scan/capture_stream.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "util/flags.hpp"

namespace keyguard::scan {

namespace {

std::size_t page_bytes() {
  static const std::size_t cached = [] {
    const long v = ::sysconf(_SC_PAGESIZE);
    return v > 0 ? static_cast<std::size_t>(v) : std::size_t{4096};
  }();
  return cached;
}

std::string errno_message(const char* what, const std::string& path) {
  std::string msg = what;
  msg += " ";
  msg += path;
  msg += ": ";
  msg += std::strerror(errno);
  return msg;
}

}  // namespace

CaptureStream::CaptureStream(const std::string& path, std::size_t window_bytes)
    : window_(window_bytes > 0 ? window_bytes : kDefaultWindowBytes) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd_ < 0) {
    error_ = errno_message("open", path);
    return;
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    error_ = errno_message("stat", path);
    return;
  }
  size_ = static_cast<std::size_t>(st.st_size);
  ok_ = true;
  // mmap unless the file is empty or the caller opted out; any mmap
  // failure (32-bit address space, weird filesystem) silently selects the
  // pread path — both produce identical windows.
  const bool want_mmap = util::env_int("KEYGUARD_CAPTURE_MMAP", 1) != 0;
  if (size_ > 0 && want_mmap) {
    void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (m != MAP_FAILED) {
      map_ = static_cast<const std::byte*>(m);
      ::madvise(m, size_, MADV_SEQUENTIAL);
    }
  }
}

CaptureStream::~CaptureStream() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::byte*>(map_), size_);  // NOLINT(cppcoreguidelines-pro-type-const-cast)
  }
  if (fd_ >= 0) ::close(fd_);
}

void CaptureStream::rewind(std::size_t reach) {
  reach_ = reach;
  offset_ = 0;
  prev_view_ = 0;
  prev_payload_ = 0;
  carry_ = 0;
  started_ = false;
  // Pages released by drop-behind refetch from the file on access (the
  // mapping is read-only MAP_PRIVATE), so restarting is just a rewind.
  dropped_ = 0;
}

void CaptureStream::drop_consumed(std::size_t keep_from) {
  if (map_ == nullptr) return;
  const std::size_t floor = keep_from - keep_from % page_bytes();
  if (floor <= dropped_) return;
  // Consumed pages go back to the kernel immediately instead of waiting
  // for reclaim — this is what bounds peak RSS to O(window) even when the
  // capture dwarfs physical memory.
  ::madvise(const_cast<std::byte*>(map_) + dropped_, floor - dropped_,  // NOLINT(cppcoreguidelines-pro-type-const-cast)
            MADV_DONTNEED);
  dropped_ = floor;
}

std::optional<CaptureWindow> CaptureStream::next() {
  if (!ok_) return std::nullopt;
  if (started_) {
    // Consume the previous window: its payload is done; the overlap tail
    // belongs to the window we are about to produce.
    carry_ = prev_view_ - prev_payload_;
    if (map_ == nullptr && carry_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + prev_payload_, carry_);
    }
    offset_ += prev_payload_;
    drop_consumed(offset_);
  }
  if (offset_ >= size_) return std::nullopt;
  started_ = true;
  const std::size_t payload = std::min(window_, size_ - offset_);
  const std::size_t view = std::min(size_ - offset_, payload + reach_);
  CaptureWindow w;
  w.payload = payload;
  w.offset = offset_;
  if (map_ != nullptr) {
    // A mapped page past the file's current end raises SIGBUS on touch:
    // refuse a window the file no longer covers, as the pread path does.
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      error_ = errno_message("stat", "capture");
      ok_ = false;
      return std::nullopt;
    }
    if (static_cast<std::size_t>(st.st_size) < offset_ + view) {
      error_ = "read capture: file shrank to " + std::to_string(st.st_size) + " of " +
               std::to_string(size_) + " bytes";
      ok_ = false;
      return std::nullopt;
    }
    w.bytes = {map_ + offset_, view};
  } else {
    buffer_.resize(std::max(buffer_.size(), view));
    std::size_t have = carry_;  // bytes [offset_, offset_ + carry_) kept
    while (have < view) {
      const ssize_t n =
          ::pread(fd_, buffer_.data() + have, view - have,
                  static_cast<off_t>(offset_ + have));
      if (n < 0) {
        if (errno == EINTR) continue;
        error_ = errno_message("read", "capture");
        ok_ = false;
        return std::nullopt;
      }
      if (n == 0) {
        error_ = "read capture: unexpected end of file (file shrank below " +
                 std::to_string(size_) + " bytes)";
        ok_ = false;
        return std::nullopt;
      }
      have += static_cast<std::size_t>(n);
    }
    w.bytes = {buffer_.data(), view};
  }
  prev_view_ = view;
  prev_payload_ = payload;
  return w;
}

}  // namespace keyguard::scan
