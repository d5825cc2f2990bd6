#include "support/legacy_scan.hpp"

#include <algorithm>

#include "util/bytes.hpp"

namespace keyguard::scan {

void legacy_scan(std::span<const std::byte> buffer, std::size_t begin,
                 std::size_t end, std::size_t window_end,
                 std::span<const std::span<const std::byte>> needles,
                 std::size_t min_prefix_bytes, std::vector<RawMatch>& out) {
  if (begin >= end) return;
  const std::size_t base = out.size();
  const auto window = buffer.subspan(begin, window_end - begin);
  std::vector<std::size_t> hits;  // reused across needles, one allocation
  for (std::size_t pi = 0; pi < needles.size(); ++pi) {
    const auto needle = needles[pi];
    if (needle.empty()) continue;
    if (min_prefix_bytes == 0) {
      util::find_all_into(window, needle, hits);
      for (const std::size_t local : hits) {
        const std::size_t offset = begin + local;
        if (offset >= end) break;  // first byte in the next window's payload
        out.push_back({offset, pi, needle.size(), true});
      }
    } else {
      if (needle.size() < min_prefix_bytes) continue;
      const auto prefix = needle.first(min_prefix_bytes);
      util::find_all_into(window, prefix, hits);
      for (const std::size_t local : hits) {
        const std::size_t offset = begin + local;
        if (offset >= end) break;
        // Extend while the needle keeps agreeing (the LKM compared the
        // first words, then as many following words as matched). The
        // overlap window is sized so extension is never cut short at a
        // seam — only the true end of the buffer can truncate it.
        std::size_t len = min_prefix_bytes;
        while (len < needle.size() && local + len < window.size() &&
               window[local + len] == needle[len]) {
          ++len;
        }
        out.push_back({offset, pi, len, len == needle.size()});
      }
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(),
            [](const RawMatch& a, const RawMatch& b) {
              return a.offset != b.offset ? a.offset < b.offset
                                          : a.pattern_index < b.pattern_index;
            });
}

std::vector<RawMatch> legacy_scan(std::span<const std::byte> buffer,
                                  std::span<const std::span<const std::byte>> needles,
                                  std::size_t min_prefix_bytes) {
  std::vector<RawMatch> out;
  legacy_scan(buffer, 0, buffer.size(), buffer.size(), needles,
              min_prefix_bytes, out);
  return out;
}

}  // namespace keyguard::scan
