#include "scan/settle.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iterator>

namespace keyguard::scan {

namespace {

bool before(const RawMatch& a, const RawMatch& b) {
  return a.offset != b.offset ? a.offset < b.offset
                              : a.pattern_index < b.pattern_index;
}

bool same(const RawMatch& a, const RawMatch& b) {
  return a.offset == b.offset && a.pattern_index == b.pattern_index;
}

}  // namespace

void widen_runs(std::span<const ByteRun> changed, std::size_t reach,
                std::size_t size, std::vector<ByteRun>& windows) {
  windows.clear();
  for (const ByteRun& run : changed) {
    const std::size_t run_hi = std::min(run.hi, size);
    if (run.lo >= run_hi) continue;
    const std::size_t run_lo = run.lo > reach ? run.lo - reach : 0;
    if (!windows.empty() && run_lo <= windows.back().hi) {
      windows.back().hi = std::max(windows.back().hi, run_hi);
    } else {
      windows.push_back({run_lo, run_hi});
    }
  }
}

std::vector<ByteRun> written_runs(std::span<const std::uint64_t> frames,
                                  std::size_t frame_bytes, std::size_t size,
                                  const MultiMatcher& mm) {
  if (mm.matches_zeros()) return {{0, size}};
  std::vector<ByteRun> runs;
  // A word at a time: countr_zero finds where a run of set bits starts,
  // countr_zero of the complement where it stops. A run still open at
  // bit 63 continues into the next word.
  bool open = false;
  std::size_t start = 0;
  for (std::size_t w = 0; w < frames.size(); ++w) {
    std::uint64_t bits = frames[w];
    std::size_t at = 0;
    while (true) {
      if (!open) {
        if (bits == 0) break;
        at = static_cast<std::size_t>(std::countr_zero(bits));
        start = w * 64 + at;
        open = true;
      }
      const std::uint64_t clear_above = ~bits >> at;  // at < 64 here
      if (clear_above == 0) break;  // set through bit 63
      at += static_cast<std::size_t>(std::countr_zero(clear_above));
      runs.push_back({start * frame_bytes, std::min(size, (w * 64 + at) * frame_bytes)});
      open = false;
      bits &= ~std::uint64_t{0} << at;  // at <= 63: a clear bit was found
    }
  }
  if (open) runs.push_back({start * frame_bytes, size});
  return runs;
}

std::size_t settle(std::span<const std::byte> buffer, const MultiMatcher& mm,
                   std::span<const ByteRun> changed,
                   std::vector<RawMatch>& live, std::vector<RawMatch>* gone,
                   std::vector<RawMatch>* born,
                   std::vector<ShardStats>* windows) {
  const std::size_t reach = mm.reach();
  // Reused across calls so a window that changes nothing allocates nothing.
  static thread_local std::vector<RawMatch> fresh;
  std::vector<RawMatch> next;  // started by the first window that differs
  bool rebuilding = false;
  std::size_t kept = 0;  // live[0, kept) is already accounted for in next
  std::size_t rescanned = 0;

  const auto rescan = [&](std::size_t lo, std::size_t hi) {
    const auto t0 = windows != nullptr ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point{};
    fresh.clear();
    mm.scan(buffer, lo, hi, std::min(buffer.size(), hi + reach), fresh);
    rescanned += hi - lo;
    if (windows != nullptr) {
      const double ms = std::max(
          0.0, std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
      windows->push_back({windows->size(), lo, hi - lo, fresh.size(), ms});
    }
    const auto by_offset = [](const RawMatch& m, std::size_t off) {
      return m.offset < off;
    };
    const auto first =
        std::lower_bound(live.begin() + kept, live.end(), lo, by_offset);
    const auto last = std::lower_bound(first, live.end(), hi, by_offset);
    if (std::equal(first, last, fresh.begin(), fresh.end(), same)) return;
    if (gone != nullptr) {
      std::set_difference(first, last, fresh.begin(), fresh.end(),
                          std::back_inserter(*gone), before);
    }
    if (born != nullptr) {
      std::set_difference(fresh.begin(), fresh.end(), first, last,
                          std::back_inserter(*born), before);
    }
    if (!rebuilding) {
      next.reserve(live.size() + fresh.size());
      rebuilding = true;
    }
    next.insert(next.end(), live.begin() + kept, first);
    next.insert(next.end(), fresh.begin(), fresh.end());
    kept = static_cast<std::size_t>(last - live.begin());
  };

  // Windows come out disjoint and ascending; the list is reused across
  // calls like `fresh`.
  static thread_local std::vector<ByteRun> windows_of_change;
  widen_runs(changed, reach, buffer.size(), windows_of_change);
  for (const ByteRun& w : windows_of_change) rescan(w.lo, w.hi);

  if (rebuilding) {
    next.insert(next.end(), live.begin() + kept, live.end());
    live.swap(next);
  }
  return rescanned;
}

}  // namespace keyguard::scan
