#include "scan/settle.hpp"

#include <algorithm>
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

std::size_t settle(std::span<const std::byte> buffer, const MultiMatcher& mm,
                   std::span<const ByteRun> changed,
                   std::vector<RawMatch>& live, std::vector<RawMatch>* gone,
                   std::vector<RawMatch>* born,
                   std::vector<ShardStats>* windows) {
  const std::size_t reach =
      mm.max_needle_len() > 0 ? mm.max_needle_len() - 1 : 0;
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

  // Widen each run by reach to the left; a run whose widened start falls
  // inside (or right at the end of) the open window extends it. Runs
  // ascend, so windows come out disjoint and ascending.
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool open = false;
  for (const ByteRun& run : changed) {
    const std::size_t run_hi = std::min(run.hi, buffer.size());
    if (run.lo >= run_hi) continue;
    const std::size_t run_lo = run.lo > reach ? run.lo - reach : 0;
    if (open && run_lo <= hi) {
      hi = std::max(hi, run_hi);
      continue;
    }
    if (open) rescan(lo, hi);
    lo = run_lo;
    hi = run_hi;
    open = true;
  }
  if (open) rescan(lo, hi);

  if (rebuilding) {
    next.insert(next.end(), live.begin() + kept, live.end());
    live.swap(next);
  }
  return rescanned;
}

}  // namespace keyguard::scan
