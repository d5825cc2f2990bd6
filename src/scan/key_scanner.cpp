#include "scan/key_scanner.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "crypto/pem.hpp"
#include "obs/metrics.hpp"
#include "scan/capture_stream.hpp"
#include "scan/multi_matcher.hpp"
#include "sslsim/ssl_library.hpp"
#include "util/bytes.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace keyguard::scan {

namespace {

std::string describe_match(const sim::Kernel& kernel, const MemoryMatch& m) {
  switch (m.state) {
    case sim::FrameState::kFree:
      return "unallocated residue";
    case sim::FrameState::kPageCache:
      return "page cache";
    case sim::FrameState::kKernel:
      return "kernel buffer";
    case sim::FrameState::kUserAnon:
      break;
  }
  // Resolve through the first owning process's address space.
  for (const auto pid : m.owners) {
    const auto* proc = kernel.find_process(pid);
    if (proc == nullptr) continue;
    const auto vpage = kernel.virt_of_frame(*proc, m.frame);
    if (!vpage) continue;
    const auto desc =
        kernel.describe_address(*proc, *vpage + m.phys_offset % sim::kPageSize);
    if (desc) return *desc;
  }
  return "user memory";
}

}  // namespace

KeyPatterns KeyPatterns::from_key(const crypto::RsaPrivateKey& key) {
  KeyPatterns out;
  out.patterns.push_back({"d", sslsim::SslLibrary::limb_image(key.d)});
  out.patterns.push_back({"P", sslsim::SslLibrary::limb_image(key.p)});
  out.patterns.push_back({"Q", sslsim::SslLibrary::limb_image(key.q)});
  out.patterns.push_back({"PEM", util::to_bytes(crypto::pem_encode_private_key(key))});
  return out;
}

KeyPatterns KeyPatterns::from_keys(std::span<const crypto::RsaPrivateKey> keys) {
  KeyPatterns out;
  out.patterns.reserve(keys.size() * 4);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto one = from_key(keys[i]);
    for (auto& p : one.patterns) {
      p.name += "#" + std::to_string(i);
      out.patterns.push_back(std::move(p));
    }
  }
  return out;
}

std::vector<std::span<const std::byte>> KeyScanner::needles() const {
  std::vector<std::span<const std::byte>> out;
  out.reserve(patterns_.patterns.size());
  for (const auto& p : patterns_.patterns) out.emplace_back(p.bytes);
  return out;
}

std::size_t KeyScanner::effective_shards() const {
  if (shards_ != 0) return shards_;
  const auto env = util::env_int("KEYGUARD_SCAN_THREADS", 0);
  if (env > 0) return static_cast<std::size_t>(env);
  return util::ThreadPool::shared().size() + 1;  // workers + calling thread
}

std::vector<MemoryMatch> KeyScanner::resolve_raw(
    const sim::Kernel& kernel, std::span<const RawMatch> raw) const {
  // Metadata is resolved on the calling thread from a single-pass
  // snapshot, so the allocator is never read concurrently — and it is
  // resolved EVERY sweep, because frame state and owners change without
  // any byte changing (fork shares a frame, exit orphans it, free
  // reclassifies it).
  const auto frame_states = kernel.allocator().states_snapshot();
  std::vector<MemoryMatch> matches;
  matches.reserve(raw.size());
  for (const auto& r : raw) {
    MemoryMatch m;
    m.phys_offset = r.offset;
    m.part = patterns_.patterns[r.pattern_index].name;
    m.frame = static_cast<sim::FrameNumber>(r.offset / sim::kPageSize);
    m.state = frame_states[m.frame];
    m.owners = kernel.frame_owners(m.frame);
    m.mappings = kernel.frame_mappings(m.frame);
    m.provenance = describe_match(kernel, m);
    matches.push_back(std::move(m));
  }
  // Already in (phys_offset, pattern) order — the engine's merge contract.
  return matches;
}

std::vector<MemoryMatch> KeyScanner::scan_kernel(const sim::Kernel& kernel,
                                                 ScanStats* stats) const {
  // Byte scan first — the O(memory) part, sharded across the pool over
  // an immutable byte span.
  const auto raw =
      sharded_scan(kernel.memory().all(), needles(), effective_shards(),
                   /*min_prefix_bytes=*/0, stats);
  return resolve_raw(kernel, raw);
}

std::vector<MemoryMatch> KeyScanner::scan_kernel_incremental(
    const sim::Kernel& kernel, DirtyFrameJournal& journal, SweepCache& cache,
    ScanStats* stats) const {
  const auto buffer = kernel.memory().all();
  if (!cache.primed || cache.phys_bytes != buffer.size()) {
    // Prime: one full sweep populates the cache; everything the journal
    // accumulated so far is covered by it, so the backlog is discarded.
    cache.raw = sharded_scan(buffer, needles(), effective_shards(),
                             /*min_prefix_bytes=*/0, stats);
    cache.phys_bytes = buffer.size();
    cache.primed = true;
    journal.drain();
    return resolve_raw(kernel, cache.raw);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto dirty = journal.drain();
  const auto needle_views = needles();
  // Compiled once per sweep and shared by every rescan window below.
  const MultiMatcher mm(needle_views);
  const std::size_t reach = mm.max_needle_len() > 0 ? mm.max_needle_len() - 1 : 0;
  const std::size_t frame_bytes = journal.frame_bytes();

  // Coalesce dirty frames into affected byte intervals. A dirty byte run
  // [d0, d1) can create/destroy matches whose FIRST byte lies in
  // [d0 - (max_len-1), d1) only — a match starting earlier ends before d0
  // and overlaps no changed byte (DESIGN.md §8). Left-extending by
  // `reach` and merging adjacent runs keeps the intervals disjoint and
  // ascending.
  struct Interval {
    std::size_t lo;
    std::size_t hi;  // exclusive
  };
  std::vector<Interval> affected;
  for (std::size_t i = 0; i < dirty.size();) {
    std::size_t j = i + 1;
    while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1) ++j;
    const std::size_t d0 = dirty[i] * frame_bytes;
    const std::size_t d1 = std::min(buffer.size(), dirty[j - 1] * frame_bytes + frame_bytes);
    const std::size_t lo = d0 >= reach ? d0 - reach : 0;
    if (!affected.empty() && lo <= affected.back().hi) {
      affected.back().hi = std::max(affected.back().hi, d1);
    } else {
      affected.push_back({lo, d1});
    }
    i = j;
  }

  // Drop cached matches whose offset falls inside any affected interval —
  // they are exactly the ones the rescan below re-derives (or proves
  // gone). Both lists are sorted, so one forward walk suffices.
  std::vector<RawMatch> survivors;
  survivors.reserve(cache.raw.size());
  {
    std::size_t ai = 0;
    for (const auto& r : cache.raw) {
      while (ai < affected.size() && affected[ai].hi <= r.offset) ++ai;
      const bool inside =
          ai < affected.size() && r.offset >= affected[ai].lo;
      if (!inside) survivors.push_back(r);
    }
  }

  // Rescan each affected interval with the standard seam window on the
  // right: matches may START inside and continue past hi, so the window
  // extends `reach` bytes (bounded by the true end of memory) while only
  // first-byte-inside hits are kept — identical attribution to a shard
  // seam. Intervals are ascending and each scan appends a sorted run, so
  // `fresh` comes out globally (offset, pattern)-sorted.
  std::vector<RawMatch> fresh;
  std::size_t rescanned_bytes = 0;
  if (stats != nullptr) stats->shards.clear();
  for (std::size_t wi = 0; wi < affected.size(); ++wi) {
    const auto [lo, hi] = affected[wi];
    const std::size_t window_end = std::min(buffer.size(), hi + reach);
    const auto tw = std::chrono::steady_clock::now();
    const std::size_t before = fresh.size();
    mm.scan(buffer, lo, hi, window_end, fresh);
    rescanned_bytes += hi - lo;
    if (stats != nullptr) {
      const double ms = std::max(
          0.0, std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - tw)
                   .count());
      stats->shards.push_back({wi, lo, hi - lo, fresh.size() - before, ms});
    }
  }

  // Splice: survivors (outside every interval) and fresh (inside one)
  // interleave by offset; a single merge restores the serial walk's
  // (offset, pattern_index) order.
  std::vector<RawMatch> next;
  next.reserve(survivors.size() + fresh.size());
  std::merge(survivors.begin(), survivors.end(), fresh.begin(), fresh.end(),
             std::back_inserter(next),
             [](const RawMatch& a, const RawMatch& b) {
               return a.offset != b.offset ? a.offset < b.offset
                                           : a.pattern_index < b.pattern_index;
             });
  cache.raw = std::move(next);

  if (stats != nullptr) {
    stats->bytes_scanned = rescanned_bytes;
    stats->match_count = cache.raw.size();
    stats->shard_count = affected.size();
    stats->overlap_bytes = reach;
    stats->pattern_count = mm.active_needles();
    stats->simd_kind = mm.simd_kind();
    stats->incremental = true;
    stats->dirty_frames = dirty.size();
    stats->wall_millis = std::max(
        0.0, std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count());
    auto& reg = obs::MetricsRegistry::global();
    if (reg.enabled()) stats->publish(reg);
  }
  return resolve_raw(kernel, cache.raw);
}

std::vector<CaptureMatch> KeyScanner::scan_capture(
    std::span<const std::byte> capture, ScanStats* stats) const {
  const auto raw = sharded_scan(capture, needles(), effective_shards(),
                                /*min_prefix_bytes=*/0, stats);
  std::vector<CaptureMatch> matches;
  matches.reserve(raw.size());
  for (const auto& r : raw) {
    matches.push_back({r.offset, patterns_.patterns[r.pattern_index].name});
  }
  return matches;
}

std::vector<PartialMatch> KeyScanner::scan_capture_prefix(
    std::span<const std::byte> capture, std::size_t min_bytes,
    ScanStats* stats) const {
  const auto raw = sharded_scan(capture, needles(), effective_shards(),
                                min_bytes, stats);
  std::vector<PartialMatch> matches;
  matches.reserve(raw.size());
  for (const auto& r : raw) {
    matches.push_back({r.offset, patterns_.patterns[r.pattern_index].name,
                       r.matched_bytes, r.full});
  }
  return matches;
}

std::vector<RawMatch> KeyScanner::stream_raw(CaptureStream& stream,
                                             std::size_t min_prefix_bytes,
                                             ScanStats* stats) const {
  const auto t0 = std::chrono::steady_clock::now();
  const auto needle_views = needles();
  // Reach covers the longest needle that can actually match (prefix mode
  // skips needles shorter than the minimum, exactly as the matcher does).
  std::size_t max_len = 0;
  std::size_t active = 0;
  for (const auto n : needle_views) {
    if (n.empty()) continue;
    if (min_prefix_bytes > 0 && n.size() < min_prefix_bytes) continue;
    ++active;
    max_len = std::max(max_len, n.size());
  }
  const std::size_t reach = max_len > 0 ? max_len - 1 : 0;
  stream.rewind(reach);
  std::vector<RawMatch> all;
  std::size_t windows = 0;
  std::size_t payload_total = 0;
  SimdKind used = SimdKind::kNone;
  while (auto w = stream.next()) {
    ScanStats ws;
    auto raw = sharded_scan_window(w->bytes, w->payload, needle_views,
                                   effective_shards(), min_prefix_bytes,
                                   stats != nullptr ? &ws : nullptr);
    // Windows ascend and each window's hits are (offset, pattern)-sorted,
    // so rebasing to file offsets keeps the concatenation globally sorted
    // — the one-shot scan's order.
    for (auto& r : raw) r.offset += w->offset;
    if (stats != nullptr) {
      stats->shards.push_back(
          {windows, w->offset, w->payload, raw.size(), ws.wall_millis});
      used = ws.simd_kind;  // per-window stats carry the density fallback
    }
    all.insert(all.end(), raw.begin(), raw.end());
    payload_total += w->payload;
    ++windows;
  }
  if (stats != nullptr) {
    stats->bytes_scanned = payload_total;
    stats->match_count = all.size();
    stats->shard_count = windows;
    stats->overlap_bytes = reach;
    stats->pattern_count = active;
    stats->simd_kind = used;
    stats->bytes_streamed = stream.size();
    stats->incremental = false;
    stats->dirty_frames = 0;
    stats->wall_millis = std::max(
        0.0, std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count());
    // Each window already published a scan into the registry; only the
    // streaming-specific byte count is added here (never double-counted).
    auto& reg = obs::MetricsRegistry::global();
    if (reg.enabled() && stream.size() > 0) {
      reg.counter("scan.bytes_streamed").add(stream.size());
    }
  }
  return all;
}

std::vector<CaptureMatch> KeyScanner::scan_capture_stream(
    CaptureStream& stream, ScanStats* stats) const {
  const auto raw = stream_raw(stream, /*min_prefix_bytes=*/0, stats);
  std::vector<CaptureMatch> matches;
  matches.reserve(raw.size());
  for (const auto& r : raw) {
    matches.push_back({r.offset, patterns_.patterns[r.pattern_index].name});
  }
  return matches;
}

std::vector<PartialMatch> KeyScanner::scan_capture_prefix_stream(
    CaptureStream& stream, std::size_t min_bytes, ScanStats* stats) const {
  const auto raw = stream_raw(stream, min_bytes, stats);
  std::vector<PartialMatch> matches;
  matches.reserve(raw.size());
  for (const auto& r : raw) {
    matches.push_back({r.offset, patterns_.patterns[r.pattern_index].name,
                       r.matched_bytes, r.full});
  }
  return matches;
}

std::vector<ProcessMatch> KeyScanner::scan_process(const sim::Kernel& kernel,
                                                   const sim::Process& process) const {
  // Reassemble the resident image the way a core dump would: contiguous
  // virtual runs of resident pages, scanned run by run so patterns that
  // span adjacent virtual pages are found even when their frames are
  // physically scattered. Runs are small (one process), so this path
  // stays serial.
  std::vector<ProcessMatch> matches;
  const auto& pt = process.page_table();
  auto it = pt.begin();
  std::vector<std::byte> run;
  while (it != pt.end()) {
    run.clear();
    const sim::VirtAddr start = it->first;
    sim::VirtAddr expected = start;
    while (it != pt.end() && it->first == expected && !it->second.swapped) {
      const auto page = kernel.memory().page(it->second.frame);
      run.insert(run.end(), page.begin(), page.end());
      expected += sim::kPageSize;
      ++it;
    }
    if (it != pt.end() && it->first == expected) ++it;  // swapped page: skip
    for (const auto& pattern : patterns_.patterns) {
      for (const std::size_t off : util::find_all(run, pattern.bytes)) {
        matches.push_back({start + off, pattern.name});
      }
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const ProcessMatch& a, const ProcessMatch& b) {
              return a.vaddr < b.vaddr;
            });
  return matches;
}

Census KeyScanner::census(const std::vector<MemoryMatch>& matches) {
  Census c;
  for (const auto& m : matches) {
    if (m.allocated()) {
      ++c.allocated;
    } else {
      ++c.unallocated;
    }
  }
  return c;
}

}  // namespace keyguard::scan
