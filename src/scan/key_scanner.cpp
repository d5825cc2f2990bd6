#include "scan/key_scanner.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "crypto/pem.hpp"
#include "obs/metrics.hpp"
#include "scan/capture_stream.hpp"
#include "scan/multi_matcher.hpp"
#include "scan/settle.hpp"
#include "sslsim/ssl_library.hpp"
#include "util/bytes.hpp"
#include "util/thread_pool.hpp"

namespace keyguard::scan {

std::vector<sim::Pid> mapping_owners(
    std::span<const sim::Kernel::FrameMapping> mappings) {
  std::vector<sim::Pid> owners;
  for (const auto& mapping : mappings) {
    if (owners.empty() || owners.back() != mapping.pid) owners.push_back(mapping.pid);
  }
  return owners;
}

std::string describe_copy(const sim::Kernel& kernel, sim::FrameState state,
                          std::span<const sim::Kernel::FrameMapping> mappings,
                          std::size_t phys_offset) {
  switch (state) {
    case sim::FrameState::kFree:
      return "unallocated residue";
    case sim::FrameState::kPageCache:
      return "page cache";
    case sim::FrameState::kKernel:
      return "kernel buffer";
    case sim::FrameState::kUserAnon:
      break;
  }
  // Resolve through the first owning process's address space, at that
  // process's lowest virtual page for the frame (page tables are ordered,
  // and mappings come in (process-table, vaddr) order).
  for (const auto& mapping : mappings) {
    const auto* proc = kernel.find_process(mapping.pid);
    if (proc == nullptr) continue;
    const auto desc =
        kernel.describe_address(*proc, mapping.vaddr + phys_offset % sim::kPageSize);
    if (desc) return *desc;
  }
  return "user memory";
}

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
      p.key = i;
      out.patterns.push_back(std::move(p));
    }
  }
  return out;
}

std::vector<std::span<const std::byte>> KeyPatterns::needles() const {
  std::vector<std::span<const std::byte>> out;
  out.reserve(patterns.size());
  for (const auto& p : patterns) out.emplace_back(p.bytes);
  return out;
}

struct KeyScanner::Compiled {
  explicit Compiled(KeyPatterns p) : patterns(std::move(p)), exact(patterns.needles()) {}

  KeyPatterns patterns;
  MultiMatcher exact;  ///< points into `patterns`' bytes
};

KeyScanner::KeyScanner(KeyPatterns patterns)
    : compiled_(std::make_shared<const Compiled>(std::move(patterns))) {}

const KeyPatterns& KeyScanner::patterns() const noexcept { return compiled_->patterns; }

std::size_t KeyScanner::effective_shards() const {
  if (shards_ != 0) return shards_;
  return util::ThreadPool::shared().size() + 1;  // workers + calling thread
}

namespace {

/// The distinct frames `raw`'s hits start on, ascending: hits come in
/// offset order, so the hits of one frame are adjacent.
std::vector<sim::FrameNumber> hit_frames(std::span<const RawMatch> raw) {
  std::vector<sim::FrameNumber> frames;
  for (const auto& r : raw) {
    const auto frame = static_cast<sim::FrameNumber>(r.offset / sim::kPageSize);
    if (frames.empty() || frames.back() != frame) frames.push_back(frame);
  }
  return frames;
}

}  // namespace

std::vector<MemoryMatch> KeyScanner::resolve_raw(
    const sim::Kernel& kernel, std::span<const RawMatch> raw,
    std::vector<std::vector<sim::Kernel::FrameMapping>> frame_maps) const {
  // Metadata is resolved on the calling thread from a single-pass
  // snapshot, so the allocator is never read concurrently — and it is
  // resolved EVERY sweep, because frame state and owners change without
  // any byte changing (fork shares a frame, exit orphans it, free
  // reclassifies it).
  const auto frame_states = kernel.allocator().states_snapshot();
  const auto& pats = patterns().patterns;
  std::vector<MemoryMatch> matches;
  matches.reserve(raw.size());
  std::size_t next_frame = 0;
  for (const auto& r : raw) {
    MemoryMatch m;
    m.phys_offset = r.offset;
    m.part = pats[r.pattern_index].name;
    m.frame = static_cast<sim::FrameNumber>(r.offset / sim::kPageSize);
    m.state = frame_states[m.frame];
    if (!matches.empty() && matches.back().frame == m.frame) {
      m.owners = matches.back().owners;
      m.mappings = matches.back().mappings;
    } else {
      m.mappings = std::move(frame_maps[next_frame++]);
      m.owners = mapping_owners(m.mappings);
    }
    m.provenance = describe_copy(kernel, m.state, m.mappings, m.phys_offset);
    matches.push_back(std::move(m));
  }
  // Already in (phys_offset, pattern) order — the engine's merge contract.
  return matches;
}

std::vector<RawMatch> KeyScanner::sweep_raw(const sim::Kernel& kernel,
                                            ScanStats* stats) const {
  // A full sweep is a delta sweep against the all-zero machine the
  // simulator boots with: the frames ever written are the changed runs,
  // settle's rule widens them into windows, and only those are read
  // (DESIGN.md §8). The engine shards the windows across the pool.
  const auto& mem = kernel.memory();
  // The written frames are also what the simulated machine has committed
  // (sim/physmem.hpp), so a sweep is where its resident cost is published.
  if (auto& reg = obs::MetricsRegistry::global(); reg.enabled()) {
    reg.gauge("sim.written_frames").set(static_cast<double>(mem.written_frames()));
  }
  const MultiMatcher& mm = compiled_->exact;
  const auto written =
      written_runs(mem.written_bitmap(), sim::kPageSize, mem.size_bytes(), mm);
  std::vector<ByteRun> windows;
  widen_runs(written, mm.reach(), mem.size_bytes(), windows);
  return sharded_scan_runs(mem.all(), mem.size_bytes(), windows, mm,
                           effective_shards(), stats);
}

std::vector<MemoryMatch> KeyScanner::scan_kernel(const sim::Kernel& kernel,
                                                 ScanStats* stats) const {
  const auto raw = sweep_raw(kernel, stats);
  // One pass over the page tables resolves every hit frame.
  return resolve_raw(kernel, raw, kernel.frame_mappings(hit_frames(raw)));
}

std::vector<MemoryMatch> KeyScanner::scan_kernel_incremental(
    const sim::Kernel& kernel, DirtyFrameJournal& journal, SweepCache& cache,
    ScanStats* stats) const {
  const auto buffer = kernel.memory().all();
  // Incremental sweeps still walk the page tables once per hit frame, not
  // in scan_kernel's one pass: ROADMAP direction 2 has why (ssh_scp's
  // peak RSS counts the connections its monitored arm completes).
  const auto walk_each_frame = [&kernel](std::span<const RawMatch> raw) {
    std::vector<std::vector<sim::Kernel::FrameMapping>> maps;
    for (const sim::FrameNumber f : hit_frames(raw)) maps.push_back(kernel.frame_mappings(f));
    return maps;
  };
  if (!cache.primed || cache.phys_bytes != buffer.size()) {
    // Prime: one full sweep populates the cache; everything the journal
    // accumulated so far is covered by it, so the backlog is discarded.
    cache.raw = sweep_raw(kernel, stats);
    cache.phys_bytes = buffer.size();
    cache.primed = true;
    journal.drain();
    return resolve_raw(kernel, cache.raw, walk_each_frame(cache.raw));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto dirty = journal.drain();
  // Every dirty frame is a changed byte run; settle() widens, merges,
  // rescans and splices them into the cache (DESIGN.md §8).
  const MultiMatcher& mm = compiled_->exact;
  const std::size_t frame_bytes = journal.frame_bytes();
  std::vector<ByteRun> runs;
  runs.reserve(dirty.size());
  for (const std::size_t f : dirty) {
    runs.push_back({f * frame_bytes, f * frame_bytes + frame_bytes});
  }
  if (stats != nullptr) stats->shards.clear();
  const std::size_t rescanned =
      settle(buffer, mm, runs, cache.raw, nullptr, nullptr,
             stats != nullptr ? &stats->shards : nullptr);

  if (stats != nullptr) {
    stats->bytes_scanned = rescanned;
    stats->bytes_read = rescanned;
    stats->match_count = cache.raw.size();
    stats->shard_count = stats->shards.size();
    stats->overlap_bytes = mm.reach();
    stats->pattern_count = mm.active_needles();
    stats->simd_kind = mm.simd_kind();
    stats->skim_depth = mm.skim_depth();
    stats->incremental = true;
    stats->dirty_frames = dirty.size();
    stats->wall_millis = std::max(
        0.0, std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count());
    auto& reg = obs::MetricsRegistry::global();
    if (reg.enabled()) stats->publish(reg);
  }
  return resolve_raw(kernel, cache.raw, walk_each_frame(cache.raw));
}

std::vector<CaptureMatch> KeyScanner::scan_capture(
    std::span<const std::byte> capture, ScanStats* stats) const {
  const ByteRun all{0, capture.size()};
  const auto raw = sharded_scan_runs(capture, capture.size(), {&all, 1},
                                     compiled_->exact, effective_shards(), stats);
  std::vector<CaptureMatch> matches;
  matches.reserve(raw.size());
  for (const auto& r : raw) {
    matches.push_back({r.offset, patterns().patterns[r.pattern_index].name});
  }
  return matches;
}

std::vector<PartialMatch> KeyScanner::scan_capture_prefix(
    std::span<const std::byte> capture, std::size_t min_bytes,
    ScanStats* stats) const {
  const auto raw = sharded_scan(capture, patterns().needles(), effective_shards(),
                                min_bytes, stats);
  std::vector<PartialMatch> matches;
  matches.reserve(raw.size());
  for (const auto& r : raw) {
    matches.push_back({r.offset, patterns().patterns[r.pattern_index].name,
                       r.matched_bytes, r.full});
  }
  return matches;
}

std::vector<RawMatch> KeyScanner::stream_raw(CaptureStream& stream,
                                             std::size_t min_prefix_bytes,
                                             ScanStats* stats) const {
  const auto t0 = std::chrono::steady_clock::now();
  // One matcher serves every window: the scanner's own in exact mode, a
  // prefix-mode one compiled here otherwise. Its reach covers the longest
  // needle that can match (prefix mode skips needles shorter than the
  // minimum), and that is every window's seam.
  std::optional<MultiMatcher> prefix;
  const MultiMatcher& mm = min_prefix_bytes == 0
                               ? compiled_->exact
                               : prefix.emplace(patterns().needles(), min_prefix_bytes);
  stream.rewind(mm.reach());
  std::vector<RawMatch> all;
  std::size_t windows = 0;
  std::size_t payload_total = 0;
  while (auto w = stream.next()) {
    // The payload is the one run; the bytes past it are the seam view into
    // the next window, read only to finish a match that starts inside.
    ScanStats ws;
    const ByteRun payload{0, w->payload};
    auto raw = sharded_scan_runs(w->bytes, w->payload, {&payload, 1}, mm,
                                 effective_shards(), stats != nullptr ? &ws : nullptr);
    // Windows ascend and each window's hits are (offset, pattern)-sorted,
    // so rebasing to file offsets keeps the concatenation globally sorted
    // — the one-shot scan's order.
    for (auto& r : raw) r.offset += w->offset;
    if (stats != nullptr) {
      stats->shards.push_back(
          {windows, w->offset, w->payload, raw.size(), ws.wall_millis});
    }
    all.insert(all.end(), raw.begin(), raw.end());
    payload_total += w->payload;
    ++windows;
  }
  if (stats != nullptr) {
    stats->bytes_scanned = payload_total;
    stats->bytes_read = payload_total;
    stats->match_count = all.size();
    stats->shard_count = windows;
    stats->overlap_bytes = mm.reach();
    stats->pattern_count = mm.active_needles();
    stats->simd_kind = mm.simd_kind();
    stats->skim_depth = mm.skim_depth();
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
    matches.push_back({r.offset, patterns().patterns[r.pattern_index].name});
  }
  return matches;
}

std::vector<PartialMatch> KeyScanner::scan_capture_prefix_stream(
    CaptureStream& stream, std::size_t min_bytes, ScanStats* stats) const {
  const auto raw = stream_raw(stream, min_bytes, stats);
  std::vector<PartialMatch> matches;
  matches.reserve(raw.size());
  for (const auto& r : raw) {
    matches.push_back({r.offset, patterns().patterns[r.pattern_index].name,
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
  const MultiMatcher& mm = compiled_->exact;
  std::vector<ProcessMatch> matches;
  std::vector<RawMatch> raw;
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
    // Runs ascend and the matcher emits (offset, pattern) order, so the
    // matches come out sorted with no further pass.
    raw.clear();
    mm.scan(run, 0, run.size(), run.size(), raw);
    for (const auto& r : raw) {
      matches.push_back({start + r.offset, patterns().patterns[r.pattern_index].name});
    }
  }
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
