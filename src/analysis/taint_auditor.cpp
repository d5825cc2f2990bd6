#include "analysis/taint_auditor.hpp"

#include <algorithm>
#include <sstream>

namespace keyguard::analysis {

AuditReport TaintAuditor::audit(const sim::Kernel& kernel) const {
  AuditReport report;
  const auto frame_states = kernel.allocator().states_snapshot();
  const auto shadow = map_.phys_shadow();

  // Per-frame accumulation for the invariant's frame counts: a frame is
  // "secret" when any plaintext-derived byte survives on it, and a
  // "master" frame when the master key is its ONLY secret tag.
  bool frame_open = false;
  sim::FrameNumber cur_frame = 0;
  bool cur_mlocked = false;
  bool cur_secret = false;
  bool cur_nonmaster_secret = false;
  const auto flush_frame = [&] {
    if (!frame_open) return;
    ++report.tainted_frames;
    if (cur_mlocked) ++report.mlocked_tainted_frames;
    if (cur_secret) {
      ++report.secret_tainted_frames;
      if (cur_mlocked) ++report.secret_mlocked_frames;
      if (!cur_nonmaster_secret) ++report.master_key_frames;
    }
    frame_open = false;
    cur_secret = cur_nonmaster_secret = false;
  };

  // RAM: maximal same-tag runs, split at frame boundaries. The runs are
  // cut first, so one pass over the page tables resolves the reverse map
  // of every tainted frame (they ascend with the runs).
  std::size_t pos = 0;
  std::vector<sim::FrameNumber> frames;
  while (pos < shadow.size()) {
    if (shadow[pos] == sim::TaintTag::kClean) {
      ++pos;
      continue;
    }
    const sim::TaintTag tag = shadow[pos];
    const std::size_t frame_end = (pos / sim::kPageSize + 1) * sim::kPageSize;
    std::size_t end = pos + 1;
    while (end < frame_end && end < shadow.size() && shadow[end] == tag) ++end;

    TaintedRegion r;
    r.offset = pos;
    r.length = end - pos;
    r.tag = tag;
    r.frame = static_cast<sim::FrameNumber>(pos / sim::kPageSize);
    if (frames.empty() || frames.back() != r.frame) frames.push_back(r.frame);
    report.regions.push_back(std::move(r));
    pos = end;
  }
  const auto frame_maps = kernel.frame_mappings(frames);

  std::size_t frame_index = 0;
  for (TaintedRegion& r : report.regions) {
    r.state = frame_states[r.frame];
    const bool new_frame = !frame_open || r.frame != cur_frame;
    if (frames[frame_index] != r.frame) ++frame_index;
    const auto& cur_mappings = frame_maps[frame_index];
    r.owners = scan::mapping_owners(cur_mappings);
    r.mlocked = std::any_of(cur_mappings.begin(), cur_mappings.end(),
                            [](const auto& m) { return m.mlocked; });
    r.provenance = scan::describe_copy(kernel, r.state, cur_mappings, r.offset);
    r.age = map_.epoch() - map_.frame_last_tainted(r.frame);

    const bool secret = sim::taint_tag_secret(r.tag);
    LocationTotals& klass = secret ? report.secret : report.sealed;
    report.bytes_by_tag[static_cast<std::size_t>(r.tag)] += r.length;
    switch (r.state) {
      case sim::FrameState::kUserAnon:
        report.bytes_allocated += r.length;
        klass.allocated += r.length;
        if (r.mlocked) {
          report.bytes_mlocked += r.length;
          klass.mlocked += r.length;
        }
        break;
      case sim::FrameState::kFree:
        report.bytes_unallocated += r.length;
        klass.unallocated += r.length;
        break;
      case sim::FrameState::kPageCache:
        report.bytes_page_cache += r.length;
        klass.page_cache += r.length;
        break;
      case sim::FrameState::kKernel:
        report.bytes_kernel += r.length;
        klass.kernel += r.length;
        break;
    }
    if (new_frame) {
      flush_frame();
      frame_open = true;
      cur_frame = r.frame;
      cur_mlocked = r.mlocked;
    }
    if (secret) {
      cur_secret = true;
      if (r.tag != sim::TaintTag::kMasterKey) cur_nonmaster_secret = true;
    }
  }
  flush_frame();

  // Swap: same segmentation over the device shadow, split at slot
  // boundaries. Freed-but-unscrubbed slots are reported too (slot_live ==
  // false) — that is the disk-resident residue the paper mlocks against.
  const auto swap_shadow = map_.swap_shadow();
  const auto* device = kernel.swap();
  pos = 0;
  while (pos < swap_shadow.size()) {
    if (swap_shadow[pos] == sim::TaintTag::kClean) {
      ++pos;
      continue;
    }
    const sim::TaintTag tag = swap_shadow[pos];
    const std::size_t slot_end = (pos / sim::kPageSize + 1) * sim::kPageSize;
    std::size_t end = pos + 1;
    while (end < slot_end && end < swap_shadow.size() && swap_shadow[end] == tag) {
      ++end;
    }

    TaintedRegion r;
    r.in_swap = true;
    r.offset = pos;
    r.length = end - pos;
    r.tag = tag;
    r.slot = static_cast<std::uint32_t>(pos / sim::kPageSize);
    r.slot_live = device != nullptr && device->slot_in_use(r.slot);
    r.provenance = r.slot_live ? "swap slot (live)" : "swap slot (freed, unscrubbed)";

    report.bytes_by_tag[static_cast<std::size_t>(tag)] += r.length;
    report.bytes_swap += r.length;
    (sim::taint_tag_secret(tag) ? report.secret : report.sealed).swap += r.length;
    report.regions.push_back(std::move(r));
    pos = end;
  }
  return report;
}

CrossCheck TaintAuditor::cross_check(
    const scan::KeyPatterns& patterns,
    const std::vector<scan::MemoryMatch>& matches) const {
  CrossCheck out;
  out.scanner_hits = matches.size();

  // Pattern name -> needle length.
  auto pattern_len = [&](const std::string& name) -> std::size_t {
    for (const auto& p : patterns.patterns) {
      if (p.name == name) return p.bytes.size();
    }
    return 0;
  };

  // Coverage check + interval collection for the union.
  std::vector<std::pair<std::size_t, std::size_t>> intervals;
  intervals.reserve(matches.size());
  for (const auto& m : matches) {
    const std::size_t len = pattern_len(m.part);
    if (len == 0) continue;
    intervals.emplace_back(m.phys_offset, m.phys_offset + len);
    if (map_.range_fully_tainted(m.phys_offset, len)) {
      ++out.covered_hits;
    } else {
      out.uncovered.push_back(m);
    }
  }

  // Merge the hit intervals and count needle-visible vs taint-only bytes.
  std::sort(intervals.begin(), intervals.end());
  std::size_t tainted_in_union = 0;
  std::size_t cursor = 0;
  for (const auto& [begin, end] : intervals) {
    const std::size_t lo = std::max(begin, cursor);
    if (end <= lo) continue;
    out.needle_visible_bytes += end - lo;
    tainted_in_union += map_.tainted_bytes_in(lo, end - lo);
    cursor = end;
  }
  out.taint_only_bytes = map_.stats().phys_tainted - tainted_in_union;
  return out;
}

std::string TaintAuditor::format(const AuditReport& report, std::size_t max_regions) {
  std::ostringstream os;
  os << "taint audit: " << report.total_bytes() << " tainted bytes in "
     << report.regions.size() << " regions / " << report.tainted_frames
     << " RAM frames (" << report.mlocked_tainted_frames << " mlocked)\n";
  os << "  allocated " << report.bytes_allocated << " (mlocked "
     << report.bytes_mlocked << "), unallocated " << report.bytes_unallocated
     << ", page cache " << report.bytes_page_cache << ", kernel "
     << report.bytes_kernel << ", swap " << report.bytes_swap << "\n";
  os << "  by tag:";
  for (std::size_t t = 1; t < sim::kTaintTagCount; ++t) {
    if (report.bytes_by_tag[t] == 0) continue;
    os << " " << sim::taint_tag_name(static_cast<sim::TaintTag>(t)) << "="
       << report.bytes_by_tag[t];
  }
  os << "\n";
  if (report.sealed.total() > 0 || report.master_key_frames > 0) {
    os << "  secret (plaintext) " << report.secret.total() << " bytes on "
       << report.secret_tainted_frames << " frames ("
       << report.secret_mlocked_frames << " mlocked, "
       << report.master_key_frames << " master-key), sealed (ciphertext) "
       << report.sealed.total() << " bytes\n";
    const std::size_t pool_frames =
        report.secret_tainted_frames - report.master_key_frames;
    os << "  bounded-locked-pages invariant: plaintext on " << pool_frames
       << " pool frame(s) + " << report.master_key_frames
       << " master-key frame(s): "
       << (report.bounded_locked_pages_only(pool_frames ? pool_frames : 1)
               ? "HOLDS at N=" + std::to_string(pool_frames ? pool_frames : 1)
               : "violated (secret bytes off the locked set)")
       << "\n";
  }
  os << "  single-locked-page invariant: "
     << (report.single_locked_page_only() ? "HOLDS" : "violated") << "\n";

  const std::size_t shown = std::min(report.regions.size(), max_regions);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& r = report.regions[i];
    os << "  [" << (r.in_swap ? "swap" : "ram ") << " +" << r.offset << " len "
       << r.length << "] " << sim::taint_tag_name(r.tag) << " — " << r.provenance;
    if (!r.in_swap) {
      os << " (" << sim::frame_state_name(r.state);
      if (r.mlocked) os << ", mlocked";
      if (!r.owners.empty()) {
        os << ", pids";
        for (const auto pid : r.owners) os << " " << pid;
      }
      os << ", age " << r.age << ")";
    }
    os << "\n";
  }
  if (report.regions.size() > shown) {
    os << "  ... " << (report.regions.size() - shown) << " more regions\n";
  }
  return os.str();
}

}  // namespace keyguard::analysis
