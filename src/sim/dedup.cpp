#include "sim/dedup.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace keyguard::sim {
namespace {

/// FNV-1a 64 over one page — the candidate-table hash. Collisions are
/// harmless (scan() byte-verifies before merging), only wasteful.
std::uint64_t page_hash(std::span<const std::byte> page) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : page) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool page_zero(std::span<const std::byte> page) {
  return std::all_of(page.begin(), page.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

}  // namespace

DedupEngine::DedupEngine(Kernel& kernel, DedupConfig cfg)
    : kernel_(kernel), cfg_(cfg), unmerges_at_start_(kernel.unmerge_count()) {}

void DedupEngine::set_secret_predicate(std::function<bool(FrameNumber)> pred) {
  secret_ = std::move(pred);
}

std::size_t DedupEngine::scan() {
  ++stats_.scans;
  KEYGUARD_COUNT("kernel.dedup.scans", 1);
  obs::Tracer::Span span(obs::Tracer::global(), "dedup.scan");

  // Candidate table: every resident anonymous page of every live process,
  // in (process-table, vaddr) order so merge order — and therefore free-
  // list state afterwards — is deterministic.
  struct Cand {
    Process* proc;
    VirtAddr vaddr;
    FrameNumber frame;
    std::uint64_t hash;
  };
  std::vector<Cand> cands;
  for (const auto& up : kernel_.processes()) {
    if (!up->alive()) continue;
    for (const auto& [vaddr, pte] : up->page_table()) {
      if (pte.swapped) continue;
      if (kernel_.allocator().state(pte.frame) != FrameState::kUserAnon) continue;
      if (!cfg_.merge_mlocked && pte.mlocked) continue;
      const auto page = std::as_const(kernel_).memory().page(pte.frame);
      if (!cfg_.merge_zero_pages && page_zero(page)) continue;
      cands.push_back({up.get(), vaddr, pte.frame, page_hash(page)});
    }
  }
  stats_.pages_considered += cands.size();

  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  buckets.reserve(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    buckets[cands[i].hash].push_back(i);
  }

  std::size_t merged_now = 0;
  std::size_t vetoed_now = 0;
  // Drive bucket processing off the candidate order, not the unordered
  // map's iteration order, so runs are bit-reproducible.
  for (std::size_t i = 0; i < cands.size(); ++i) {
    auto bucket_it = buckets.find(cands[i].hash);
    if (bucket_it == buckets.end()) continue;
    const std::vector<std::size_t> bucket = std::move(bucket_it->second);
    buckets.erase(bucket_it);
    if (bucket.size() < 2) continue;

    // Pass 1: split the hash bucket into byte-identical content groups.
    // The defense vetoes secret pages BEFORE grouping — a secret frame
    // must participate in no merge, in either role.
    std::vector<std::vector<std::size_t>> groups;
    for (const std::size_t ci : bucket) {
      const Cand& c = cands[ci];
      if (cfg_.no_merge_secret && secret_ && secret_(c.frame)) {
        ++stats_.vetoed_secret;
        ++vetoed_now;
        continue;
      }
      bool placed = false;
      for (auto& g : groups) {
        const FrameNumber rep = cands[g.front()].frame;
        if (rep == c.frame ||
            std::memcmp(std::as_const(kernel_).memory().page(rep).data(),
                        std::as_const(kernel_).memory().page(c.frame).data(),
                        kPageSize) == 0) {
          g.push_back(ci);
          placed = true;
          break;
        }
      }
      if (!placed) {
        if (!groups.empty()) ++stats_.hash_collisions;
        groups.push_back({ci});
      }
    }

    // Pass 2: merge each group onto a canonical frame. Prefer a
    // secret-tainted member as the survivor (see header: this keeps the
    // shadow taint map exact — the clean-tagged duplicate is the one
    // freed); otherwise the first-seen member wins.
    for (const auto& g : groups) {
      if (g.size() < 2) continue;
      std::size_t canon = g.front();
      if (secret_ && !cfg_.no_merge_secret) {
        for (const std::size_t ci : g) {
          if (secret_(cands[ci].frame)) {
            canon = ci;
            break;
          }
        }
      }
      const FrameNumber canon_frame = cands[canon].frame;
      bool any = false;
      for (const std::size_t ci : g) {
        const Cand& c = cands[ci];
        if (c.frame == canon_frame) continue;
        if (kernel_.merge_page(*c.proc, c.vaddr, canon_frame)) {
          any = true;
          ++stats_.pages_merged;
          stats_.bytes_saved += kPageSize;
          ++merged_now;
          // A merge raises the canonical frame's share count without any
          // byte moving — the signal the secret-frame-merged alert rule
          // (and the PR-8 probe's victim) hinges on.
          if (auto& bus = obs::EventBus::global(); bus.enabled()) {
            bus.publish(obs::ObsEventKind::kPageMerged, canon_frame,
                        kernel_.allocator().refcount(canon_frame));
          }
        }
      }
      if (any) {
        // Every pre-existing mapping of the canonical frame now shares it
        // with strangers: all of them must fault on write.
        for (const std::size_t ci : g) {
          if (cands[ci].frame == canon_frame) {
            kernel_.set_page_cow(*cands[ci].proc, cands[ci].vaddr);
          }
        }
      }
    }
  }

  KEYGUARD_COUNT("kernel.dedup.pages_considered", cands.size());
  if (vetoed_now > 0) KEYGUARD_COUNT("kernel.dedup.vetoed_secret", vetoed_now);
  publish_metrics();
  if (span.live()) {
    span.add(obs::TraceAttr::n("candidates", static_cast<double>(cands.size())));
    span.add(obs::TraceAttr::n("merged", static_cast<double>(merged_now)));
    span.add(obs::TraceAttr::n("vetoed", static_cast<double>(vetoed_now)));
  }
  return merged_now;
}

std::size_t DedupEngine::shared_frame_count() const {
  std::size_t n = 0;
  for (FrameNumber f = 0; f < kernel_.allocator().page_count(); ++f) {
    n += is_merged_frame(f) ? 1 : 0;
  }
  return n;
}

std::size_t DedupEngine::saved_pages() const {
  // Mappings beyond the first of each live merged frame would each need a
  // private frame without dedup. Fork-shared refs inflate this the same
  // way they would have shared the unmerged originals, so the figure is a
  // slight over-count under heavy post-merge forking — documented, and
  // the benches read it right after a scan where it is exact.
  const PageAllocator& alloc = kernel_.allocator();
  std::size_t n = 0;
  for (FrameNumber f = 0; f < alloc.page_count(); ++f) {
    if (!alloc.merged(f)) continue;
    const auto refs = alloc.refcount(f);
    if (refs > 1) n += refs - 1;
  }
  return n;
}

bool DedupEngine::is_merged_frame(FrameNumber frame) const {
  const PageAllocator& alloc = kernel_.allocator();
  return frame < alloc.page_count() && alloc.merged(frame) && alloc.refcount(frame) > 1;
}

DedupStats DedupEngine::stats() const noexcept {
  DedupStats s = stats_;
  s.unmerges = kernel_.unmerge_count() - unmerges_at_start_;
  return s;
}

void DedupEngine::publish_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  reg.gauge("kernel.dedup.shared_frames")
      .set(static_cast<double>(shared_frame_count()));
  reg.gauge("kernel.dedup.saved_pages").set(static_cast<double>(saved_pages()));
}

}  // namespace keyguard::sim
