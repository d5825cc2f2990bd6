#include "analysis/taint_map.hpp"

#include <algorithm>
#include <functional>

namespace keyguard::analysis {

namespace {

std::size_t idx(sim::TaintTag t) noexcept { return static_cast<std::size_t>(t); }

/// Adds (sign +1) or removes (-1) one byte tagged `t` in its page's
/// counts.
void count_secret(PageSecrets& page, sim::TaintTag t, int sign) noexcept {
  if (!sim::taint_tag_secret(t)) return;
  page.secret = static_cast<std::uint16_t>(page.secret + sign);
  if (t != sim::TaintTag::kMasterKey) {
    page.nonmaster = static_cast<std::uint16_t>(page.nonmaster + sign);
  }
}

}  // namespace

ShadowTaintMap::Shadow::Shadow(std::size_t bytes,
                               std::array<std::size_t, sim::kTaintTagCount>& by_tag_,
                               std::size_t& total_)
    : tags(bytes),
      pages((bytes + sim::kPageSize - 1) / sim::kPageSize),
      by_tag(by_tag_),
      total(total_) {}

void ShadowTaintMap::Shadow::retag(std::size_t i, sim::TaintTag neu) {
  const sim::TaintTag old = tags[i];
  if (old == neu) return;
  if (old != sim::TaintTag::kClean) {
    --by_tag[idx(old)];
    --total;
  }
  if (neu != sim::TaintTag::kClean) {
    ++by_tag[idx(neu)];
    ++total;
  }
  PageSecrets& page = pages[i / sim::kPageSize];
  count_secret(page, old, -1);
  count_secret(page, neu, +1);
  tags[i] = neu;
}

void ShadowTaintMap::Shadow::set_range(std::size_t off, std::size_t len,
                                       sim::TaintTag tag) {
  const std::size_t end = std::min(off + len, tags.size());
  for (std::size_t i = std::min(off, tags.size()); i < end; ++i) retag(i, tag);
}

void ShadowTaintMap::Shadow::copy_range(std::size_t dst, const sim::TaintTag* src,
                                        std::size_t len) {
  if (dst >= tags.size()) return;
  const std::size_t n = std::min(len, tags.size() - dst);
  if (std::less<>()(tags.data() + dst, src)) {
    for (std::size_t k = 0; k < n; ++k) retag(dst + k, src[k]);
  } else {
    for (std::size_t k = n; k-- > 0;) retag(dst + k, src[k]);
  }
}

ShadowTaintMap::ShadowTaintMap(std::size_t phys_bytes, std::size_t swap_pages)
    : phys_(phys_bytes, stats_.phys_by_tag, stats_.phys_tainted),
      swap_(swap_pages * sim::kPageSize, stats_.swap_by_tag, stats_.swap_tainted),
      frame_epoch_(phys_bytes / sim::kPageSize, 0) {}

ShadowTaintMap::ShadowTaintMap(const sim::Kernel& kernel)
    : ShadowTaintMap(kernel.memory().size_bytes(),
                     kernel.swap() ? kernel.swap()->capacity() : 0) {}

void ShadowTaintMap::note_frame_taint(std::size_t off, std::size_t len) {
  if (len == 0) return;
  const std::size_t first = off / sim::kPageSize;
  const std::size_t last = (off + len - 1) / sim::kPageSize;
  for (std::size_t f = first; f <= last && f < frame_epoch_.size(); ++f) {
    frame_epoch_[f] = epoch_;
  }
}

void ShadowTaintMap::on_phys_store(std::size_t off, std::size_t len,
                                   sim::TaintTag tag) {
  ++epoch_;
  ++stats_.stores;
  phys_.set_range(off, len, tag);
  if (tag != sim::TaintTag::kClean) note_frame_taint(off, len);
}

void ShadowTaintMap::on_phys_copy(std::size_t dst, std::size_t src, std::size_t len) {
  ++epoch_;
  ++stats_.copies;
  // The source is tested before the copy, which overwrites it where the
  // ranges overlap. Source bytes past the end of RAM read as clean.
  const std::size_t lo = std::min(src, phys_.tags.size());
  const std::size_t avail = std::min(len, phys_.tags.size() - lo);
  const sim::TaintTag* from = phys_.tags.data() + lo;
  const bool tainted = std::any_of(
      from, from + avail, [](sim::TaintTag t) { return t != sim::TaintTag::kClean; });
  phys_.copy_range(dst, from, avail);
  phys_.set_range(dst + avail, len - avail, sim::TaintTag::kClean);
  if (tainted) note_frame_taint(dst, len);
}

void ShadowTaintMap::on_phys_clear(std::size_t off, std::size_t len) {
  ++epoch_;
  ++stats_.clears;
  phys_.set_range(off, len, sim::TaintTag::kClean);
}

void ShadowTaintMap::on_swap_store(std::uint32_t slot, std::size_t phys_src) {
  ++epoch_;
  ++stats_.swap_stores;
  // Swap-out DUPLICATES the page: the slot inherits the page's shadow while
  // the vacated RAM frame keeps its own (it is hot-freed uncleared on a
  // stock kernel; zero_on_free clears it through on_phys_clear).
  const std::size_t dst = static_cast<std::size_t>(slot) * sim::kPageSize;
  swap_.copy_range(dst, phys_.tags.data() + phys_src, sim::kPageSize);
}

void ShadowTaintMap::on_swap_load(std::size_t phys_dst, std::uint32_t slot) {
  ++epoch_;
  ++stats_.swap_loads;
  const std::size_t src = static_cast<std::size_t>(slot) * sim::kPageSize;
  // The slot's shadow stays put — like its bytes, which persist on the
  // device until the slot is scrubbed.
  phys_.copy_range(phys_dst, swap_.tags.data() + src, sim::kPageSize);
  if (std::any_of(swap_.tags.begin() + src, swap_.tags.begin() + src + sim::kPageSize,
                  [](sim::TaintTag t) { return t != sim::TaintTag::kClean; })) {
    note_frame_taint(phys_dst, sim::kPageSize);
  }
}

void ShadowTaintMap::on_swap_clear(std::uint32_t slot) {
  ++epoch_;
  ++stats_.swap_clears;
  swap_.set_range(static_cast<std::size_t>(slot) * sim::kPageSize, sim::kPageSize,
                  sim::TaintTag::kClean);
}

bool ShadowTaintMap::range_fully_tainted(std::size_t off, std::size_t len) const {
  if (off + len > phys_.tags.size()) return false;
  return std::all_of(phys_.tags.begin() + off, phys_.tags.begin() + off + len,
                     [](sim::TaintTag t) { return t != sim::TaintTag::kClean; });
}

std::size_t ShadowTaintMap::tainted_bytes_in(std::size_t off, std::size_t len) const {
  const std::size_t end = std::min(off + len, phys_.tags.size());
  std::size_t n = 0;
  for (std::size_t i = std::min(off, phys_.tags.size()); i < end; ++i) {
    if (phys_.tags[i] != sim::TaintTag::kClean) ++n;
  }
  return n;
}

}  // namespace keyguard::analysis
