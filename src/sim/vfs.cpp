#include "sim/vfs.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace keyguard::sim {

void Vfs::write_file(const std::string& path, std::vector<std::byte> content,
                     TaintTag taint) {
  files_[path] = std::move(content);
  if (taint != TaintTag::kClean) {
    taints_[path] = taint;
  } else {
    taints_.erase(path);
  }
}

TaintTag Vfs::taint_tag(const std::string& path) const {
  const auto it = taints_.find(path);
  return it == taints_.end() ? TaintTag::kClean : it->second;
}

const std::vector<std::byte>* Vfs::file(const std::string& path) const {
  const auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

bool Vfs::exists(const std::string& path) const { return files_.contains(path); }

std::vector<std::string> Vfs::list() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, _] : files_) names.push_back(name);
  return names;
}

bool PageCache::populate(const std::string& path, std::span<const std::byte> content,
                         TaintTag taint) {
  if (entries_.contains(path)) return true;
  std::vector<FrameNumber> frames;
  const std::size_t pages = (content.size() + kPageSize - 1) / kPageSize;
  frames.reserve(pages);
  for (std::size_t i = 0; i < pages; ++i) {
    const auto frame = alloc_.alloc(FrameState::kPageCache);
    if (!frame) {
      for (const FrameNumber f : frames) alloc_.free(f);
      return false;
    }
    auto dst = mem_.page(*frame);
    const std::size_t off = i * kPageSize;
    const std::size_t n = std::min(kPageSize, content.size() - off);
    std::memcpy(dst.data(), content.data() + off, n);
    // The tail of the last page keeps whatever was there before — page
    // cache allocations are not zeroed (see PageAllocator::alloc) — and
    // the shadow map mirrors that: only the written bytes take the file's
    // tag, stale taint in the tail survives.
    if (auto* t = mem_.taint()) {
      t->on_phys_store(static_cast<std::size_t>(*frame) * kPageSize, n, taint);
    }
    frames.push_back(*frame);
  }
  cached_pages_ += frames.size();
  entries_[path] = std::move(frames);
  sizes_[path] = content.size();
  order_.push_back(path);
  return true;
}

std::vector<std::byte> PageCache::read_cached(const std::string& path) const {
  const auto it = entries_.find(path);
  if (it == entries_.end()) return {};
  const std::size_t size = sizes_.at(path);
  std::vector<std::byte> out;
  out.reserve(size);
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    const auto src = std::as_const(mem_).page(it->second[i]);
    const std::size_t off = i * kPageSize;
    const std::size_t n = std::min(kPageSize, size - off);
    out.insert(out.end(), src.begin(), src.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

void PageCache::evict(const std::string& path, bool clear_pages) {
  const auto it = entries_.find(path);
  if (it == entries_.end()) return;
  for (const FrameNumber f : it->second) {
    if (clear_pages) mem_.clear_page(f);
    alloc_.free(f, FreeKind::kHot);
  }
  cached_pages_ -= it->second.size();
  entries_.erase(it);
  sizes_.erase(path);
  std::erase(order_, path);
}

std::optional<std::string> PageCache::evict_oldest(bool clear_pages) {
  if (order_.empty()) return std::nullopt;
  const std::string victim = order_.front();
  evict(victim, clear_pages);
  return victim;
}

void PageCache::drop_all() {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, _] : entries_) names.push_back(name);
  for (const auto& name : names) evict(name, /*clear_pages=*/false);
}

std::vector<FrameNumber> PageCache::frames(const std::string& path) const {
  const auto it = entries_.find(path);
  return it == entries_.end() ? std::vector<FrameNumber>{} : it->second;
}

}  // namespace keyguard::sim
