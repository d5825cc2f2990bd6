#include "keystore/host_pool.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "core/secure_rsa.hpp"
#include "core/secure_zero.hpp"
#include "crypto/pem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace keyguard::keystore {

namespace {

using Clock = std::chrono::steady_clock;

// One slot image per 4 KiB page of the slab.
constexpr std::size_t kPageLimbs = secure::rsa_slot::kPageLimbs;

template <std::size_t N>
std::array<std::string, N> prefixed(std::string_view prefix,
                                    const std::array<std::string_view, N>& leaves) {
  std::array<std::string, N> out;
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = std::string(prefix) + "." + std::string(leaves[i]);
  }
  return out;
}

}  // namespace

HostKeyPool::HostKeyPool(std::string_view prefix, std::size_t bound, SealFn seal,
                         UnsealFn unseal)
    : bound_(bound),
      seal_(std::move(seal)),
      unseal_(std::move(unseal)),
      names_(prefixed<kNameCount>(
          prefix, {"ops", "pool_hits", "pool_misses", "evictions", "unseals", "refusals",
                   "coalesced", "unseal_ms", "pool_occupancy", "sign", "unseal"})),
      slab_(bound * kPageLimbs * sizeof(bn::Limb)),
      entries_(bound) {
  assert(bound_ >= 1);
  const std::span<bn::Limb> limbs(reinterpret_cast<bn::Limb*>(slab_.data().data()),
                                  bound * kPageLimbs);
  for (std::size_t i = 0; i < bound; ++i) {
    entries_[i].page = limbs.subspan(i * kPageLimbs, kPageLimbs);
  }
}

std::optional<KeyId> HostKeyPool::add_key(const crypto::RsaPrivateKey& key) {
  const bool fits = secure::rsa_slot::image_limbs(key) <= kPageLimbs;
  auto der = fits ? crypto::der_encode_private_key(key) : std::vector<std::byte>{};
  auto pub = key.public_key();
  util::MutexLock lk(mu_);
  auto blob = fits ? seal_(der, next_id_) : std::nullopt;
  secure::secure_zero(der);
  if (!blob) {
    count(stats_.refusals, kRefusals);
    return std::nullopt;
  }
  const KeyId id = next_id_++;
  sealed_.emplace(id,
                  Sealed{std::make_shared<const Blob>(std::move(*blob)), std::move(pub)});
  return id;
}

std::optional<KeyId> HostKeyPool::add_key_scrubbing(crypto::RsaPrivateKey& key) {
  const auto id = add_key(key);
  if (id) key.scrub_private_parts();
  return id;
}

std::optional<KeyId> HostKeyPool::add_pem(std::string_view pem) {
  auto key = crypto::pem_decode_private_key(pem);
  if (!key) return std::nullopt;
  const auto id = add_key(*key);
  key->scrub_private_parts();
  return id;
}

const crypto::RsaPublicKey& HostKeyPool::public_key(KeyId id) const {
  util::MutexLock lk(mu_);
  return sealed_.at(id).pub;
}

std::optional<bn::Bignum> HostKeyPool::sign(KeyId id, const bn::Bignum& m) {
  obs::Tracer::Span span(obs::Tracer::global(), names_[kSignSpan]);
  if (span.live()) {
    span.add(obs::TraceAttr::n("key", static_cast<double>(id)));
  }
  Entry* entry = nullptr;
  Sealed* sealed = nullptr;
  std::shared_ptr<const Blob> claim;
  {
    util::MutexLock lk(mu_);
    sealed = &sealed_.at(id);  // sealed_ never shrinks
    entry = pin_or_claim(lk, id, *sealed, claim);
  }
  if (entry == nullptr) entry = materialize(id, *sealed, *claim);
  if (entry == nullptr) return std::nullopt;  // fail-closed, nothing pinned
  // CRT math outside the lock: the pin keeps the page from being wiped.
  bn::Bignum result = secure::rsa_slot::decrypt(entry->page, m);
  {
    util::MutexLock lk(mu_);
    --entry->pins;
  }
  cv_.notify_all();
  return result;
}

HostKeyPool::Entry* HostKeyPool::pin_or_claim(util::MutexLock& lk, KeyId id,
                                              Sealed& sealed,
                                              std::shared_ptr<const Blob>& claim) {
  count(stats_.ops, kOps);
  bool waited = false;
  for (;;) {
    for (Entry& e : entries_) {
      if (e.id == id) {
        count(stats_.pool_hits, kHits);
        ++e.pins;
        e.last_used = ++clock_;
        return &e;
      }
    }
    if (!sealed.in_flight) break;
    // Single flight: another thread is staging this id. Its publish (a
    // hit for us) or its refusal (we retry) wakes us.
    if (!waited) count(stats_.coalesced, kCoalesced);
    waited = true;
    lk.wait(cv_);
  }
  sealed.in_flight = true;
  claim = sealed.blob;
  return nullptr;
}

HostKeyPool::Entry* HostKeyPool::materialize(KeyId id, Sealed& sealed, const Blob& blob) {
  // Stage in this thread's locked arena, with no lock held: the DER, then
  // the image, then the precompute scratch. The lease wipes all of it.
  const std::size_t der_limbs = (blob.size() + sizeof(bn::Limb) - 1) / sizeof(bn::Limb);
  secure::ArenaLease lease(der_limbs + kPageLimbs +
                           secure::rsa_slot::der_scratch_limbs(blob.size()));
  const auto der = std::as_writable_bytes(lease.take(der_limbs));
  const auto image = lease.take(kPageLimbs);
  const auto t0 = Clock::now();
  std::size_t limbs = 0;
  {
    obs::Tracer::Span span(obs::Tracer::global(), names_[kUnsealSpan]);
    if (span.live()) {
      span.add(obs::TraceAttr::n("key", static_cast<double>(id)));
    }
    if (const auto len = unseal_(blob, der)) {
      limbs = secure::rsa_slot::from_der(image, der.first(*len), lease.rest());
    }
  }
  const auto staged = Clock::now() - t0;

  Entry* entry = nullptr;
  {
    util::MutexLock lk(mu_);
    if (limbs == 0) {
      count(stats_.refusals, kRefusals);  // the pool was never touched
    } else {
      // The claim stays set while we wait for an unpinned page, so the
      // id still stages once.
      while ((entry = victim()) == nullptr) lk.wait(cv_);
      if (entry->id != 0) evict(*entry);
      std::ranges::copy(image.first(limbs), entry->page.begin());
      entry->id = id;
      entry->pins = 1;
      entry->last_used = ++clock_;
      count(stats_.pool_misses, kMisses);
      count(stats_.unseals, kUnseals);
      publish_occupancy();
    }
    sealed.in_flight = false;
  }
  cv_.notify_all();
  auto& reg = obs::MetricsRegistry::global();
  if (entry != nullptr && reg.enabled()) {
    reg.histogram(names_[kUnsealMs])
        .record(std::chrono::duration<double, std::milli>(staged).count());
  }
  return entry;
}

HostKeyPool::Entry* HostKeyPool::victim() {
  Entry* lru = nullptr;
  for (Entry& e : entries_) {
    if (e.id == 0) return &e;
    if (e.pins == 0 && (lru == nullptr || e.last_used < lru->last_used)) lru = &e;
  }
  return lru;  // nullptr: every page is pinned by an in-flight sign
}

void HostKeyPool::evict(Entry& e) {
  count(stats_.evictions, kEvictions);
  const std::size_t limbs = secure::rsa_slot::limbs_of(e.page);
  secure::secure_zero(e.page.data(), limbs * sizeof(bn::Limb));
  e.id = 0;
}

void HostKeyPool::count(std::uint64_t& stat, Name name) {
  ++stat;
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) reg.counter(names_[name]).add(1);
}

void HostKeyPool::publish_occupancy() {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.gauge(names_[kOccupancy]).set(static_cast<double>(occupancy()));
  }
}

std::size_t HostKeyPool::occupancy() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.id != 0 ? 1 : 0;
  return n;
}

bool HostKeyPool::contains(KeyId id) const {
  util::MutexLock lk(mu_);
  return sealed_.count(id) != 0;
}

bool HostKeyPool::pooled(KeyId id) const {
  util::MutexLock lk(mu_);
  for (const Entry& e : entries_) {
    if (e.id == id) return true;
  }
  return false;
}

std::size_t HostKeyPool::size() const {
  util::MutexLock lk(mu_);
  return sealed_.size();
}

std::size_t HostKeyPool::pooled_count() const {
  util::MutexLock lk(mu_);
  return occupancy();
}

HostKeystoreStats HostKeyPool::stats() const {
  util::MutexLock lk(mu_);
  return stats_;
}

void HostKeyPool::evict_all() {
  util::MutexLock lk(mu_);
  for (Entry& e : entries_) {
    if (e.id != 0 && e.pins == 0) evict(e);
  }
  publish_occupancy();
}

bool HostKeyPool::flip_blob_byte(KeyId id, std::size_t offset) {
  util::MutexLock lk(mu_);
  const auto it = sealed_.find(id);
  if (it == sealed_.end() || offset >= it->second.blob->size()) return false;
  // A copy swapped in whole: a miss staging from the old blob keeps
  // reading it, unlocked and unchanged.
  auto flipped = std::make_shared<Blob>(*it->second.blob);
  (*flipped)[offset] ^= std::byte{0x01};
  it->second.blob = std::move(flipped);
  return true;
}

std::size_t HostKeyPool::blob_size(KeyId id) const {
  util::MutexLock lk(mu_);
  const auto it = sealed_.find(id);
  return it == sealed_.end() ? 0 : it->second.blob->size();
}

}  // namespace keyguard::keystore
