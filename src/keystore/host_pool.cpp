#include "keystore/host_pool.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "crypto/pem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace keyguard::keystore {

namespace {

using Clock = std::chrono::steady_clock;

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
          prefix, {"ops", "pool_hits", "pool_misses", "evictions", "unseals",
                   "refusals", "unseal_ms", "pool_occupancy", "sign", "unseal"})) {
  assert(bound_ >= 1);
}

std::optional<KeyId> HostKeyPool::add_key(const crypto::RsaPrivateKey& key) {
  auto der = crypto::der_encode_private_key(key);
  auto pub = key.public_key();
  util::MutexLock lk(mu_);
  auto blob = seal_(der, next_id_);
  wipe(der);
  if (!blob) {
    count(stats_.refusals, kRefusals);
    return std::nullopt;
  }
  const KeyId id = next_id_++;
  sealed_.emplace(id, Sealed{std::move(*blob), std::move(pub)});
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
  {
    util::MutexLock lk(mu_);
    entry = acquire(lk, id);
  }
  if (entry == nullptr) return std::nullopt;  // fail-closed, nothing pinned
  bn::Bignum result = entry->key.sign(m);    // CRT math outside the lock
  {
    util::MutexLock lk(mu_);
    --entry->pins;
  }
  cv_.notify_all();
  return result;
}

HostKeyPool::Entry* HostKeyPool::acquire(util::MutexLock& lk, KeyId id) {
  const Sealed& sealed = sealed_.at(id);  // sealed_ never shrinks
  count(stats_.ops, kOps);
  for (;;) {
    for (auto& e : pool_) {
      if (e->id == id) {
        count(stats_.pool_hits, kHits);
        ++e->pins;
        e->last_used = ++clock_;
        return e.get();
      }
    }
    // At the bound, the victim is the least recently used UNPINNED entry;
    // if every entry is serving an in-flight operation, wait for a pin to
    // drop — the bound is never exceeded to hide latency.
    auto victim = pool_.end();
    if (pool_.size() >= bound_) {
      for (auto it = pool_.begin(); it != pool_.end(); ++it) {
        if ((*it)->pins == 0 &&
            (victim == pool_.end() || (*it)->last_used < (*victim)->last_used)) {
          victim = it;
        }
      }
      if (victim == pool_.end()) {
        lk.wait(cv_);
        continue;  // re-scan: the key may have been materialized meanwhile
      }
    }
    return materialize(id, sealed, victim);
  }
}

HostKeyPool::Entry* HostKeyPool::materialize(KeyId id, const Sealed& sealed,
                                             Pool::iterator victim) {
  obs::Tracer::Span span(obs::Tracer::global(), names_[kUnsealSpan]);
  if (span.live()) {
    span.add(obs::TraceAttr::n("key", static_cast<double>(id)));
  }
  const auto t0 = Clock::now();
  std::optional<crypto::RsaPrivateKey> key;
  if (auto der = unseal_(sealed.blob)) {
    key = crypto::der_decode_private_key(*der);
    wipe(*der);
  }
  if (!key) {
    count(stats_.refusals, kRefusals);
    return nullptr;
  }
  // Evict only now that the unseal succeeded, and before the new working
  // copy exists, so at most bound_ copies are ever live. unseal_ms leaves
  // the eviction out.
  const auto t1 = Clock::now();
  if (victim != pool_.end()) evict(victim);
  const auto t2 = Clock::now();
  pool_.push_back(std::unique_ptr<Entry>(new Entry{
      id, secure::SecureRsaKey::from_key_scrubbing(*key), /*pins=*/1, ++clock_}));
  count(stats_.pool_misses, kMisses);
  count(stats_.unseals, kUnseals);
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.histogram(names_[kUnsealMs])
        .record(std::chrono::duration<double, std::milli>((t1 - t0) + (Clock::now() - t2))
                    .count());
  }
  publish_occupancy();
  return pool_.back().get();
}

HostKeyPool::Pool::iterator HostKeyPool::evict(Pool::iterator it) {
  count(stats_.evictions, kEvictions);
  return pool_.erase(it);  // ~SecureRsaKey scrubs the working copy
}

void HostKeyPool::count(std::uint64_t& stat, Name name) {
  ++stat;
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) reg.counter(names_[name]).add(1);
}

void HostKeyPool::publish_occupancy() {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.gauge(names_[kOccupancy]).set(static_cast<double>(pool_.size()));
  }
}

bool HostKeyPool::contains(KeyId id) const {
  util::MutexLock lk(mu_);
  return sealed_.count(id) != 0;
}

bool HostKeyPool::pooled(KeyId id) const {
  util::MutexLock lk(mu_);
  return std::any_of(pool_.begin(), pool_.end(),
                     [&](const auto& e) { return e->id == id; });
}

std::size_t HostKeyPool::size() const {
  util::MutexLock lk(mu_);
  return sealed_.size();
}

std::size_t HostKeyPool::pooled_count() const {
  util::MutexLock lk(mu_);
  return pool_.size();
}

HostKeystoreStats HostKeyPool::stats() const {
  util::MutexLock lk(mu_);
  return stats_;
}

void HostKeyPool::evict_all() {
  util::MutexLock lk(mu_);
  // Manual loop rather than std::erase_if: the thread-safety analysis
  // cannot see through a lambda touching guarded members.
  for (auto it = pool_.begin(); it != pool_.end();) {
    it = (*it)->pins == 0 ? evict(it) : std::next(it);
  }
  publish_occupancy();
}

bool HostKeyPool::flip_blob_byte(KeyId id, std::size_t offset) {
  util::MutexLock lk(mu_);
  const auto it = sealed_.find(id);
  if (it == sealed_.end() || offset >= it->second.blob.size()) return false;
  it->second.blob[offset] ^= std::byte{0x01};
  return true;
}

std::size_t HostKeyPool::blob_size(KeyId id) const {
  util::MutexLock lk(mu_);
  const auto it = sealed_.find(id);
  return it == sealed_.end() ? 0 : it->second.blob.size();
}

}  // namespace keyguard::keystore
