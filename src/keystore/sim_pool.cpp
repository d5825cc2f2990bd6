#include "keystore/sim_pool.hpp"

#include <cassert>

#include "core/secure_zero.hpp"
#include "crypto/pem.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/physmem.hpp"

namespace keyguard::keystore {

namespace {

using Clock = std::chrono::steady_clock;

sslsim::SslConfig ssl_config_for(const SimKeyPool::Setup& setup) {
  sslsim::SslConfig out;
  out.auto_align = false;  // the pool, not per-key aligned pages, bounds residue
  out.clear_temporaries = setup.clear_temporaries;
  out.open_keys_nocache = setup.open_keys_nocache;
  return out;
}

template <std::size_t N>
std::array<std::string, N> prefixed(std::string_view prefix,
                                    const std::array<std::string_view, N>& leaves) {
  std::array<std::string, N> out;
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = std::string(prefix) + "." + std::string(leaves[i]);
  }
  return out;
}

void bus_event(obs::ObsEventKind kind, std::uint64_t a, std::uint64_t b = 0) {
  if (auto& bus = obs::EventBus::global(); bus.enabled()) {
    bus.publish(kind, a, b);
  }
}

}  // namespace

// keylint: allow(unscrubbed) — the pages allocated here outlive the ctor
// by design; evict_slot() and shutdown() scrub them at end of life
SimKeyPool::SimKeyPool(sim::Kernel& kernel, sim::Process& proc, Setup setup)
    : kernel_(kernel),
      proc_(proc),
      backend_(setup.backend),
      working_set_(setup.working_set),
      scrub_on_evict_(setup.scrub_on_evict),
      clear_temporaries_(setup.clear_temporaries),
      open_keys_nocache_(setup.open_keys_nocache),
      seal_(std::move(setup.seal)),
      unseal_(std::move(setup.unseal)),
      page_keystream_(std::move(setup.page_keystream)),
      names_(prefixed<kNameCount>(
          setup.prefix,
          {"ingested", "ops", "pool_hits", "pool_misses", "unseals", "page_decrypts",
           "reencrypts", "evictions", "refusals", "unseal_ms", "pool_occupancy",
           "working_set_occupancy", "unseal", "evict", "scrub", "reencrypt"})),
      ssl_(kernel, ssl_config_for(setup)) {
  assert(working_set_ >= 1 && working_set_ <= setup.pool_pages);
  // The pool: N pages allocated up front so the locked-memory budget is
  // fixed at construction, not traffic-dependent. kEncrypted pages hold
  // ciphertext (or zeroes) at rest, which may swap out or be imaged
  // harmlessly; they are mlocked exactly for the plaintext interval.
  const bool locked = backend_ == PoolBackend::kMlocked;
  slots_.resize(setup.pool_pages);
  for (auto& s : slots_) {
    // keylint: allow(unlocked) — kEncrypted pages are ciphertext at rest;
    // lock_page() pins each one for its plaintext window
    s.page = kernel_.mmap_anon(proc_, sim::kPageSize, locked, "keystore pool slot");
    assert(s.page != 0);
  }
}

SimKeyPool::~SimKeyPool() { shutdown(); }

void SimKeyPool::metric(Name name) {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) reg.counter(names_[name]).add(1);
}

void SimKeyPool::count(std::uint64_t& stat, Name name) {
  ++stat;
  metric(name);
}

std::nullopt_t SimKeyPool::refuse(KeyId id) {
  count(stats_.refusals, kRefusals);
  bus_event(obs::ObsEventKind::kKeystoreRefusal, id);
  return std::nullopt;
}

void SimKeyPool::record_unseal(Clock::time_point t0) {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  reg.histogram(names_[kUnsealMs])
      .record(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
}

void SimKeyPool::publish_occupancy() {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  reg.gauge(names_[kWorkingOccupancy]).set(static_cast<double>(plaintext_count()));
  reg.gauge(names_[kPoolOccupancy]).set(static_cast<double>(pooled_count()));
}

void SimKeyPool::lock_page(const Slot& s, bool locked) {
  if (backend_ == PoolBackend::kEncrypted) {
    kernel_.mlock_range(proc_, s.page, sim::kPageSize, locked);
  }
}

std::optional<KeyId> SimKeyPool::ingest_pem(const std::string& vfs_path) {
  assert(!shut_);
  const int flags = open_keys_nocache_ ? sim::kOpenNoCache : sim::kOpenReadOnly;
  auto file = kernel_.read_file(proc_, vfs_path, flags);
  if (!file) return std::nullopt;

  // PEM_read: the text passes through a heap buffer like fgets would
  // produce — a plaintext transient the config decides the fate of.
  const sim::VirtAddr pem_buf =
      kernel_.heap_alloc(proc_, file->size(), "PEM read buffer (keystore ingest)");
  assert(pem_buf != 0);
  kernel_.mem_write(proc_, pem_buf, *file, sim::TaintTag::kPem);
  const auto drop_pem = [&] {
    if (clear_temporaries_) {
      kernel_.heap_clear_free(proc_, pem_buf);
    } else {
      kernel_.heap_free(proc_, pem_buf);  // keylint: allow(raw-free)
    }
  };

  auto parsed = crypto::pem_decode_private_key(
      std::string_view(reinterpret_cast<const char*>(file->data()), file->size()));
  if (!parsed) {
    drop_pem();
    return std::nullopt;
  }

  const KeyId id = next_id_++;
  Entry e;
  e.pub = parsed->public_key();
  auto der = crypto::der_encode_private_key(*parsed);
  // Without a seal the at-rest copy is plaintext DER in ordinary heap —
  // the unbounded disclosure surface the sealed path exists to remove.
  auto blob = seal_ ? seal_(der, id) : std::optional(der);
  const auto drop_transients = [&] {
    secure::secure_zero(der);
    parsed->scrub_private_parts();
    drop_pem();
  };
  // kMlocked stores the blob while the PEM buffer is live; kEncrypted
  // drops the transients first, so a refused seal leaves nothing behind.
  // Both heap layouts are pinned by the golden memory images.
  const bool store_first = blob && backend_ == PoolBackend::kMlocked;
  if (!store_first) drop_transients();
  if (!blob) return refuse(id);  // no plaintext "until the seal works"
  e.blob_len = blob->size();
  e.blob = kernel_.heap_alloc(proc_, e.blob_len,
                              seal_ ? "sealed key blob" : "DER key blob (plaintext)");
  assert(e.blob != 0);
  kernel_.mem_write(proc_, e.blob, *blob,
                    seal_ ? sim::TaintTag::kSealed : sim::TaintTag::kDer);
  if (!seal_) secure::secure_zero(*blob);
  if (store_first) drop_transients();

  keys_.emplace(id, std::move(e));
  count(stats_.ingested, kIngested);
  return id;
}

const crypto::RsaPublicKey& SimKeyPool::public_key(KeyId id) const {
  return keys_.at(id).pub;
}

std::optional<bn::Bignum> SimKeyPool::try_private_op(KeyId id, const bn::Bignum& c) {
  assert(!shut_);
  Entry& e = keys_.at(id);  // an unknown id throws before anything moves
  const auto slot = ensure_plaintext(id, e);
  if (!slot) return std::nullopt;
  count(stats_.ops, kOps);
  return ssl_.rsa_private_op(proc_, slots_[*slot].view, c);
}

std::optional<std::size_t> SimKeyPool::ensure_plaintext(KeyId id, Entry& e) {
  // Working-set hit: the page is plaintext right now, no unseal at all.
  if (e.slot >= 0 && slots_[static_cast<std::size_t>(e.slot)].is_plaintext) {
    count(stats_.pool_hits, kHits);
    slots_[static_cast<std::size_t>(e.slot)].last_used = ++clock_;
    return static_cast<std::size_t>(e.slot);
  }
  obs::Tracer::Span span(obs::Tracer::global(), names_[kUnsealSpan]);
  if (span.live()) {
    span.add(obs::TraceAttr::n("key", static_cast<double>(id)));
    span.add(obs::TraceAttr::s("kind", e.slot >= 0 ? "page" : "blob"));
  }
  const auto t0 = Clock::now();
  const auto slot = e.slot >= 0 ? reenter(id, static_cast<std::size_t>(e.slot))
                                : unseal_into_victim(id, e);
  if (!slot) return refuse(id);
  metric(kMisses);  // page_decrypts + unseals, as one metric
  record_unseal(t0);
  publish_occupancy();
  return slot;
}

std::optional<std::size_t> SimKeyPool::reenter(KeyId id, std::size_t si) {
  Slot& s = slots_[si];
  // Pooled ciphertext: decrypt the page in place. The keystream is
  // fetched BEFORE any pool mutation so a refusal leaves no trace.
  std::vector<std::byte> ks(s.used_bytes);
  if (!page_keystream_ || !page_keystream_(page_nonce(id, s.epoch), ks)) {
    return std::nullopt;
  }
  make_working_room();
  std::vector<std::byte> page(s.used_bytes);
  kernel_.mem_read(proc_, s.page, page);
  for (std::size_t i = 0; i < page.size(); ++i) page[i] ^= ks[i];
  secure::secure_zero(ks);
  // mlock BEFORE the plaintext write lands: there is no instant where
  // the frame holds secret bytes without being pinned.
  lock_page(s, true);
  kernel_.mem_write(proc_, s.page, page, sim::TaintTag::kPoolKey);
  secure::secure_zero(page);
  s.is_plaintext = true;
  s.last_used = ++clock_;
  count(stats_.page_decrypts, kPageDecrypts);
  bus_event(obs::ObsEventKind::kKeystoreUnseal, id, /*blob=*/0);
  return si;
}

std::optional<std::size_t> SimKeyPool::unseal_into_victim(KeyId id, Entry& e) {
  // Unseal and decode BEFORE any pool mutation: a corrupt blob, a dead
  // domain or DER that does not parse refuses with the pool untouched.
  std::vector<std::byte> blob(e.blob_len);
  kernel_.mem_read(proc_, e.blob, blob);
  auto der = unseal_ ? unseal_(blob, id) : std::optional(std::move(blob));
  if (!der) return std::nullopt;
  auto key = crypto::der_decode_private_key(*der);
  secure::secure_zero(*der);
  if (!key) return std::nullopt;

  const std::size_t victim_slot = victim();
  evict_slot(victim_slot);
  make_working_room();

  // Materialize: all six private parts as limb images on one page.
  Slot& s = slots_[victim_slot];
  s.view = sslsim::SimRsaKey{};
  s.view.cache_private = false;
  lock_page(s, true);
  sim::VirtAddr cursor = s.page;
  const auto place = [&](sslsim::SimBignum& part, const bn::Bignum& v) {
    const auto image = sslsim::SslLibrary::limb_image(v);
    kernel_.mem_write(proc_, cursor, image, sim::TaintTag::kPoolKey);
    part = sslsim::SimBignum{cursor, image.size() / 8, /*static_data=*/true};
    cursor += image.size();
  };
  place(s.view.d, key->d);
  place(s.view.p, key->p);
  place(s.view.q, key->q);
  place(s.view.dmp1, key->dmp1);
  place(s.view.dmq1, key->dmq1);
  place(s.view.iqmp, key->iqmp);
  assert(cursor - s.page <= sim::kPageSize);
  s.used_bytes = cursor - s.page;
  s.occupant = id;
  s.is_plaintext = true;
  s.last_used = ++clock_;
  e.slot = static_cast<int>(victim_slot);
  key->scrub_private_parts();
  count(stats_.unseals, kUnseals);
  bus_event(obs::ObsEventKind::kKeystoreUnseal, id, /*blob=*/1);
  return victim_slot;
}

std::size_t SimKeyPool::victim() const {
  std::size_t lru = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].occupant) return i;
    if (slots_[i].last_used < slots_[lru].last_used) lru = i;
  }
  return lru;
}

void SimKeyPool::make_working_room() {
  while (plaintext_count() >= working_set_) {
    std::size_t lru = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].is_plaintext) continue;
      if (lru == slots_.size() || slots_[i].last_used < slots_[lru].last_used) {
        lru = i;
      }
    }
    reencrypt_slot(lru);
  }
}

void SimKeyPool::reencrypt_slot(std::size_t si) {
  Slot& s = slots_[si];
  assert(s.occupant && s.is_plaintext);
  obs::Tracer::Span span(obs::Tracer::global(), names_[kReencryptSpan]);
  if (span.live()) {
    span.add(obs::TraceAttr::n("key", static_cast<double>(*s.occupant)));
    span.add(obs::TraceAttr::n("slot", static_cast<double>(si)));
  }
  // Fresh epoch per re-encryption: the (key, epoch) pair is never reused
  // for two different page states, so CTR nonces never collide.
  ++s.epoch;
  std::vector<std::byte> ks(s.used_bytes);
  if (!page_keystream_ || !page_keystream_(page_nonce(*s.occupant, s.epoch), ks)) {
    // No keystream: we cannot produce ciphertext, so fail in the
    // amnesiac direction — scrub the slot. The key survives as its blob.
    evict_slot(si);
    return;
  }
  std::vector<std::byte> page(s.used_bytes);
  kernel_.mem_read(proc_, s.page, page);
  for (std::size_t i = 0; i < page.size(); ++i) page[i] ^= ks[i];
  secure::secure_zero(ks);
  // The write retags the bytes kSealed — from this instant the frame holds
  // ciphertext, drops out of the secret-taint census, and may be unlocked.
  kernel_.mem_write(proc_, s.page, page, sim::TaintTag::kSealed);
  secure::secure_zero(page);
  lock_page(s, false);
  s.is_plaintext = false;
  count(stats_.reencrypts, kReencrypts);
  bus_event(obs::ObsEventKind::kKeystoreSeal, *s.occupant);
  publish_occupancy();
}

void SimKeyPool::reencrypt_all() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].occupant && slots_[i].is_plaintext) reencrypt_slot(i);
  }
}

void SimKeyPool::evict_slot(std::size_t si) {
  Slot& slot = slots_[si];
  if (!slot.occupant) return;
  obs::Tracer::Span span(obs::Tracer::global(), names_[kEvictSpan]);
  if (span.live()) {
    span.add(obs::TraceAttr::n("key", static_cast<double>(*slot.occupant)));
    span.add(obs::TraceAttr::n("slot", static_cast<double>(si)));
    span.add(obs::TraceAttr::b("scrub", scrub_on_evict_));
  }
  keys_.at(*slot.occupant).slot = -1;
  bus_event(obs::ObsEventKind::kKeystoreEvict, *slot.occupant);
  if (scrub_on_evict_ && slot.used_bytes > 0) {
    obs::Tracer::Span scrub(obs::Tracer::global(), names_[kScrubSpan]);
    if (scrub.live()) {
      scrub.add(obs::TraceAttr::n("bytes", static_cast<double>(slot.used_bytes)));
    }
    kernel_.mem_zero(proc_, slot.page, slot.used_bytes);
  }
  if (slot.is_plaintext) lock_page(slot, false);
  slot.occupant.reset();
  slot.view = sslsim::SimRsaKey{};
  slot.used_bytes = 0;
  slot.is_plaintext = false;
  // slot.epoch is NOT reset: it increments monotonically for the life of
  // the page so no (key, epoch) nonce pair can recur with new contents.
  count(stats_.evictions, kEvictions);
  publish_occupancy();
}

void SimKeyPool::evict(KeyId id) {
  const auto it = keys_.find(id);
  if (it == keys_.end() || it->second.slot < 0) return;
  evict_slot(static_cast<std::size_t>(it->second.slot));
}

void SimKeyPool::evict_all() {
  for (std::size_t i = 0; i < slots_.size(); ++i) evict_slot(i);
}

void SimKeyPool::shutdown() {
  if (shut_) return;
  shut_ = true;
  evict_all();
  for (auto& s : slots_) {
    kernel_.munmap(proc_, s.page, sim::kPageSize);
    s.page = 0;
  }
  for (auto& [id, e] : keys_) {
    if (e.blob == 0) continue;
    if (seal_ || !clear_temporaries_) {
      // Ciphertext at rest has nothing secret to scrub; the stock
      // library raw-frees plaintext DER too.
      kernel_.heap_free(proc_, e.blob);  // keylint: allow(raw-free)
    } else {
      kernel_.heap_clear_free(proc_, e.blob);
    }
    e.blob = 0;
  }
}

bool SimKeyPool::pooled(KeyId id) const {
  const auto it = keys_.find(id);
  return it != keys_.end() && it->second.slot >= 0;
}

bool SimKeyPool::plaintext(KeyId id) const {
  const auto it = keys_.find(id);
  return it != keys_.end() && it->second.slot >= 0 &&
         slots_[static_cast<std::size_t>(it->second.slot)].is_plaintext;
}

std::size_t SimKeyPool::pooled_count() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.occupant.has_value();
  return n;
}

std::size_t SimKeyPool::plaintext_count() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.is_plaintext;
  return n;
}

}  // namespace keyguard::keystore
