#include "servers/sni_frontend.hpp"

#include "crypto/pem.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace keyguard::servers {

using bn::Bignum;

namespace {

constexpr std::size_t kResponseBytes = 8ull << 10;  ///< per-request heap churn
constexpr std::uint64_t kDomainSeed = 0x636f70726f63ULL;

}  // namespace

SniFrontend::SniFrontend(sim::Kernel& kernel, SniConfig cfg, util::Rng rng)
    : kernel_(kernel), cfg_(std::move(cfg)), rng_(rng) {}

bool SniFrontend::start(std::span<const crypto::RsaPrivateKey> vhost_keys) {
  if (proc_ != nullptr) return true;
  proc_ = &kernel_.spawn("sni_frontend");
  if (cfg_.backend == keystore::PoolBackend::kEncrypted) {
    domain_.emplace(kDomainSeed);
    enc_keystore_.emplace(kernel_, *proc_, *domain_, cfg_.encrypted);
    pool_ = &*enc_keystore_;
  } else {
    keystore_.emplace(kernel_, *proc_, cfg_.keystore);
    pool_ = &*keystore_;
  }
  ids_.reserve(vhost_keys.size());
  for (std::size_t i = 0; i < vhost_keys.size(); ++i) {
    const std::string path = cfg_.key_dir + "/vhost" + std::to_string(i) + ".key";
    kernel_.vfs().write_file(
        path, util::to_bytes(crypto::pem_encode_private_key(vhost_keys[i])),
        sim::TaintTag::kPem);
    const auto id = pool_->ingest_pem(path);
    if (!id) {
      stop();
      return false;
    }
    ids_.push_back(*id);
  }
  return true;
}

void SniFrontend::stop() {
  if (proc_ == nullptr) return;
  // Graceful shutdown: the keystore scrubs its pool (and master page)
  // BEFORE the process exits (exit tears the address space down without
  // clearing, so ordering matters — the §4 "special care before the
  // application dies" requirement again). Each facade's destructor runs
  // its shutdown.
  pool_ = nullptr;
  keystore_.reset();
  enc_keystore_.reset();
  domain_.reset();
  kernel_.exit_process(*proc_);
  proc_ = nullptr;
}

sim::Pid SniFrontend::pid() const { return proc_ ? proc_->pid() : 0; }

bool SniFrontend::handle_request(std::size_t vhost) {
  if (proc_ == nullptr || vhost >= ids_.size()) return false;
  obs::ServerRequestScope ev(obs::kServerKindSni);
  obs::Tracer::Span span(obs::Tracer::global(), "sni.request");
  if (span.live()) {
    span.add(obs::TraceAttr::s("level", cfg_.protection_label));
    span.add(obs::TraceAttr::n("vhost", static_cast<double>(vhost)));
  }
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("sni.requests").add(1);
  }
  const keystore::KeyId id = ids_[vhost];

  // Client side: encrypt a session secret to the vhost's public key.
  std::vector<std::byte> secret(32);
  rng_.fill_bytes(secret);
  const auto& pub = pool_->public_key(id);
  auto ciphertext = crypto::pad_encrypt(rng_, pub, secret);
  if (!ciphertext) return false;

  // Server side: the private op through the keystore (pool hit or
  // materialize + LRU evict). The encrypted backend is fail-closed — a
  // refusal surfaces as a failed handshake, never a plaintext fallback.
  const auto plain_opt = pool_->try_private_op(id, *ciphertext);
  if (!plain_opt) return false;
  const Bignum& plain = *plain_opt;

  // The recovered secret passes through heap scratch before key-schedule
  // use, exactly like the sshd child.
  const auto plain_bytes = plain.to_bytes_be();
  // keylint: allow(unscrubbed) — stock handshake churn: freed uncleared,
  // same residue source the server figures count
  const sim::VirtAddr scratch =
      kernel_.heap_alloc(*proc_, plain_bytes.size(), "session secret scratch");
  if (scratch != 0) {
    kernel_.mem_write(*proc_, scratch, plain_bytes);
    kernel_.heap_free(*proc_, scratch);  // keylint: allow(raw-free)
  }

  // Response body churn through the worker heap.
  if (const sim::VirtAddr buf = kernel_.heap_alloc(*proc_, kResponseBytes, "response buffer");
      buf != 0) {
    std::vector<std::byte> body(kResponseBytes);
    rng_.fill_bytes(body);
    kernel_.mem_write(*proc_, buf, body);
    // keylint: allow(raw-free) — response body is public bytes
    kernel_.heap_free(*proc_, buf);
  }

  const auto block = plain.to_bytes_be(pub.modulus_bytes());
  const std::vector<std::byte> tail(
      block.end() - static_cast<std::ptrdiff_t>(secret.size()), block.end());
  ++handshakes_;
  ev.ok = (tail == secret);
  return ev.ok;
}

bool SniFrontend::handle_request() {
  if (ids_.empty()) return false;
  // Skewed popularity: the hot fifth of vhosts takes cfg_.hot_fraction of
  // the traffic; the long tail forces pool churn.
  const std::size_t hot = std::max<std::size_t>(1, ids_.size() / 5);
  const std::size_t vhost = rng_.next_double() < cfg_.hot_fraction
                                ? rng_.next_below(hot)
                                : rng_.next_below(ids_.size());
  return handle_request(vhost);
}

}  // namespace keyguard::servers
