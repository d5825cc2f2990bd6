// Simulated SNI front end: the multi-tenant workload the keystore exists
// for.
//
// One process terminates TLS for MANY virtual hosts (mod_ssl with
// hundreds of SNI certificates, or a CDN edge). Each vhost has its own
// RSA private key on disk; the paper's one-mlocked-page-per-key defense
// does not scale here, so the frontend routes every private operation
// through a SimKeyPool (SimKeystore or EncryptedPoolKeystore): keys rest
// sealed, at most N (or W) are plaintext at any instant, and eviction
// scrubs.
//
// Traffic shape: handle_request() draws vhosts from a skewed popularity
// distribution (a hot fifth of the vhosts takes ~80% of requests — the
// regime where an LRU pool earns its keep), runs the RSA handshake
// against the chosen vhost's key, and churns a response buffer through
// the heap like the Apache worker does.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "keystore/encrypted_keystore.hpp"
#include "keystore/sim_keystore.hpp"
#include "sim/coprocessor.hpp"
#include "util/rng.hpp"

namespace keyguard::servers {

struct SniConfig {
  std::string key_dir = "/etc/sni";        ///< one PEM file per vhost
  std::size_t response_bytes = 8ull << 10; ///< per-request heap churn
  double hot_fraction = 0.8;               ///< share of traffic on the hot set
  /// Pool discipline: kMlocked routes through SimKeystore (`keystore`),
  /// kEncrypted through EncryptedPoolKeystore (`encrypted` + a private
  /// CoprocessorDomain seeded with `domain_seed`).
  keystore::PoolBackend backend = keystore::PoolBackend::kMlocked;
  keystore::SimKeystoreConfig keystore;
  keystore::EncryptedKeystoreConfig encrypted;
  std::uint64_t domain_seed = 0x636f70726f63ULL;
  /// Protection level this config encodes; set by core::sni_config and
  /// stamped onto per-request trace spans.
  std::string protection_label = "none";
};

class SniFrontend {
 public:
  SniFrontend(sim::Kernel& kernel, SniConfig cfg, util::Rng rng);

  /// Spawns the frontend process, writes one PEM file per vhost key under
  /// key_dir, and ingests them all into the keystore. `vhost_keys` may
  /// repeat (a small distinct set cycled over many vhosts keeps huge
  /// populations affordable); every vhost still gets its own file, blob,
  /// and KeyId. Returns false when any ingest fails.
  bool start(std::span<const crypto::RsaPrivateKey> vhost_keys);

  /// Shuts the keystore down (scrub per config) and exits the process.
  void stop();

  bool running() const noexcept { return proc_ != nullptr; }
  sim::Pid pid() const;
  std::size_t vhost_count() const noexcept { return ids_.size(); }
  /// KeyId the keystore assigned to vhost `i` (valid after start()) —
  /// benches snapshot per-key pooled state as dedup-attack ground truth.
  keystore::KeyId vhost_key(std::size_t i) const { return ids_.at(i); }
  std::uint64_t total_handshakes() const noexcept { return handshakes_; }

  /// Full handshake + response churn for one vhost. False on bad decrypt
  /// OR a fail-closed keystore refusal — never a plaintext fallback.
  bool handle_request(std::size_t vhost);
  /// Same, vhost drawn from the skewed popularity distribution.
  bool handle_request();

  /// mlocked-backend accessor; only valid when backend == kMlocked.
  keystore::SimKeystore& keystore() { return *keystore_; }
  const keystore::SimKeystore& keystore() const { return *keystore_; }
  /// encrypted-backend accessor; only valid when backend == kEncrypted.
  keystore::EncryptedPoolKeystore& encrypted_keystore() { return *enc_keystore_; }
  const keystore::EncryptedPoolKeystore& encrypted_keystore() const {
    return *enc_keystore_;
  }

 private:
  sim::Kernel& kernel_;
  SniConfig cfg_;
  util::Rng rng_;
  sim::Process* proc_ = nullptr;
  std::optional<sim::CoprocessorDomain> domain_;
  std::optional<keystore::SimKeystore> keystore_;
  std::optional<keystore::EncryptedPoolKeystore> enc_keystore_;
  keystore::SimKeyPool* pool_ = nullptr;  ///< whichever facade is live
  std::vector<keystore::KeyId> ids_;  ///< vhost index -> key id
  std::uint64_t handshakes_ = 0;
};

}  // namespace keyguard::servers
