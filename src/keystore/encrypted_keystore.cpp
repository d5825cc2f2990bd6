#include "keystore/encrypted_keystore.hpp"

namespace keyguard::keystore {

EncryptedPoolKeystore::EncryptedPoolKeystore(sim::Kernel& kernel, sim::Process& proc,
                                             sim::CoprocessorDomain& domain,
                                             EncryptedKeystoreConfig cfg)
    : SimKeyPool(
          kernel, proc,
          {.backend = PoolBackend::kEncrypted,
           .prefix = "enc_keystore",
           .pool_pages = cfg.pool_pages,
           .working_set = cfg.working_set,
           .scrub_on_evict = cfg.scrub_on_evict,
           .clear_temporaries = cfg.clear_temporaries,
           .open_keys_nocache = cfg.open_keys_nocache,
           .seal = [this](std::span<const std::byte> der, KeyId id) {
             return seal_authenticated(der, domain_, blob_nonce(id));
           },
           .unseal = [this](std::span<const std::byte> blob, KeyId) {
             return unseal_authenticated(blob, domain_);
           },
           .page_keystream = [this](std::uint64_t nonce, std::span<std::byte> out) {
             return domain_.keystream(nonce, out);
           }}),
      domain_(domain),
      cfg_(cfg) {}

EncryptedKeystoreStats EncryptedPoolKeystore::stats() const {
  const SimPoolStats& s = counts();
  return {.ingested = s.ingested,
          .ops = s.ops,
          .working_hits = s.pool_hits,
          .page_decrypts = s.page_decrypts,
          .reencrypts = s.reencrypts,
          .blob_unseals = s.unseals,
          .evictions = s.evictions,
          .refusals = s.refusals};
}

}  // namespace keyguard::keystore
