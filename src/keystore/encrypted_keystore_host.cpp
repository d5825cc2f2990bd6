#include "keystore/encrypted_keystore_host.hpp"

namespace keyguard::keystore {

EncryptedHostKeystore::EncryptedHostKeystore(sim::CoprocessorDomain& domain,
                                             EncryptedHostConfig cfg)
    : pool_(
          "enc_keystore_host", cfg.working_set,
          [&domain](std::span<const std::byte> der, KeyId id) {
            return seal_authenticated(der, domain, id);
          },
          [&domain](std::span<const std::byte> blob, std::span<std::byte> der) {
            return unseal_authenticated_into(blob, domain, der);
          }) {}

}  // namespace keyguard::keystore
