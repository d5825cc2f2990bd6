#include "keystore/keystore.hpp"

#include "util/rng.hpp"

namespace keyguard::keystore {

Keystore::Keystore(HostKeystoreConfig cfg)
    : master_(kMasterKeyBytes),
      pool_(
          "keystore", cfg.pool_keys,
          [master = master_.data()](std::span<const std::byte> der, KeyId id) {
            return seal(der, master, id);
          },
          [master = master_.data()](std::span<const std::byte> blob,
                                    std::span<std::byte> der) {
            return unseal_into(blob, master, der);
          }) {
  util::Rng rng(cfg.master_seed);
  rng.fill_bytes(master_.data());
}

}  // namespace keyguard::keystore
