// Quickstart: protecting a private key with keyguard's host-side library.
//
// Generates an RSA key, shows the WRONG way (the PEM text in an ordinary
// std::string) and the RIGHT way (a Keystore seals the key under a master
// key on an mlocked page, the caller scrubs every copy it still holds),
// then signs a message through the store and verifies it with the public
// half.
//
//   ./quickstart
#include <cstdio>
#include <span>
#include <string>

#include "bignum/prime.hpp"
#include "core/secure_zero.hpp"
#include "crypto/pem.hpp"
#include "crypto/rsa.hpp"
#include "keystore/keystore.hpp"
#include "util/bytes.hpp"

using namespace keyguard;

int main() {
  std::printf("keyguard quickstart — single-copy key custody\n");
  std::printf("=============================================\n\n");

  // 1. Generate a key (deterministic here for a reproducible demo).
  util::Rng rng(2007);
  auto key = crypto::generate_rsa_key(rng, 1024);
  std::printf("generated 1024-bit RSA key, fingerprint %s\n",
              crypto::key_fingerprint(key.public_key()).c_str());

  // 2. The WRONG way: the PEM text sits in an ordinary std::string — it
  //    will be copied by value, survive free(), and reach swap.
  std::string careless_pem = crypto::pem_encode_private_key(key);
  std::printf("PEM container is %zu bytes (this copy is UNPROTECTED)\n",
              careless_pem.size());

  // 3. The RIGHT way: hand the PEM to a Keystore. add_pem parses it, seals
  //    the key under the store's master key (one mlocked page when
  //    RLIMIT_MEMLOCK permits) and wipes its parse temporaries. Then scrub
  //    every copy we still hold, so the store keeps the only one — the
  //    paper's RSA_memory_align discipline.
  keystore::Keystore ks({.pool_keys = 1});
  const auto id = ks.add_pem(careless_pem);
  if (!id) {
    std::printf("add_pem refused the PEM\n");
    return 1;
  }
  secure::secure_zero(std::as_writable_bytes(std::span(careless_pem)));
  key.scrub_private_parts();
  const bool scrubbed = util::all_zero(util::as_bytes(careless_pem));
  std::printf("sealed as key id %llu, master key mlocked=%s, PEM source scrubbed=%s\n",
              static_cast<unsigned long long>(*id),
              ks.master_locked() ? "yes" : "no (RLIMIT_MEMLOCK)", scrubbed ? "yes" : "NO");

  // 4. Sign through the store. The key is unsealed into the pool's locked
  //    working copy and the CRT math runs in a locked arena; nothing
  //    private reaches an ordinary allocation.
  const bn::Bignum message(0x48656c6c6fULL);  // "Hello"
  const bn::Bignum signature = ks.sign(*id, message);
  std::printf("pooled working copies after sign: %zu of %zu\n", ks.pooled_count(),
              ks.pool_keys());

  // 5. Verify with the public half.
  const bool ok = ks.public_key(*id).encrypt_raw(signature) == message;
  std::printf("signed demo message, verification: %s\n", ok ? "OK" : "FAILED");

  ks.evict_all();  // scrub the working copy; the sealed blob stays
  std::printf("\npool drained; no key bytes remain in our allocations.\n");
  return ok && scrubbed ? 0 : 1;
}
