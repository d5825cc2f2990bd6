// Blob-nonce salting: the anti-dedup defense for sealed ciphertext.
//
// Two tenants with the same master seed ingesting the same key file
// produce byte-identical sealed blobs (KeyIds are sequential per store,
// so the nonces collide too) — page-granular dedup then merges them and
// the timing probe learns which keys a co-tenant holds WITHOUT breaking
// the seal. salted_nonce() makes each tenant's ciphertext unique while
// decrypting identically; salt 0 keeps the legacy layout bit-for-bit.
#include "keystore/sealed_blob.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/pem.hpp"
#include "keystore/encrypted_keystore.hpp"
#include "keystore/sim_keystore.hpp"
#include "sim/coprocessor.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::keystore {
namespace {

crypto::RsaPrivateKey test_key() {
  util::Rng rng(4242);
  return crypto::generate_rsa_key(rng, 512);
}

constexpr const char* kPemPath = "/keys/shared.pem";

void write_key(sim::Kernel& k, const crypto::RsaPrivateKey& key) {
  k.vfs().write_file(kPemPath,
                     util::to_bytes(crypto::pem_encode_private_key(key)),
                     sim::TaintTag::kPem);
}

std::vector<std::byte> blob_bytes(sim::Kernel& k, sim::Process& p,
                                  sim::VirtAddr addr, std::size_t len) {
  std::vector<std::byte> out(len);
  k.mem_read(p, addr, out);
  return out;
}

TEST(SaltedNonce, SaltZeroIsTheIdentity) {
  for (std::uint64_t nonce : {0ull, 1ull, 7ull, 0x123456789abcull}) {
    EXPECT_EQ(salted_nonce(nonce, 0), nonce);
  }
}

TEST(SaltedNonce, StaysOutOfThePageNonceSpace) {
  // Bit 63 marks the encrypted backend's page nonces; a salted blob
  // nonce must never collide into that half, whatever the salt.
  for (std::uint64_t salt : {1ull, 0xffffffffffffffffull, 0x8000000000000000ull}) {
    for (std::uint64_t nonce = 0; nonce < 64; ++nonce) {
      EXPECT_EQ(salted_nonce(nonce, salt) >> 63, 0u) << salt << "/" << nonce;
    }
  }
}

TEST(SaltedNonce, DistinctNoncesAndSaltsStayDistinct) {
  // Same salt: the per-key nonces a store hands out must not collide.
  std::set<std::uint64_t> seen;
  for (std::uint64_t nonce = 1; nonce <= 256; ++nonce) {
    EXPECT_TRUE(seen.insert(salted_nonce(nonce, 0xfeedULL)).second) << nonce;
  }
  // Same nonce: different tenants (salts) get different streams.
  std::set<std::uint64_t> across;
  for (std::uint64_t salt = 1; salt <= 256; ++salt) {
    EXPECT_TRUE(across.insert(salted_nonce(7, salt)).second) << salt;
  }
}

TEST(BlobSalt, UnsaltedTenantsCollideAndSaltedOnesDoNot) {
  const auto key = test_key();
  sim::Kernel kernel(sim::KernelConfig{.mem_bytes = 16ull << 20,
                                       .o_nocache_supported = true});
  write_key(kernel, key);

  // Four tenants, one machine, same default master seed: the cross-VM
  // setting the dedup attack needs. Salts: two legacy, two defended.
  const std::uint64_t salts[] = {0, 0, 0x111, 0x222};
  std::vector<sim::Process*> procs;
  std::vector<std::unique_ptr<SimKeystore>> stores;
  std::vector<KeyId> ids;
  for (std::size_t i = 0; i < 4; ++i) {
    procs.push_back(&kernel.spawn("tenant" + std::to_string(i)));
    SimKeystoreConfig cfg;
    cfg.pool_pages = 2;
    cfg.blob_salt = salts[i];
    stores.push_back(std::make_unique<SimKeystore>(kernel, *procs[i], cfg));
    ids.push_back(stores[i]->ingest_pem(kPemPath).value());
  }

  std::vector<std::vector<std::byte>> blobs;
  for (std::size_t i = 0; i < 4; ++i) {
    blobs.push_back(blob_bytes(kernel, *procs[i], stores[i]->blob_address(ids[i]),
                               stores[i]->blob_size(ids[i])));
  }
  EXPECT_EQ(blobs[0], blobs[1]);  // legacy twins: byte-identical at rest
  EXPECT_NE(blobs[2], blobs[0]);  // salted vs legacy
  EXPECT_NE(blobs[3], blobs[0]);
  EXPECT_NE(blobs[2], blobs[3]);  // and salted tenants differ pairwise

  // Salting changes the ciphertext ONLY: every tenant still serves the
  // same key correctly.
  const bn::Bignum m(987654321);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto c = stores[i]->public_key(ids[i]).encrypt_raw(m);
    EXPECT_EQ(stores[i]->try_private_op(ids[i], c), m) << "tenant " << i;
  }
  for (auto& s : stores) s->shutdown();
}

TEST(BlobSalt, EncryptedBackendSaltsKsb2AndBatchStillPrefetches) {
  const auto key = test_key();
  sim::Kernel kernel(sim::KernelConfig{.mem_bytes = 16ull << 20,
                                       .o_nocache_supported = true});
  write_key(kernel, key);
  sim::CoprocessorDomain domain(0xd0);  // ONE domain shared by both tenants

  auto& pa = kernel.spawn("enc a");
  auto& pb = kernel.spawn("enc b");
  EncryptedKeystoreConfig ca;
  EncryptedKeystoreConfig cb;
  cb.blob_salt = 0x5a17;
  EncryptedPoolKeystore a(kernel, pa, domain, ca);
  EncryptedPoolKeystore b(kernel, pb, domain, cb);
  const auto ida = a.ingest_pem(kPemPath).value();
  const auto idb = b.ingest_pem(kPemPath).value();

  // Same domain, same key, same sequential id — only the salt separates
  // the KSB2 blobs.
  EXPECT_NE(a.blob_nonce(ida), b.blob_nonce(idb));
  EXPECT_EQ(a.blob_nonce(ida), ida);  // salt 0: legacy identity
  const auto blob_a = blob_bytes(kernel, pa, a.blob_address(ida), a.blob_size(ida));
  const auto blob_b = blob_bytes(kernel, pb, b.blob_address(idb), b.blob_size(idb));
  EXPECT_NE(blob_a, blob_b);

  // Batch path under salt: the prefetch cache is keyed by SALTED nonce;
  // a cold batched unseal must hit its own prefetch, not fall back to a
  // second domain round trip (regression for the cache-key path).
  const bn::Bignum m(13579);
  const auto c = b.public_key(idb).encrypt_raw(m);
  const KeyId ids[] = {idb};
  const bn::Bignum cs[] = {c};
  const auto before = b.stats().prefetch_hits;
  const auto out = b.private_op_batch(ids, cs);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_TRUE(out[0].has_value());
  EXPECT_EQ(*out[0], m);
  EXPECT_GT(b.stats().prefetch_hits, before);

  // And the plain path still round-trips on both tenants.
  const auto ra = a.try_private_op(ida, a.public_key(ida).encrypt_raw(m));
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(*ra, m);
  a.shutdown();
  b.shutdown();
}

}  // namespace
}  // namespace keyguard::keystore
