#include "keystore/encrypted_keystore.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

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
           .unseal = std::bind_front(&EncryptedPoolKeystore::unseal_blob, this),
           .page_keystream = std::bind_front(&EncryptedPoolKeystore::page_keystream, this)}),
      domain_(domain),
      cfg_(cfg) {}

std::optional<std::vector<std::byte>> EncryptedPoolKeystore::unseal_blob(
    std::span<const std::byte> blob, KeyId id) {
  std::span<const std::byte> ks;
  if (blob.size() >= kSealedHeaderBytes + kAuthTagBytes) {
    const auto it = batch_.find(blob_nonce(id));
    const std::size_t ct_len = blob.size() - kSealedHeaderBytes - kAuthTagBytes;
    if (it != batch_.end() && it->second.size() >= ct_len) {
      ++prefetch_hits_;
      ks = std::span(it->second).first(ct_len);
    }
  }
  return unseal_authenticated(blob, domain_, ks);
}

bool EncryptedPoolKeystore::page_keystream(std::uint64_t nonce, std::span<std::byte> out) {
  const auto it = batch_.find(nonce);
  if (it != batch_.end() && it->second.size() >= out.size()) {
    ++prefetch_hits_;
    std::copy_n(it->second.begin(), out.size(), out.begin());
    return true;
  }
  return domain_.keystream(nonce, out);
}

std::vector<std::optional<bn::Bignum>> EncryptedPoolKeystore::private_op_batch(
    std::span<const KeyId> ids, std::span<const bn::Bignum> cs) {
  assert(ids.size() == cs.size());
  for (const KeyId id : ids) (void)public_key(id);  // unknown ids throw here
  ++batches_;

  // Prefetch: one CTR round trip covers every keystream the queued misses
  // will need — page keystreams for pooled-but-encrypted keys (at their
  // CURRENT epoch) and blob keystreams for unpooled ones. An epoch that
  // moves mid-batch (working-set churn) simply misses the cache and falls
  // back to a single fetch: amortization never changes results.
  for (const KeyId id : ids) {
    if (const auto page = page_reentry(id)) {
      batch_.try_emplace(page->nonce, page->len, std::byte{0});
    } else if (!pooled(id) && blob_size(id) >= kSealedHeaderBytes + kAuthTagBytes) {
      batch_.try_emplace(blob_nonce(id), blob_size(id) - kSealedHeaderBytes - kAuthTagBytes,
                         std::byte{0});
    }
  }
  if (!batch_.empty()) {
    std::vector<sim::CoprocessorDomain::KeystreamRequest> reqs;
    reqs.reserve(batch_.size());
    for (auto& [nonce, out] : batch_) {
      reqs.push_back({nonce, 0, std::span(out)});
    }
    if (!domain_.keystream_batch(reqs)) {
      batch_.clear();  // domain off: per-op paths will refuse on their own
    }
  }

  std::vector<std::optional<bn::Bignum>> out;
  out.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.push_back(try_private_op(ids[i], cs[i]));
  }
  for (auto& [nonce, ks] : batch_) wipe(ks);
  batch_.clear();
  return out;
}

EncryptedKeystoreStats EncryptedPoolKeystore::stats() const {
  const SimPoolStats& s = counts();
  return {.ingested = s.ingested,
          .ops = s.ops,
          .working_hits = s.pool_hits,
          .page_decrypts = s.page_decrypts,
          .reencrypts = s.reencrypts,
          .blob_unseals = s.unseals,
          .evictions = s.evictions,
          .refusals = s.refusals,
          .batches = batches_,
          .prefetch_hits = prefetch_hits_};
}

}  // namespace keyguard::keystore
