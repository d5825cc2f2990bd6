#include "keystore/sim_keystore.hpp"

#include <cassert>
#include <functional>

#include "util/rng.hpp"

namespace keyguard::keystore {

namespace {

// The master key: pinned on its own mlocked page like the paper's vault
// page, mapped before the pool. It never leaves this page except as a
// transient host copy during seal/unseal (wiped immediately after use).
// keylint: allow(unscrubbed) — the page outlives this call by design;
// SimKeystore::shutdown() scrubs it at end of life
sim::VirtAddr map_master(sim::Kernel& kernel, sim::Process& proc, std::uint64_t seed) {
  const sim::VirtAddr page =
      kernel.mmap_anon(proc, kMasterKeyBytes, /*mlocked=*/true, "keystore master key");
  assert(page != 0);
  std::vector<std::byte> master(kMasterKeyBytes);
  util::Rng rng(seed);
  rng.fill_bytes(master);
  kernel.mem_write(proc, page, master, sim::TaintTag::kMasterKey);
  wipe(master);
  return page;
}

}  // namespace

SimKeystore::SimKeystore(sim::Kernel& kernel, sim::Process& proc, SimKeystoreConfig cfg)
    : SimKeystore(kernel, proc, cfg, map_master(kernel, proc, cfg.master_seed)) {}

SimKeystore::SimKeystore(sim::Kernel& kernel, sim::Process& proc, SimKeystoreConfig cfg,
                         sim::VirtAddr master_page)
    : SimKeyPool(kernel, proc,
                 {.backend = PoolBackend::kMlocked,
                  .prefix = "sim_keystore",
                  .pool_pages = cfg.pool_pages,
                  .working_set = cfg.pool_pages,
                  .scrub_on_evict = cfg.scrub_on_evict,
                  .clear_temporaries = cfg.clear_temporaries,
                  .open_keys_nocache = cfg.open_keys_nocache,
                  .seal = cfg.seal_at_rest
                              ? SealFn(std::bind_front(&SimKeystore::seal_blob, this))
                              : nullptr,
                  .unseal = cfg.seal_at_rest
                                ? UnsealFn(std::bind_front(&SimKeystore::unseal_blob, this))
                                : nullptr,
                  .page_keystream = nullptr}),
      cfg_(cfg),
      master_page_(master_page) {}

SimKeystore::~SimKeystore() { shutdown(); }

std::vector<std::byte> SimKeystore::read_master() const {
  std::vector<std::byte> master(kMasterKeyBytes);
  kernel_.mem_read(proc_, master_page_, master);
  return master;
}

std::optional<std::vector<std::byte>> SimKeystore::seal_blob(std::span<const std::byte> der,
                                                             KeyId id) const {
  auto master = read_master();
  auto blob = seal(der, master, salted_nonce(id, cfg_.blob_salt));
  wipe(master);
  return blob;
}

std::optional<std::vector<std::byte>> SimKeystore::unseal_blob(
    std::span<const std::byte> blob, KeyId /*id*/) const {
  auto master = read_master();
  auto der = unseal(blob, master);
  wipe(master);
  return der;
}

void SimKeystore::shutdown() {
  SimKeyPool::shutdown();
  if (master_page_ == 0) return;
  if (cfg_.scrub_on_evict) {
    kernel_.mem_zero(proc_, master_page_, kMasterKeyBytes);
  }
  kernel_.munmap(proc_, master_page_, kMasterKeyBytes);
  master_page_ = 0;
}

SimKeystoreStats SimKeystore::stats() const {
  const SimPoolStats& s = counts();
  return {.ingested = s.ingested,
          .ops = s.ops,
          .pool_hits = s.pool_hits,
          .pool_misses = s.unseals,
          .evictions = s.evictions,
          .unseals = s.unseals,
          .refusals = s.refusals};
}

}  // namespace keyguard::keystore
