// Golden regression pins: exact, deterministic outcomes for fixed seeds.
//
// The whole reproduction is seeded, so these numbers are stable across
// runs and platforms (the simulator uses no wall-clock, no ASLR-visible
// addresses, no host allocator state). If a refactor changes them, that
// is a BEHAVIOUR change to the simulated machine — intended changes must
// update the pins consciously; unintended ones get caught here instead of
// as silent drift in every calibrated benchmark.
#include <gtest/gtest.h>

#include "attack/leaks.hpp"
#include "core/protection.hpp"
#include "core/scenario.hpp"
#include "servers/sni_frontend.hpp"
#include "servers/ssh_server.hpp"
#include "util/bytes.hpp"

namespace keyguard {
namespace {

core::ScenarioConfig golden_config(core::ProtectionLevel level) {
  core::ScenarioConfig cfg;
  cfg.level = level;
  cfg.mem_bytes = 16ull << 20;
  cfg.key_bits = 512;
  cfg.seed = 777777;
  return cfg;
}

TEST(Golden, KeyGenerationPinned) {
  core::Scenario s(golden_config(core::ProtectionLevel::kNone));
  // The key itself is a function of the seed alone.
  EXPECT_EQ(s.key().n.bit_length(), 512u);
  EXPECT_EQ(s.key().n.mod_limb(1000003), 331420u);
  EXPECT_EQ(s.key().d.mod_limb(1000003), 788327u);
}

TEST(Golden, BaselineWorkloadCensusPinned) {
  core::Scenario s(golden_config(core::ProtectionLevel::kNone));
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 15; ++i) server.handle_connection(8 << 10);
  const auto census = scan::KeyScanner::census(s.scanner().scan_kernel(s.kernel()));
  EXPECT_EQ(census.allocated, 5u);
  EXPECT_EQ(census.unallocated, 25u);
}

TEST(Golden, IntegratedWorkloadCensusPinned) {
  core::Scenario s(golden_config(core::ProtectionLevel::kIntegrated));
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 15; ++i) server.handle_connection(8 << 10);
  const auto census = scan::KeyScanner::census(s.scanner().scan_kernel(s.kernel()));
  EXPECT_EQ(census.allocated, 3u);
  EXPECT_EQ(census.unallocated, 0u);
}

TEST(Golden, Ext2CaptureCopiesPinned) {
  core::Scenario s(golden_config(core::ProtectionLevel::kNone));
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 15; ++i) server.handle_connection(8 << 10);
  attack::Ext2DirectoryLeak leak(s.kernel());
  leak.create_directories(500);
  EXPECT_EQ(s.scanner().count_copies(leak.capture()), 4u);
}

TEST(Golden, ScanOrderInvariantAcrossShardCounts) {
  // The parallel merge contract as a golden pin: for a fixed workload, the
  // full match list (offsets, parts, frames, provenance) is identical at
  // every shard count and arrives in ascending phys_offset order.
  core::Scenario s(golden_config(core::ProtectionLevel::kNone));
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 15; ++i) server.handle_connection(8 << 10);
  auto& scanner = s.scanner();
  scanner.set_shards(1);
  const auto serial = scanner.scan_kernel(s.kernel());
  ASSERT_FALSE(serial.empty());
  for (std::size_t i = 1; i < serial.size(); ++i) {
    ASSERT_LE(serial[i - 1].phys_offset, serial[i].phys_offset);
  }
  for (const std::size_t shards : {2u, 4u, 8u}) {
    scanner.set_shards(shards);
    const auto parallel = scanner.scan_kernel(s.kernel());
    ASSERT_EQ(parallel.size(), serial.size()) << shards << " shards";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].phys_offset, serial[i].phys_offset) << shards;
      ASSERT_EQ(parallel[i].part, serial[i].part) << shards;
      ASSERT_EQ(parallel[i].provenance, serial[i].provenance) << shards;
    }
  }
  scanner.set_shards(0);  // restore auto for any later use of the scenario
}

TEST(Golden, MemoryImageHashPinned) {
  // The strongest pin: a full workload's final physical memory, hashed.
  core::Scenario s(golden_config(core::ProtectionLevel::kNone));
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 10; ++i) server.handle_connection(4 << 10);
  server.stop();
  const auto h = util::fnv1a(s.kernel().memory().all());
  // Compare against a second identical run rather than a constant, so the
  // pin is platform-independent while still catching nondeterminism.
  core::Scenario s2(golden_config(core::ProtectionLevel::kNone));
  servers::SshServer server2(s2.kernel(), s2.ssh_config(), s2.make_rng());
  ASSERT_TRUE(server2.start());
  for (int i = 0; i < 10; ++i) server2.handle_connection(4 << 10);
  server2.stop();
  EXPECT_EQ(h, util::fnv1a(s2.kernel().memory().all()));
}

struct SniPin {
  keystore::PoolBackend backend;
  core::ProtectionLevel level;
  std::uint64_t memory_hash;
  std::size_t allocated;
  std::size_t unallocated;
};

TEST(Golden, SniPoolMemoryImagePinned) {
  // Every simulated byte an SNI frontend leaves behind, per pool backend
  // and protection level: 24 vhosts over 6 distinct keys, N=4, W=2, 200
  // skewed requests. The hash is taken before stop() so the pool pages,
  // blobs and heap residue all count.
  constexpr SniPin kPins[] = {
      {keystore::PoolBackend::kMlocked, core::ProtectionLevel::kNone,
       0x662a57020ea2c509ULL, 37, 0},
      {keystore::PoolBackend::kMlocked, core::ProtectionLevel::kIntegrated,
       0xe4c3c293a671f494ULL, 12, 0},
      {keystore::PoolBackend::kEncrypted, core::ProtectionLevel::kNone,
       0x98e2338c5e1919afULL, 30, 0},
      {keystore::PoolBackend::kEncrypted, core::ProtectionLevel::kIntegrated,
       0x312d26e9eb1a2a14ULL, 6, 0},
  };
  util::Rng key_rng(2024);
  std::vector<crypto::RsaPrivateKey> distinct;
  for (int i = 0; i < 6; ++i) distinct.push_back(crypto::generate_rsa_key(key_rng, 512));
  std::vector<crypto::RsaPrivateKey> vhosts;
  for (std::size_t i = 0; i < 24; ++i) vhosts.push_back(distinct[i % distinct.size()]);
  const scan::KeyScanner scanner(scan::KeyPatterns::from_keys(distinct));

  for (const auto& pin : kPins) {
    SCOPED_TRACE(std::string(keystore::pool_backend_name(pin.backend)) + "/" +
                 std::string(core::protection_name(pin.level)));
    const auto profile = core::make_profile(pin.level, 16ull << 20);
    sim::Kernel kernel(profile.kernel);
    auto cfg = core::sni_config(profile, 4);
    cfg.backend = pin.backend;
    cfg.encrypted.working_set = 2;
    servers::SniFrontend frontend(kernel, cfg, util::Rng(31));
    ASSERT_TRUE(frontend.start(vhosts));
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(frontend.handle_request());
    const auto census = scan::KeyScanner::census(scanner.scan_kernel(kernel));
    const auto hash = util::fnv1a(kernel.memory().all());
    frontend.stop();
    EXPECT_EQ(hash, pin.memory_hash);
    EXPECT_EQ(census.allocated, pin.allocated);
    EXPECT_EQ(census.unallocated, pin.unallocated);
  }
}

}  // namespace
}  // namespace keyguard
