// Micro-benchmarks (google-benchmark) for the host-side defense primitives
// and the simulator's hot paths: what each protective mechanism actually
// costs at the operation level.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>

#include "bignum/prime.hpp"
#include "core/key_vault.hpp"
#include "attack/leaks.hpp"
#include "core/scenario.hpp"
#include "core/secure_buffer.hpp"
#include "core/secure_rsa.hpp"
#include "core/secure_zero.hpp"
#include "crypto/rsa.hpp"
#include "scan/key_scanner.hpp"
#include "servers/ssh_server.hpp"

using namespace keyguard;

namespace {

// --- zeroization ------------------------------------------------------------

void BM_Memset(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::memset(buf.data(), 0, buf.size());
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Memset)->Range(64, 64 << 10);

void BM_SecureZero(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    secure::secure_zero(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SecureZero)->Range(64, 64 << 10);

void BM_ConstantTimeEqual(benchmark::State& state) {
  std::vector<std::byte> a(static_cast<std::size_t>(state.range(0)), std::byte{1});
  std::vector<std::byte> b = a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(secure::constant_time_equal(a, b));
  }
}
BENCHMARK(BM_ConstantTimeEqual)->Range(32, 4096);

// --- secure storage ----------------------------------------------------------

void BM_SecureBufferRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    secure::SecureBuffer buf(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(buf.data().data());
  }
}
BENCHMARK(BM_SecureBufferRoundTrip)->Range(256, 64 << 10);

void BM_KeyVaultStoreErase(benchmark::State& state) {
  secure::KeyVault vault;
  std::vector<std::byte> material(1024, std::byte{0x5a});
  for (auto _ : state) {
    const auto id = vault.store(material);
    vault.erase(id);
  }
}
BENCHMARK(BM_KeyVaultStoreErase);

// --- crypto -------------------------------------------------------------------

const crypto::RsaPrivateKey& bench_key() {
  static const crypto::RsaPrivateKey key = [] {
    util::Rng rng(12);
    return crypto::generate_rsa_key(rng, 1024);
  }();
  return key;
}

void BM_RsaCrtPrivateOp(benchmark::State& state) {
  util::Rng rng(13);
  const bn::Bignum c = bn::random_below(rng, bench_key().n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench_key().decrypt_crt(c));
  }
}
BENCHMARK(BM_RsaCrtPrivateOp);

void BM_RsaPlainPrivateOp(benchmark::State& state) {
  util::Rng rng(14);
  const bn::Bignum c = bn::random_below(rng, bench_key().n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench_key().decrypt_plain(c));
  }
}
BENCHMARK(BM_RsaPlainPrivateOp);

// The host-side single-copy key object vs the plain struct: the secure
// custody (reads from the mlocked buffer per op) must cost nothing
// measurable — the paper's no-penalty claim for real programs.
void BM_SecureRsaKeyDecrypt(benchmark::State& state) {
  const auto secure_key = secure::SecureRsaKey::from_key(bench_key());
  util::Rng rng(15);
  const bn::Bignum c = bn::random_below(rng, bench_key().n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secure_key.decrypt(c));
  }
}
BENCHMARK(BM_SecureRsaKeyDecrypt);

// --- scanner ---------------------------------------------------------------

// Arg 0: memory MB. Arg 1: shard count (1 = the serial LKM walk). The
// label carries the scanner's own ScanStats MB/s so the sharded engine's
// throughput is visible next to google-benchmark's bytes/s.
void BM_ScanMemory(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.mem_bytes = static_cast<std::size_t>(state.range(0)) << 20;
  cfg.key_bits = 1024;
  core::Scenario s(cfg);
  auto& p = s.kernel().spawn("victim");
  for (int i = 0; i < 8; ++i) {
    const auto a = s.kernel().heap_alloc(p, 4096);
    s.kernel().mem_write(p, a, sslsim::SslLibrary::limb_image(s.key().p));
  }
  s.scanner().set_shards(static_cast<std::size_t>(state.range(1)));
  scan::ScanStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.scanner().scan_kernel(s.kernel(), &stats));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (state.range(0) << 20));
  state.SetLabel(std::to_string(stats.shard_count) + " shards, " +
                 std::to_string(static_cast<long long>(stats.mb_per_sec())) +
                 " MB/s");
}
// Real time: sharded scans run on pool workers, so main-thread CPU time
// would undercount them and inflate bytes_per_second.
BENCHMARK(BM_ScanMemory)
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->UseRealTime();

// --- simulator hot paths -----------------------------------------------------

void BM_PageAllocFree(benchmark::State& state) {
  sim::PhysicalMemory mem(16ull << 20);
  sim::PageAllocator alloc(mem, {.zero_on_free = state.range(0) != 0}, util::Rng(1));
  for (auto _ : state) {
    const auto f = alloc.alloc(sim::FrameState::kKernel);
    alloc.free(*f);
  }
  state.SetLabel(state.range(0) ? "zero_on_free" : "stock");
}
BENCHMARK(BM_PageAllocFree)->Arg(0)->Arg(1);

// The claim behind Figure 8, at micro scale: a full connection (fork,
// handshake, exit) costs the same with and without the integrated defense.
void BM_SshConnection(benchmark::State& state) {
  const auto level = state.range(0) ? core::ProtectionLevel::kIntegrated
                                    : core::ProtectionLevel::kNone;
  core::ScenarioConfig cfg;
  cfg.level = level;
  cfg.mem_bytes = 64ull << 20;
  cfg.key_bits = 1024;
  core::Scenario s(cfg);
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  server.start();
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_connection(16 << 10));
  }
  state.SetLabel(state.range(0) ? "integrated" : "stock");
}
BENCHMARK(BM_SshConnection)->Arg(0)->Arg(1);

void BM_Ext2LeakPerDirectory(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.mem_bytes = 128ull << 20;
  core::Scenario s(cfg);
  attack::Ext2DirectoryLeak leak(s.kernel());
  for (auto _ : state) {
    if (!leak.create_directory()) {
      // Free memory exhausted: unmount the stick and keep measuring.
      state.PauseTiming();
      leak.release();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_Ext2LeakPerDirectory);

}  // namespace

BENCHMARK_MAIN();
