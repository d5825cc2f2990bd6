// Micro-benchmarks (google-benchmark) for the host-side defense primitives
// and the simulator's hot paths: what each protective mechanism actually
// costs at the operation level.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <string_view>

#include "bignum/montgomery.hpp"
#include "bignum/prime.hpp"
#include "core/key_vault.hpp"
#include "attack/leaks.hpp"
#include "core/scenario.hpp"
#include "core/secure_buffer.hpp"
#include "core/secure_rsa.hpp"
#include "core/secure_zero.hpp"
#include "crypto/pem.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "keystore/sealed_blob.hpp"
#include "scan/key_scanner.hpp"
#include "servers/ssh_server.hpp"
#include "sim/coprocessor.hpp"

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

// --- unseal staging ----------------------------------------------------------
//
// A host pool miss stages a key in three phases: unseal the blob (SHA-256
// keystream, plus the domain MAC for KSB2), walk the DER into a slot
// image, and precompute R^2 and qInv mod p (from_der does both).

// Compression over Arg 0 bytes of whole blocks (64 = the one block a
// keystream block hashes). Arg 1: 0 runs crypto::sha256_compress (the
// kernel CPUID picked, named in the label), 1 runs the portable kernel.
void BM_Sha256(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  util::Rng(18).fill_bytes(data);
  const bool portable = state.range(1) != 0;
  const auto compress = portable ? crypto::portable::sha256_compress : crypto::sha256_compress;
  crypto::Sha256State st{};
  for (auto _ : state) {
    compress(st, data);
    benchmark::DoNotOptimize(st.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
  state.SetLabel(portable ? "portable" : crypto::sha256_kernel_name());
}
BENCHMARK(BM_Sha256)->ArgsProduct({{64, 4096}, {0, 1}});

const std::vector<std::byte>& bench_der() {
  static const std::vector<std::byte> der = crypto::der_encode_private_key(bench_key());
  return der;
}

// KSB1: the keystream under a master key, as Keystore's miss runs it.
void BM_UnsealKsb1(benchmark::State& state) {
  std::vector<std::byte> master(keystore::kMasterKeyBytes), out(bench_der().size());
  util::Rng(19).fill_bytes(master);
  const auto blob = keystore::seal(bench_der(), master, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keystore::unseal_into(blob, master, out));
  }
  state.SetLabel(crypto::sha256_kernel_name());
}
BENCHMARK(BM_UnsealKsb1);

// KSB2: the domain's MAC, then its keystream, as EncryptedHostKeystore's
// miss runs them.
void BM_UnsealKsb2(benchmark::State& state) {
  sim::CoprocessorDomain domain(20);
  std::vector<std::byte> out(bench_der().size());
  const auto blob = keystore::seal_authenticated(bench_der(), domain, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keystore::unseal_authenticated_into(*blob, domain, out));
  }
  state.SetLabel(crypto::sha256_kernel_name());
}
BENCHMARK(BM_UnsealKsb2);

// The DER walk into a slot image plus its precompute.
void BM_SlotFromDer(benchmark::State& state) {
  std::vector<bn::Limb> image(secure::rsa_slot::kPageLimbs);
  std::vector<bn::Limb> scratch(secure::rsa_slot::der_scratch_limbs(bench_der().size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(secure::rsa_slot::from_der(image, bench_der(), scratch));
  }
  state.SetLabel(bn::mont::kernel_name());
}
BENCHMARK(BM_SlotFromDer);

// --- Montgomery kernel -------------------------------------------------------

// One odd modulus of `limbs` limbs (top bit set), its R^2, two operands
// below it and a full-width exponent, as the flat spans bn::mont takes.
struct MontOperands {
  explicit MontOperands(std::size_t limbs, std::uint64_t seed = 16)
      : l(limbs), s(bn::mont::scratch_limbs(limbs)) {
    util::Rng rng(seed + limbs);
    bn::Bignum nb = bn::random_bits(rng, 64 * l);
    if (!nb.is_odd()) nb = nb.add_limb(1);
    n = padded(nb);
    a = padded(bn::random_below(rng, nb));
    b = padded(bn::random_below(rng, nb));
    e = padded(bn::random_bits(rng, 64 * l));
    rr.resize(l);
    r.resize(l);
    n0 = bn::mont::neg_inv(n[0]);
    bn::mont::portable::compute_rr(rr, n, n0, s);
  }
  std::vector<bn::Limb> padded(const bn::Bignum& v) const {
    std::vector<bn::Limb> out(v.limbs().begin(), v.limbs().end());
    out.resize(l);
    return out;
  }
  bn::mont::Modulus modulus() const { return {n, rr, n0}; }

  std::size_t l;
  std::vector<bn::Limb> n, rr, a, b, e, r, s;
  bn::Limb n0 = 0;
};

// Arg 0: limbs (8 = one CRT half of a 1024-bit key). Arg 1: 0 runs
// bn::mont:: (the row kernel CPUID picked, named in the label), 1 runs
// bn::mont::portable::. On a host without ADX/BMI2 both rows are portable.
const char* row_kernel() {
  return std::string_view(bn::mont::kernel_name()).starts_with("adx") ? "adx" : "portable";
}
const char* mont_label(const benchmark::State& state) {
  return state.range(1) != 0 ? "portable" : row_kernel();
}

void BM_MontMul(benchmark::State& state) {
  MontOperands o(static_cast<std::size_t>(state.range(0)));
  const auto m = o.modulus();
  const auto mul = state.range(1) != 0 ? bn::mont::portable::mul : bn::mont::mul;
  for (auto _ : state) {
    mul(o.r, o.a, o.b, m, o.s);
    benchmark::DoNotOptimize(o.r.data());
  }
  state.SetLabel(mont_label(state));
}
BENCHMARK(BM_MontMul)->ArgsProduct({{8, 16}, {0, 1}})->UseRealTime();

void BM_MontSqr(benchmark::State& state) {
  MontOperands o(static_cast<std::size_t>(state.range(0)));
  const auto m = o.modulus();
  const auto sqr = state.range(1) != 0 ? bn::mont::portable::sqr : bn::mont::sqr;
  for (auto _ : state) {
    sqr(o.r, o.a, m, o.s);
    benchmark::DoNotOptimize(o.r.data());
  }
  state.SetLabel(mont_label(state));
}
BENCHMARK(BM_MontSqr)->ArgsProduct({{8, 16}, {0, 1}})->UseRealTime();

// A full-width secret exponent: 16 windows per limb, as a CRT half runs.
void BM_MontExp(benchmark::State& state) {
  MontOperands o(static_cast<std::size_t>(state.range(0)));
  const auto m = o.modulus();
  const auto exp = state.range(1) != 0 ? bn::mont::portable::exp : bn::mont::exp;
  for (auto _ : state) {
    exp(o.r, o.a, o.e, 64 * o.l, m, o.s);
    benchmark::DoNotOptimize(o.r.data());
  }
  state.SetLabel(mont_label(state));
}
BENCHMARK(BM_MontExp)->ArgsProduct({{8, 16}, {0, 1}})->UseRealTime();

// Both halves of a CRT private op from an ordinary-form x to ordinary-form
// results. Arg 1: 0 runs bn::mont::exp2 (lockstep on IFMA, labelled with
// the process's kernels), 1 runs to_mont, exp and from_mont per half on
// the CPUID-picked row kernel, as the parent's callers did.
void BM_MontExp2(benchmark::State& state) {
  const auto l = static_cast<std::size_t>(state.range(0));
  MontOperands p(l), q(l, 17);
  const auto mp = p.modulus();
  const auto mq = q.modulus();
  std::vector<bn::Limb> s(bn::mont::exp2_scratch_limbs(l));
  const bool rows = state.range(1) != 0;
  for (auto _ : state) {
    if (rows) {
      for (auto* h : {&p, &q}) {
        const auto m = h->modulus();
        bn::mont::to_mont(h->r, p.a, m, h->s);
        bn::mont::exp(h->r, h->r, h->e, 64 * l, m, h->s);
        bn::mont::from_mont(h->r, h->r, m, h->s);
      }
    } else {
      bn::mont::exp2(p.r, q.r, p.a, p.e, q.e, mp, mq, s);
    }
    benchmark::DoNotOptimize(p.r.data());
    benchmark::DoNotOptimize(q.r.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(rows ? std::string(row_kernel()) + " rows" : bn::mont::kernel_name());
}
BENCHMARK(BM_MontExp2)->ArgsProduct({{8, 16}, {0, 1}})->UseRealTime();

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
