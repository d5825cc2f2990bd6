// Bench-owned layer probes: each layer timed through its public functions
// on objects the benchmark owns, independent of the workload that runs
// them. Traced runs of every workload report them, so the sslsim, bignum
// and core numbers sit next to the workload's own layer breakdown.
#include "core/protection.hpp"
#include "core/secure_rsa.hpp"
#include "crypto/pem.hpp"
#include "harness.hpp"
#include "sslsim/ssl_library.hpp"
#include "util/bytes.hpp"

namespace perfbench {

namespace {

/// Wall budget and floor per probe.
constexpr double kProbeSeconds = 0.15;
constexpr std::size_t kProbeMinIters = 20;

/// Times `op` repeatedly (kProbeSeconds, at least kProbeMinIters calls)
/// and returns the median call time in reference-machine microseconds.
template <class Op>
double probe_us(Op op) {
  SpeedGauge speed(SpeedKernel::kCompute);
  std::vector<double> us;
  const auto start = Clock::now();
  speed.open();
  for (std::size_t i = 0; i < kProbeMinIters || seconds_since(start) < kProbeSeconds; ++i) {
    const auto t0 = Clock::now();
    op();
    const double raw = micros(t0, Clock::now());
    const Bracket b = speed.bracket();
    if (b.steady) us.push_back(raw * b.factor);
  }
  return median(us);
}

}  // namespace

void run_layer_probes(const crypto::RsaPrivateKey& key, std::uint64_t seed,
                      Report& report) {
  util::Rng rng(seed ^ 0x70726f6265ULL);
  const bn::Bignum c = random_below(rng, key.n);
  const bn::Bignum expect = key.decrypt_crt(c);

  // sslsim on a stock machine: PEM load (what every stock sshd connection
  // repeats after re-exec) and the CRT private op.
  const auto profile = core::make_profile(core::ProtectionLevel::kNone, 16ull << 20);
  sim::Kernel kernel(profile.kernel, kMachineSeed);
  const std::string path = "/etc/probe.key";
  kernel.vfs().write_file(path, util::to_bytes(crypto::pem_encode_private_key(key)),
                          sim::TaintTag::kPem);
  sim::Process& proc = kernel.spawn("probe");
  sslsim::SslLibrary ssl(kernel, profile.ssl);
  bool loads_ok = true;
  report.layer("sslsim.load_key_us", probe_us([&] {
                 auto k = ssl.load_private_key(proc, path);
                 if (!k) {
                   loads_ok = false;
                   return;
                 }
                 ssl.rsa_free(proc, *k);
               }),
               "us");
  report.check(loads_ok, "sslsim probe: every key load succeeds");
  auto sim_key = ssl.load_private_key(proc, path);
  if (report.check(sim_key.has_value(), "sslsim probe: key loads")) {
    bool ops_ok = true;
    report.layer("sslsim.private_op_us", probe_us([&] {
                   ops_ok = ssl.rsa_private_op(proc, *sim_key, c) == expect && ops_ok;
                 }),
                 "us");
    report.check(ops_ok, "sslsim probe: private op matches the reference CRT");
    ssl.rsa_free(proc, *sim_key);
  }

  // bignum: one 512-bit CRT half and the whole CRT private op.
  const bn::Bignum cp = c % key.p;
  report.layer("bignum.mod_exp_us",
               probe_us([&] { (void)bn::Bignum::mod_exp(cp, key.dmp1, key.p); }), "us");
  report.layer("bignum.crt_op_us", probe_us([&] { (void)key.decrypt_crt(c); }), "us");

  // core: the mlocked single-copy key's private op.
  const auto secure = secure::SecureRsaKey::from_key(key);
  bool secure_ok = true;
  report.layer("secure_rsa.decrypt_us", probe_us([&] {
                 secure_ok = secure.decrypt(c) == expect && secure_ok;
               }),
               "us");
  report.check(secure_ok, "core probe: SecureRsaKey decrypt matches the reference CRT");
}

}  // namespace perfbench
