// Adversarial battery for the encrypted-at-rest SNI frontend.
//
// The attacker gets everything the paper's threat model grants: full
// physical-memory scans (KeyScanner), the taint oracle (ShadowTaintMap +
// TaintAuditor), swap pressure against the frontend's address space, and
// fork churn (the classic COW hazard that smeared Apache keys across
// worker processes). The claim under test: at EVERY sampled instant the
// machine holds plaintext key material in at most W mlocked frames —
// everything else is ciphertext — and the live ExposureMonitor agrees
// with a ground-truth sweep copy for copy.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "obs/clock.hpp"
#include "obs/exposure_monitor.hpp"
#include "scan/key_scanner.hpp"
#include "servers/sni_frontend.hpp"
#include "sim/taint.hpp"
#include "util/rng.hpp"

namespace keyguard {
namespace {

constexpr std::size_t kPool = 6;
constexpr std::size_t kWorking = 2;
constexpr std::size_t kVhosts = 24;
constexpr std::size_t kDistinct = 12;

class EncryptedAdversaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::KernelConfig kc;
    kc.mem_bytes = 12ull << 20;
    kc.zero_on_free = true;
    kc.o_nocache_supported = true;
    kc.swap_pages = 64;
    kernel_.emplace(kc);
    map_.emplace(*kernel_);
    util::Rng keygen(9001);
    for (std::size_t i = 0; i < kDistinct; ++i) {
      distinct_.push_back(crypto::generate_rsa_key(keygen, 512));
    }
    monitor_.emplace(kernel_->memory(), scan::KeyPatterns::from_keys(distinct_));
    fanout_.add(&*map_);
    fanout_.add(&*monitor_);
    kernel_->attach_taint(&fanout_);
    obs::manual_clock_install(0);

    servers::SniConfig cfg;
    cfg.backend = keystore::PoolBackend::kEncrypted;
    cfg.encrypted.pool_pages = kPool;
    cfg.encrypted.working_set = kWorking;
    cfg.hot_fraction = 0.0;  // uniform: maximum pool churn
    frontend_.emplace(*kernel_, cfg, util::Rng(77));
    std::vector<crypto::RsaPrivateKey> vhost_keys;
    for (std::size_t i = 0; i < kVhosts; ++i) {
      vhost_keys.push_back(distinct_[i % kDistinct]);
    }
    ASSERT_TRUE(frontend_->start(vhost_keys));
  }

  void TearDown() override {
    if (frontend_->running()) frontend_->stop();
    kernel_->attach_taint(nullptr);
    obs::host_clock_install();
  }

  /// The attacker's full instrument sweep; every invariant at one instant.
  void sample(const char* where) {
    SCOPED_TRACE(where);
    analysis::TaintAuditor auditor(*map_);
    const auto report = auditor.audit(*kernel_);
    // The coprocessor holds the page key: NO master-key page exists.
    EXPECT_EQ(report.master_key_frames, 0u);
    EXPECT_TRUE(report.bounded_plaintext_working_set(kWorking))
        << "plaintext frames " << report.secret_tainted_frames;

    scan::KeyScanner scanner(monitor_->patterns());
    const auto matches = scanner.scan_kernel(*kernel_);
    std::set<std::string> visible;
    for (const auto& m : matches) {
      // Every scanner hit must be an mlocked anonymous frame (the working
      // set) — never heap residue, page cache, or swap.
      EXPECT_EQ(m.state, sim::FrameState::kUserAnon) << m.part;
      visible.insert(m.part.substr(m.part.find('#') + 1));
    }
    EXPECT_LE(visible.size(), kWorking);
    EXPECT_TRUE(auditor.cross_check(scanner.patterns(), matches).all_hits_covered());

    // Live accounting vs ground truth, copy for copy.
    const auto truth = scanner.scan_capture(kernel_->memory().all());
    const auto live = monitor_->copies();
    ASSERT_EQ(live.size(), truth.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i].offset, truth[i].offset);
      EXPECT_EQ(monitor_->patterns().patterns[live[i].pattern_index].name,
                truth[i].part);
    }
  }

  void drive(std::size_t requests) {
    for (std::size_t i = 0; i < requests; ++i) {
      ASSERT_TRUE(frontend_->handle_request());
      obs::manual_clock_advance(1'000'000);
    }
  }

  std::optional<sim::Kernel> kernel_;
  std::optional<analysis::ShadowTaintMap> map_;
  std::optional<obs::ExposureMonitor> monitor_;
  sim::TaintFanout fanout_;
  std::vector<crypto::RsaPrivateKey> distinct_;
  std::optional<servers::SniFrontend> frontend_;
};

TEST_F(EncryptedAdversaryTest, SteadyChurnNeverExceedsWorkingSet) {
  sample("after start");
  for (int round = 0; round < 6; ++round) {
    drive(16);
    sample("steady churn");
  }
  const auto& st = frontend_->encrypted_keystore().stats();
  EXPECT_GT(st.reencrypts, 0u);   // the working set really squeezed
  EXPECT_GT(st.evictions, 0u);    // 24 vhosts through 6 slots
  EXPECT_GT(st.blob_unseals, kPool);
  EXPECT_EQ(st.refusals, 0u);
}

TEST_F(EncryptedAdversaryTest, SwapPressureNeverPagesOutPlaintext) {
  sim::Process* proc = kernel_->find_process(frontend_->pid());
  ASSERT_NE(proc, nullptr);
  for (int round = 0; round < 5; ++round) {
    drive(12);
    // Page the frontend out as hard as the kernel allows. mlocked working
    // pages must be skipped; non-mlocked ciphertext pages MAY go to swap —
    // and that is fine, sealed bytes are sealed anywhere.
    kernel_->swap_out_pages(*proc, 8);
    kernel_->swap_out_global(4);
    sample("under swap pressure");
    drive(4);  // swapped ciphertext pages fault back in and still decrypt
    sample("after swap-in");
  }
}

TEST_F(EncryptedAdversaryTest, QuiescedForkSharesOnlyCiphertext) {
  sim::Process* proc = kernel_->find_process(frontend_->pid());
  ASSERT_NE(proc, nullptr);
  for (int round = 0; round < 4; ++round) {
    drive(12);
    // Scrub-to-ciphertext, THEN fork: the child inherits a pool with zero
    // plaintext frames, so a forked worker can never smear key bytes.
    frontend_->encrypted_keystore().reencrypt_all();
    sim::Process& child =
        kernel_->fork(*proc, "worker" + std::to_string(round));
    sample("child alive, pool quiesced");
    {
      analysis::TaintAuditor auditor(*map_);
      EXPECT_EQ(auditor.audit(*kernel_).secret.total(), 0u);
    }
    drive(8);  // parent resumes; COW breaks pages, child keeps ciphertext
    sample("child alive, parent resumed");
    kernel_->exit_process(child);
    sample("child exited");
  }
}

TEST_F(EncryptedAdversaryTest, LiveForkResidueClearedOnChildExit) {
  sim::Process* proc = kernel_->find_process(frontend_->pid());
  ASSERT_NE(proc, nullptr);
  for (int round = 0; round < 4; ++round) {
    drive(10);
    // Fork with the working set HOT: the child shares the plaintext
    // frames. The parent then churns, re-encrypting and rewriting slots —
    // COW hands the child private copies of whatever was live at fork.
    sim::Process& child = kernel_->fork(*proc, "hotchild" + std::to_string(round));
    drive(10);
    // zero_on_free is the backstop the paper's kernel patch provides: the
    // child's exit must scrub every inherited frame before reuse.
    kernel_->exit_process(child);
    sample("hot-forked child exited");
  }
}

TEST_F(EncryptedAdversaryTest, ShutdownLeavesNothing) {
  drive(32);
  frontend_->stop();
  analysis::TaintAuditor auditor(*map_);
  EXPECT_EQ(auditor.audit(*kernel_).secret.total(), 0u);
  EXPECT_TRUE(auditor.audit(*kernel_).bounded_plaintext_working_set(0));
  scan::KeyScanner scanner(monitor_->patterns());
  EXPECT_TRUE(scanner.scan_kernel(*kernel_).empty());
  EXPECT_TRUE(monitor_->copies().empty());
}

}  // namespace
}  // namespace keyguard
