// Tests for the scanner extensions: prefix (partial) matching, per-process
// scanning, and public-key-only factor hunting.
#include "scan/key_hunter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "attack/leaks.hpp"
#include "core/scenario.hpp"
#include "scan/key_scanner.hpp"
#include "servers/ssh_server.hpp"
#include "sslsim/ssl_library.hpp"
#include "util/bytes.hpp"

namespace keyguard::scan {
namespace {

using sslsim::SslLibrary;

const crypto::RsaPrivateKey& test_key() {
  static const crypto::RsaPrivateKey k = [] {
    util::Rng rng(808);
    return crypto::generate_rsa_key(rng, 512);
  }();
  return k;
}

// -- prefix matching ---------------------------------------------------------

TEST(PrefixScan, FindsFullMatchAsFull) {
  std::vector<std::byte> capture(4096, std::byte{0});
  const auto img = SslLibrary::limb_image(test_key().p);
  std::copy(img.begin(), img.end(), capture.begin() + 128);
  KeyScanner scanner(test_key());
  const auto matches = scanner.scan_capture_prefix(capture);
  ASSERT_GE(matches.size(), 1u);
  bool found_full = false;
  for (const auto& m : matches) {
    if (m.offset == 128 && m.part == "P") {
      EXPECT_TRUE(m.full);
      EXPECT_EQ(m.matched_bytes, img.size());
      found_full = true;
    }
  }
  EXPECT_TRUE(found_full);
}

TEST(PrefixScan, FindsTruncatedFragment) {
  // A key image cut at a page boundary: only the first 24 bytes survive.
  std::vector<std::byte> capture(4096, std::byte{0});
  const auto img = SslLibrary::limb_image(test_key().p);
  std::copy(img.begin(), img.begin() + 24, capture.begin() + 500);
  capture[524] = std::byte{0xFF};  // diverge right after
  KeyScanner scanner(test_key());
  const auto matches = scanner.scan_capture_prefix(capture, 20);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].offset, 500u);
  EXPECT_FALSE(matches[0].full);
  EXPECT_EQ(matches[0].matched_bytes, 24u);
}

TEST(PrefixScan, BelowThresholdIgnored) {
  std::vector<std::byte> capture(4096, std::byte{0});
  const auto img = SslLibrary::limb_image(test_key().p);
  std::copy(img.begin(), img.begin() + 12, capture.begin() + 100);  // < 20 bytes
  KeyScanner scanner(test_key());
  EXPECT_TRUE(scanner.scan_capture_prefix(capture, 20).empty());
}

TEST(PrefixScan, FragmentAtCaptureEnd) {
  const auto img = SslLibrary::limb_image(test_key().q);
  std::vector<std::byte> capture(100, std::byte{0});
  std::copy(img.begin(), img.begin() + 30, capture.begin() + 70);
  KeyScanner scanner(test_key());
  const auto matches = scanner.scan_capture_prefix(capture, 20);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].matched_bytes, 30u);
  EXPECT_FALSE(matches[0].full);
}

// -- process-space scanning ----------------------------------------------------

TEST(ProcessScan, FindsKeyInOneProcessOnly) {
  sim::KernelConfig cfg;
  cfg.mem_bytes = 4ull << 20;
  sim::Kernel k(cfg);
  auto& victim = k.spawn("victim");
  auto& bystander = k.spawn("bystander");
  const auto img = SslLibrary::limb_image(test_key().p);
  const auto addr = k.heap_alloc(victim, 64);
  k.mem_write(victim, addr, img);
  k.heap_alloc(bystander, 64);

  KeyScanner scanner(test_key());
  const auto victim_matches = scanner.scan_process(k, victim);
  ASSERT_EQ(victim_matches.size(), 1u);
  EXPECT_EQ(victim_matches[0].vaddr, addr);
  EXPECT_EQ(victim_matches[0].part, "P");
  EXPECT_TRUE(scanner.scan_process(k, bystander).empty());
}

TEST(ProcessScan, FindsPatternSpanningScatteredFrames) {
  // Virtually adjacent, physically scattered pages: the physical scan sees
  // fragments, the process (core-dump) scan sees the whole image.
  sim::KernelConfig cfg;
  cfg.mem_bytes = 4ull << 20;
  sim::Kernel k(cfg);
  auto& p = k.spawn("p");
  const auto region = k.mmap_anon(p, 2 * sim::kPageSize, false);
  const auto img = SslLibrary::limb_image(test_key().p);
  // Write straddling the page boundary.
  k.mem_write(p, region + sim::kPageSize - 13, img);
  KeyScanner scanner(test_key());
  const auto matches = scanner.scan_process(k, p);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].vaddr, region + sim::kPageSize - 13);
}

/// scan_process's oracle: the resident image reassembled run by run, one
/// util::find_all per pattern, then a stable sort by vaddr so hits at one
/// vaddr keep pattern order.
std::vector<ProcessMatch> process_oracle(const sim::Kernel& k,
                                         const sim::Process& p,
                                         const KeyPatterns& pats) {
  std::vector<ProcessMatch> out;
  const auto& pt = p.page_table();
  for (auto it = pt.begin(); it != pt.end();) {
    if (it->second.swapped) {
      ++it;
      continue;
    }
    const sim::VirtAddr start = it->first;
    std::vector<std::byte> run;
    for (sim::VirtAddr next = start;
         it != pt.end() && it->first == next && !it->second.swapped;
         ++it, next += sim::kPageSize) {
      const auto page = k.memory().page(it->second.frame);
      run.insert(run.end(), page.begin(), page.end());
    }
    for (const auto& pat : pats.patterns) {
      for (const std::size_t off : util::find_all(run, pat.bytes)) {
        out.push_back({start + off, pat.name});
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ProcessMatch& a, const ProcessMatch& b) {
                     return a.vaddr < b.vaddr;
                   });
  return out;
}

TEST(ProcessScan, MatchesPerPatternOracle) {
  sim::KernelConfig cfg;
  cfg.mem_bytes = 4ull << 20;
  cfg.swap_pages = 16;
  sim::Kernel k(cfg);
  util::Rng rng(77);
  std::vector<std::byte> a(40);
  std::vector<std::byte> b(24);
  rng.fill_bytes(a);
  rng.fill_bytes(b);
  KeyPatterns pats;
  pats.patterns.push_back({"A", a});
  pats.patterns.push_back({"A16", {a.begin(), a.begin() + 16}});  // same vaddr
  pats.patterns.push_back({"B", b});

  auto& p = k.spawn("p");
  const std::size_t page = sim::kPageSize;
  const auto region = k.mmap_anon(p, 5 * page, false);
  // Touch page 1 before page 0 so the two frames are not in physical order.
  k.mem_write(p, region + page + 200, b);
  k.mem_write(p, region + page - 13, a);      // straddles pages 0|1
  k.mem_write(p, region + 2 * page + 100, b);  // page 2: swapped out below
  k.mem_write(p, region + 3 * page + 5, a);
  k.mem_write(p, region + 4 * page - 20, b);   // straddles pages 3|4
  const auto& pt = p.page_table();
  EXPECT_NE(pt.at(region).frame + 1, pt.at(region + page).frame);

  // Fork shares every frame, a write gives p a private page 2 again, and
  // only unshared pages swap: page 2 leaves and splits p's image in two.
  auto& child = k.fork(p, "child");
  k.mem_write(p, region + 2 * page + 100, b);
  ASSERT_EQ(k.swap_out_pages(p, 1), 1u);
  ASSERT_TRUE(pt.at(region + 2 * page).swapped);

  KeyScanner scanner(pats);
  for (const sim::Process* proc : {&p, &child}) {
    const auto got = scanner.scan_process(k, *proc);
    const auto want = process_oracle(k, *proc, pats);
    ASSERT_EQ(got.size(), want.size()) << proc->name();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].vaddr, want[i].vaddr) << proc->name() << " " << i;
      EXPECT_EQ(got[i].part, want[i].part) << proc->name() << " " << i;
    }
  }
  const auto got = scanner.scan_process(k, p);
  ASSERT_EQ(got.size(), 6u);  // A+A16 twice, B twice: page 2 is on swap
  EXPECT_EQ(got[0].vaddr, region + page - 13);
  EXPECT_EQ(got[0].part, "A");
  EXPECT_EQ(got[1].vaddr, region + page - 13);
  EXPECT_EQ(got[1].part, "A16");
  EXPECT_EQ(scanner.scan_process(k, child).size(), 7u);
}

// -- public-key-only hunting -----------------------------------------------------

TEST(KeyHunter, FindsPlantedFactorAndReconstructs) {
  util::Rng rng(9);
  std::vector<std::byte> dump(1 << 16);
  rng.fill_bytes(dump);
  const auto img = SslLibrary::limb_image(test_key().p);
  std::copy(img.begin(), img.end(), dump.begin() + 4096);  // 8-aligned

  KeyHunter hunter(test_key().public_key());
  const auto hits = hunter.hunt(dump);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].offset, 4096u);
  EXPECT_EQ(hits[0].factor, test_key().p);

  const auto rebuilt = hunter.reconstruct(hits[0].factor);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(rebuilt->validate());
  EXPECT_EQ(rebuilt->d, test_key().d);
}

TEST(KeyHunter, FindsQToo) {
  std::vector<std::byte> dump(1 << 12, std::byte{0});
  const auto img = SslLibrary::limb_image(test_key().q);
  std::copy(img.begin(), img.end(), dump.begin() + 512);
  KeyHunter hunter(test_key().public_key());
  const auto hits = hunter.hunt(dump);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].factor, test_key().q);
  const auto rebuilt = hunter.reconstruct(hits[0].factor);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->p, test_key().p);  // conventional ordering restored
}

TEST(KeyHunter, NoFalsePositivesOnRandomData) {
  util::Rng rng(10);
  std::vector<std::byte> dump(1 << 18);
  rng.fill_bytes(dump);
  KeyHunter hunter(test_key().public_key());
  EXPECT_TRUE(hunter.hunt(dump).empty());
  EXPECT_FALSE(hunter.compromises(dump));
}

TEST(KeyHunter, UnalignedCopyNeedsStrideOne) {
  std::vector<std::byte> dump(1 << 12, std::byte{0});
  const auto img = SslLibrary::limb_image(test_key().p);
  std::copy(img.begin(), img.end(), dump.begin() + 101);  // unaligned
  KeyHunter hunter(test_key().public_key());
  EXPECT_TRUE(hunter.hunt(dump, 8).empty());
  const auto hits = hunter.hunt(dump, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].offset, 101u);
}

TEST(KeyHunter, ReconstructRejectsNonFactor) {
  KeyHunter hunter(test_key().public_key());
  EXPECT_FALSE(hunter.reconstruct(bn::Bignum(12345)).has_value());
  EXPECT_FALSE(hunter.reconstruct(bn::Bignum{}).has_value());
}

TEST(KeyHunter, EndToEndCompromiseFromNttyDump) {
  // The complete realistic attack: an adversary who knows only the PUBLIC
  // key runs the n_tty exploit against a loaded OpenSSH server and walks
  // away with the full private key.
  core::ScenarioConfig cfg;
  cfg.mem_bytes = 16ull << 20;
  cfg.key_bits = 512;
  cfg.seed = 1717;
  core::Scenario s(cfg);
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 15; ++i) server.handle_connection(8 << 10);

  attack::NttyLeak leak(s.kernel());
  auto rng = s.make_rng();
  KeyHunter hunter(s.key().public_key());
  std::optional<crypto::RsaPrivateKey> stolen;
  for (int attempt = 0; attempt < 5 && !stolen; ++attempt) {
    const auto dump = leak.dump(rng);
    // The dump starts at an arbitrary byte offset, so limb alignment is
    // lost; the attacker walks all residues (stride 1).
    const auto hits = hunter.hunt(dump, /*stride=*/1);
    if (!hits.empty()) stolen = hunter.reconstruct(hits[0].factor);
  }
  ASSERT_TRUE(stolen.has_value());
  EXPECT_TRUE(stolen->validate());
  // Prove it: decrypt something encrypted to the server.
  const bn::Bignum m(987654321);
  EXPECT_EQ(stolen->decrypt_crt(s.key().public_key().encrypt_raw(m)), m);
}

TEST(KeyHunter, IntegratedDefenseSurvivesUnluckyDumps) {
  // With the integrated defense the only copy is one page; a dump that
  // misses that page yields nothing an attacker can use.
  core::ScenarioConfig cfg;
  cfg.level = core::ProtectionLevel::kIntegrated;
  cfg.mem_bytes = 16ull << 20;
  cfg.key_bits = 512;
  cfg.seed = 1718;
  core::Scenario s(cfg);
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 15; ++i) server.handle_connection(8 << 10);

  // Find the aligned page, then dump a window that excludes it.
  const auto matches = s.scanner().scan_kernel(s.kernel());
  ASSERT_FALSE(matches.empty());
  const std::size_t key_page = matches[0].phys_offset / sim::kPageSize;
  const std::size_t half = s.kernel().memory().size_bytes() / 2;
  const std::size_t offset = (key_page * sim::kPageSize) < half ? half : 0;
  const auto window = s.kernel().memory().range(offset, half);
  KeyHunter hunter(s.key().public_key());
  EXPECT_TRUE(hunter.hunt(window).empty());
}

}  // namespace
}  // namespace keyguard::scan
