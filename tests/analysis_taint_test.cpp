// Shadow-taint propagation tests: every way key bytes move through the
// simulated machine must drag their shadow along, and every way they are
// destroyed must clear it. Each test drives the real kernel APIs (no
// direct shadow pokes except where marked) and checks the per-byte map.
#include "analysis/taint_map.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/taint_auditor.hpp"
#include "sim/kernel.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::analysis {
namespace {

using sim::Kernel;
using sim::KernelConfig;
using sim::kPageSize;
using sim::TaintTag;
using sim::VirtAddr;

KernelConfig small_config() {
  KernelConfig cfg;
  cfg.mem_bytes = 4ull << 20;
  return cfg;
}

/// Physical byte address of one virtual byte (must be resident).
std::size_t phys_of(const Kernel& k, const sim::Process& p, VirtAddr a) {
  const auto frame = k.translate(p, a);
  EXPECT_TRUE(frame.has_value());
  return static_cast<std::size_t>(*frame) * kPageSize + a % kPageSize;
}

/// Empty when every frame's and slot's PageSecrets equals a recount of
/// its tags; otherwise names each page that disagrees.
std::string count_divergence(const ShadowTaintMap& map) {
  std::string out;
  const auto check = [&](const char* what, std::size_t page,
                         std::span<const TaintTag> tags, const PageSecrets& got) {
    PageSecrets want;
    for (const TaintTag t : tags) {
      if (!sim::taint_tag_secret(t)) continue;
      ++want.secret;
      if (t != TaintTag::kMasterKey) ++want.nonmaster;
    }
    if (got.secret != want.secret || got.nonmaster != want.nonmaster) {
      out += std::string(what) + " " + std::to_string(page) + ": secret " +
             std::to_string(got.secret) + "/" + std::to_string(want.secret) +
             " nonmaster " + std::to_string(got.nonmaster) + "/" +
             std::to_string(want.nonmaster) + "; ";
    }
  };
  const auto phys = map.phys_shadow();
  for (std::size_t f = 0; f < phys.size() / kPageSize; ++f) {
    check("frame", f, phys.subspan(f * kPageSize, kPageSize),
          map.frame_secrets(static_cast<sim::FrameNumber>(f)));
  }
  const auto swap = map.swap_shadow();
  for (std::size_t s = 0; s < swap.size() / kPageSize; ++s) {
    check("slot", s, swap.subspan(s * kPageSize, kPageSize),
          map.slot_secrets(static_cast<std::uint32_t>(s)));
  }
  return out;
}

/// All `len` bytes starting at virtual `a` carry `tag`.
bool virt_tagged(const Kernel& k, const sim::Process& p, const ShadowTaintMap& map,
                 VirtAddr a, std::size_t len, TaintTag tag) {
  for (std::size_t i = 0; i < len; ++i) {
    if (map.phys_tag(phys_of(k, p, a + i)) != tag) return false;
  }
  return true;
}

TEST(ShadowTaintMap, StoreTagsAndCleanOverwriteClears) {
  Kernel k(small_config());
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& p = k.spawn("p");
  const VirtAddr a = k.mmap_anon(p, kPageSize, false);

  const auto secret = util::to_bytes("not-quite-a-prime");
  k.mem_write(p, a, secret, TaintTag::kKeyP);
  EXPECT_TRUE(virt_tagged(k, p, map, a, secret.size(), TaintTag::kKeyP));
  EXPECT_EQ(map.stats().phys_tainted, secret.size());
  EXPECT_EQ(map.stats().phys_by_tag[static_cast<std::size_t>(TaintTag::kKeyP)],
            secret.size());

  // Ordinary data over the front half: that taint dies, the rest survives.
  const auto churn = util::to_bytes("not-quite");
  k.mem_write(p, a, churn);
  EXPECT_TRUE(virt_tagged(k, p, map, a, churn.size(), TaintTag::kClean));
  EXPECT_TRUE(virt_tagged(k, p, map, a + churn.size(), secret.size() - churn.size(),
                          TaintTag::kKeyP));
  EXPECT_EQ(map.stats().phys_tainted, secret.size() - churn.size());
  k.attach_taint(nullptr);
}

TEST(ShadowTaintMap, ClearFreeScrubsButPlainFreeDoesNot) {
  Kernel k(small_config());
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& p = k.spawn("p");

  const auto secret = util::to_bytes("0123456789abcdef0123456789abcdef");
  const VirtAddr kept = k.heap_alloc(p, secret.size(), "RSA bignum q");
  const VirtAddr dropped = k.heap_alloc(p, secret.size(), "RSA bignum p");
  k.mem_write(p, kept, secret, TaintTag::kKeyQ);
  k.mem_write(p, dropped, secret, TaintTag::kKeyP);

  // free() leaves the bytes AND the shadow behind (the unpatched library).
  const std::size_t dropped_phys = phys_of(k, p, dropped);
  k.heap_free(p, dropped);
  EXPECT_EQ(map.phys_tag(dropped_phys), TaintTag::kKeyP);

  // BN_clear_free zeroes through mem_zero — shadow dies with the bytes.
  const std::size_t kept_phys = phys_of(k, p, kept);
  k.heap_clear_free(p, kept);
  EXPECT_EQ(map.phys_tag(kept_phys), TaintTag::kClean);
  EXPECT_EQ(map.stats().phys_by_tag[static_cast<std::size_t>(TaintTag::kKeyQ)], 0u);
  k.attach_taint(nullptr);
}

TEST(ShadowTaintMap, ReallocMoveDuplicatesTaint) {
  Kernel k(small_config());
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& p = k.spawn("p");

  const auto secret = util::to_bytes("bn_expand2 copies me");
  const VirtAddr a = k.heap_alloc(p, secret.size(), "RSA bignum d");
  // A blocker right after forces realloc to move instead of growing.
  const VirtAddr blocker = k.heap_alloc(p, 64, "blocker");
  ASSERT_NE(blocker, 0u);
  k.mem_write(p, a, secret, TaintTag::kKeyD);

  const std::size_t old_phys = phys_of(k, p, a);
  const VirtAddr moved = k.heap_realloc(p, a, 4 * secret.size());
  ASSERT_NE(moved, 0u);
  ASSERT_NE(moved, a);

  // The move re-links the shadow onto the new chunk...
  EXPECT_TRUE(virt_tagged(k, p, map, moved, secret.size(), TaintTag::kKeyD));
  // ...and the abandoned original keeps its taint (freed, uncleared).
  EXPECT_EQ(map.phys_tag(old_phys), TaintTag::kKeyD);
  EXPECT_EQ(map.stats().phys_by_tag[static_cast<std::size_t>(TaintTag::kKeyD)],
            2 * secret.size());
  EXPECT_GT(map.stats().copies, 0u);
  k.attach_taint(nullptr);
}

// Direct shadow pokes: the kernel never copies overlapping ranges, but
// on_phys_copy keeps memmove order so it would be exact if it did.
TEST(ShadowTaintMap, OverlappingCopyKeepsMemmoveOrder) {
  const auto tags_at = [](const ShadowTaintMap& m, std::size_t off, std::size_t len) {
    std::vector<TaintTag> t;
    for (std::size_t i = off; i < off + len; ++i) t.push_back(m.phys_tag(i));
    return t;
  };
  const auto seeded = [] {
    auto m = std::make_unique<ShadowTaintMap>(kPageSize, 0);
    m->mark_phys(0, 8, TaintTag::kKeyD);
    m->mark_phys(8, 8, TaintTag::kKeyP);
    return m;
  };
  const std::vector<TaintTag> d4(4, TaintTag::kKeyD), d8(8, TaintTag::kKeyD),
      p8(8, TaintTag::kKeyP), clean4(4, TaintTag::kClean);

  auto up = seeded();  // dst above src: copied from the top down
  up->on_phys_copy(4, 0, 16);
  EXPECT_EQ(tags_at(*up, 0, 4), d4);
  EXPECT_EQ(tags_at(*up, 4, 8), d8);
  EXPECT_EQ(tags_at(*up, 12, 8), p8);
  EXPECT_EQ(up->tainted_bytes_in(0, kPageSize), 20u);
  EXPECT_EQ(up->stats().phys_tainted, 20u);

  auto down = seeded();  // dst below src: copied from the bottom up
  down->on_phys_copy(0, 4, 16);
  EXPECT_EQ(tags_at(*down, 0, 4), d4);
  EXPECT_EQ(tags_at(*down, 4, 8), p8);
  EXPECT_EQ(tags_at(*down, 12, 4), clean4);
  EXPECT_EQ(down->stats().phys_tainted, 12u);
  EXPECT_EQ(down->frame_secrets(0).secret, 12u);
}

TEST(ShadowTaintMap, CowBreakMintsSecondTaintedFrame) {
  Kernel k(small_config());
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& parent = k.spawn("master");
  const VirtAddr a = k.mmap_anon(parent, kPageSize, false);

  const auto secret = util::to_bytes("shared-until-written");
  k.mem_write(parent, a, secret, TaintTag::kKeyP);
  auto& child = k.fork(parent, "worker");

  // Child writes elsewhere in the page: the COW break copies the WHOLE
  // page — taint duplicates — then the written bytes go clean.
  const auto note = util::to_bytes("scratch");
  k.mem_write(child, a + 512, note);

  const auto pf = k.translate(parent, a);
  const auto cf = k.translate(child, a);
  ASSERT_TRUE(pf && cf);
  ASSERT_NE(*pf, *cf);
  EXPECT_TRUE(virt_tagged(k, parent, map, a, secret.size(), TaintTag::kKeyP));
  EXPECT_TRUE(virt_tagged(k, child, map, a, secret.size(), TaintTag::kKeyP));
  EXPECT_TRUE(virt_tagged(k, child, map, a + 512, note.size(), TaintTag::kClean));
  EXPECT_EQ(map.stats().phys_by_tag[static_cast<std::size_t>(TaintTag::kKeyP)],
            2 * secret.size());
  k.attach_taint(nullptr);
}

TEST(ShadowTaintMap, SwapRoundTripDuplicatesOnStockKernel) {
  KernelConfig cfg = small_config();
  cfg.swap_pages = 8;
  Kernel k(cfg);
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& p = k.spawn("p");
  const VirtAddr a = k.mmap_anon(p, kPageSize, false);

  const auto secret = util::to_bytes("paged-out-paged-in");
  k.mem_write(p, a, secret, TaintTag::kKeyQ);
  const std::size_t resident_phys = phys_of(k, p, a);

  ASSERT_EQ(k.swap_out_pages(p, 1), 1u);
  // Swap-out duplicated the taint: the vacated frame keeps it (hot-freed
  // uncleared) and the slot now carries it too.
  EXPECT_EQ(map.phys_tag(resident_phys), TaintTag::kKeyQ);
  EXPECT_EQ(map.stats().swap_tainted, secret.size());
  EXPECT_EQ(map.stats().swap_stores, 1u);

  // Touch faults it back in; the freed slot is NOT scrubbed on a stock
  // kernel, so the disk copy of the taint survives the round trip.
  std::vector<std::byte> back(secret.size());
  k.mem_read(p, a, back);
  EXPECT_EQ(back, secret);
  EXPECT_EQ(map.stats().swap_loads, 1u);
  EXPECT_EQ(map.stats().swap_tainted, secret.size());
  EXPECT_TRUE(virt_tagged(k, p, map, a, secret.size(), TaintTag::kKeyQ));

  // The auditor reports the dead slot as disk-resident residue.
  TaintAuditor auditor(map);
  const auto report = auditor.audit(k);
  EXPECT_EQ(report.bytes_swap, secret.size());
  bool saw_dead_slot = false;
  for (const auto& r : report.regions) {
    if (r.in_swap) {
      EXPECT_FALSE(r.slot_live);
      saw_dead_slot = true;
    }
  }
  EXPECT_TRUE(saw_dead_slot);
  k.attach_taint(nullptr);
}

TEST(ShadowTaintMap, ZeroOnFreeScrubsVacatedFrameAndSlot) {
  KernelConfig cfg = small_config();
  cfg.swap_pages = 8;
  cfg.zero_on_free = true;
  Kernel k(cfg);
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& p = k.spawn("p");
  const VirtAddr a = k.mmap_anon(p, kPageSize, false);

  const auto secret = util::to_bytes("defended");
  k.mem_write(p, a, secret, TaintTag::kKeyP);
  ASSERT_EQ(k.swap_out_pages(p, 1), 1u);
  // Vacated frame cleared at free time: only the slot copy remains.
  EXPECT_EQ(map.stats().phys_tainted, 0u);
  EXPECT_EQ(map.stats().swap_tainted, secret.size());

  std::vector<std::byte> back(secret.size());
  k.mem_read(p, a, back);
  // Swap-in under zero_on_free scrubs the released slot (the satellite
  // fix): no disk residue, only the resident page is tainted again.
  EXPECT_EQ(map.stats().swap_tainted, 0u);
  EXPECT_EQ(map.stats().phys_tainted, secret.size());
  ASSERT_NE(k.swap(), nullptr);
  EXPECT_TRUE(util::all_zero(k.swap()->slot(0)));
  k.attach_taint(nullptr);
}

TEST(ShadowTaintMap, PageCacheEvictionLeaksTaintIntoFreeFrames) {
  KernelConfig cfg = small_config();
  cfg.page_cache_limit_pages = 1;
  Kernel k(cfg);
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& p = k.spawn("p");

  const auto pem = util::to_bytes(std::string(100, 'K'));
  const auto filler = util::to_bytes(std::string(100, 'x'));
  k.vfs().write_file("/etc/key.pem", pem, TaintTag::kPem);
  k.vfs().write_file("/var/log/big", filler);

  ASSERT_TRUE(k.read_file(p, "/etc/key.pem").has_value());
  EXPECT_EQ(map.stats().phys_tainted, pem.size());

  // Reading the second file busts the one-page budget; the key file's
  // frame is evicted UNCLEARED — tainted bytes now sit in a free frame.
  ASSERT_TRUE(k.read_file(p, "/var/log/big").has_value());
  EXPECT_EQ(map.stats().phys_tainted, pem.size());

  TaintAuditor auditor(map);
  const auto report = auditor.audit(k);
  EXPECT_EQ(report.bytes_unallocated, pem.size());
  EXPECT_EQ(report.bytes_page_cache, 0u);
  k.attach_taint(nullptr);
}

TEST(TaintAuditor, ProvenanceNamesTheHeapChunk) {
  Kernel k(small_config());
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& p = k.spawn("sshd");
  const auto secret = util::to_bytes("whoami");
  const VirtAddr a = k.heap_alloc(p, secret.size(), "RSA bignum p");
  k.mem_write(p, a, secret, TaintTag::kKeyP);

  TaintAuditor auditor(map);
  const auto report = auditor.audit(k);
  ASSERT_EQ(report.regions.size(), 1u);
  const auto& r = report.regions.front();
  EXPECT_EQ(r.tag, TaintTag::kKeyP);
  EXPECT_EQ(r.state, sim::FrameState::kUserAnon);
  EXPECT_EQ(r.owners, std::vector<sim::Pid>{p.pid()});
  EXPECT_NE(r.provenance.find("RSA bignum p"), std::string::npos);
  EXPECT_FALSE(r.mlocked);
  k.attach_taint(nullptr);
}

TEST(TaintAuditor, SingleLockedPageInvariant) {
  Kernel k(small_config());
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& p = k.spawn("sshd");
  const VirtAddr vault = k.mmap_anon(p, kPageSize, /*mlocked=*/true, "rsa_aligned");
  const auto parts = util::to_bytes(std::string(192, 'd'));
  k.mem_write(p, vault, parts, TaintTag::kKeyD);

  TaintAuditor auditor(map);
  auto report = auditor.audit(k);
  EXPECT_TRUE(report.single_locked_page_only());
  EXPECT_EQ(report.bytes_mlocked, parts.size());

  // One stray tainted heap byte breaks the invariant.
  const VirtAddr stray = k.heap_alloc(p, 16, "leak");
  k.mem_write(p, stray, util::to_bytes("x"), TaintTag::kCrt);
  report = auditor.audit(k);
  EXPECT_FALSE(report.single_locked_page_only());
  k.attach_taint(nullptr);
}

TEST(TaintAuditor, FormatMentionsInvariantAndTags) {
  Kernel k(small_config());
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  auto& p = k.spawn("p");
  const VirtAddr a = k.mmap_anon(p, kPageSize, true, "rsa_aligned");
  k.mem_write(p, a, util::to_bytes("secret"), TaintTag::kPem);

  const auto text = TaintAuditor::format(TaintAuditor(map).audit(k));
  EXPECT_NE(text.find("single-locked-page invariant: HOLDS"), std::string::npos);
  EXPECT_NE(text.find("PEM=6"), std::string::npos);
  k.attach_taint(nullptr);
}

TEST(ShadowTaintMap, FrameAndSlotCountsMatchTheTags) {
  KernelConfig cfg = small_config();
  cfg.swap_pages = 8;
  Kernel k(cfg);
  ShadowTaintMap map(k);
  k.attach_taint(&map);
  util::Rng rng(33);
  auto& p = k.spawn("p");
  const TaintTag tags[] = {TaintTag::kKeyD, TaintTag::kMasterKey,
                           TaintTag::kSealed, TaintTag::kClean};
  std::vector<std::byte> page(kPageSize);
  std::vector<VirtAddr> maps;
  std::size_t slot_secrets_seen = 0;
  std::size_t master_seen = 0;
  for (int round = 0; round < 60; ++round) {
    const auto pick = rng.next_u64() % 8;
    switch (pick) {
      case 0: {  // a fresh mapping, stored under one of the four tags
        const VirtAddr a = k.mmap_anon(p, kPageSize, (rng.next_u64() % 2) != 0);
        if (a == 0) break;
        rng.fill_bytes(page);
        const auto len = 1 + rng.next_u64() % kPageSize;
        k.mem_write(p, a, std::span(page).first(len), tags[rng.next_u64() % 4]);
        maps.push_back(a);
        break;
      }
      case 1: {  // a partial clean overwrite
        if (maps.empty()) break;
        k.mem_write(p, maps[rng.next_u64() % maps.size()] + 100,
                    std::span(page).first(512));
        break;
      }
      case 2:  // scrub
        if (maps.empty()) break;
        k.mem_zero(p, maps[rng.next_u64() % maps.size()], kPageSize);
        break;
      case 3: {  // munmap: the frame keeps its tags on the free lists
        if (maps.empty()) break;
        const auto i = rng.next_u64() % maps.size();
        k.munmap(p, maps[i], kPageSize);
        maps.erase(maps.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 4: {  // swap round trip: out, then fault one page back in
        k.swap_out_pages(p, 2);
        if (maps.empty()) break;
        std::vector<std::byte> back(16);
        k.mem_read(p, maps[rng.next_u64() % maps.size()], back);
        break;
      }
      case 5:  // slot scrub (direct hook: a stock kernel never scrubs)
        map.on_swap_clear(static_cast<std::uint32_t>(rng.next_u64() % 8));
        break;
      case 6: {  // fork, COW-break one page in the child, exit
        auto& child = k.fork(p, "child");
        if (!maps.empty()) {
          k.mem_write(child, maps[rng.next_u64() % maps.size()],
                      std::span(page).first(64), TaintTag::kKeyD);
        }
        k.exit_process(child);
        break;
      }
      case 7: {  // overlapping copies around a resident page (direct hook)
        if (maps.empty()) break;
        const auto frame = k.translate(p, maps[rng.next_u64() % maps.size()]);
        if (!frame || *frame + 2 >= k.memory().page_count()) break;
        const std::size_t base = static_cast<std::size_t>(*frame) * kPageSize;
        map.on_phys_copy(base + 1000, base + 3000, 2 * kPageSize - 1500);
        map.on_phys_copy(base + 3000, base + 1000, 2 * kPageSize - 1500);
        break;
      }
    }
    ASSERT_EQ(count_divergence(map), "") << "round " << round << " op " << pick;
    for (std::uint32_t s = 0; s < cfg.swap_pages; ++s) {
      slot_secrets_seen += map.slot_secrets(s).secret;
    }
    master_seen +=
        map.stats().phys_by_tag[static_cast<std::size_t>(TaintTag::kMasterKey)];
  }
  // The churn reached the counts it is meant to check.
  EXPECT_GT(slot_secrets_seen, 0u);
  EXPECT_GT(master_seen, 0u);
  EXPECT_GT(map.stats().copies, 0u);
  k.attach_taint(nullptr);
}

TEST(ShadowTaintMap, DetachedTrackerSeesNothing) {
  Kernel k(small_config());
  ShadowTaintMap map(k);
  // Never attached: kernel runs clean, the map stays empty.
  auto& p = k.spawn("p");
  const VirtAddr a = k.mmap_anon(p, kPageSize, false);
  k.mem_write(p, a, util::to_bytes("secret"), TaintTag::kKeyD);
  EXPECT_EQ(map.stats().phys_tainted, 0u);
  EXPECT_EQ(map.stats().stores, 0u);
}

}  // namespace
}  // namespace keyguard::analysis
