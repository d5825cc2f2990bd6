#include "sslsim/ssl_library.hpp"

#include <gtest/gtest.h>

#include "bignum/prime.hpp"
#include "crypto/pem.hpp"
#include "util/bytes.hpp"

namespace keyguard::sslsim {
namespace {

using bn::Bignum;

struct Fixture {
  // One shared 512-bit key for all sslsim tests (generation is the slow part).
  static const crypto::RsaPrivateKey& key() {
    static const crypto::RsaPrivateKey k = [] {
      util::Rng rng(7777);
      return crypto::generate_rsa_key(rng, 512);
    }();
    return k;
  }
  static std::string pem() { return crypto::pem_encode_private_key(key()); }
};

sim::KernelConfig small_config() {
  sim::KernelConfig cfg;
  cfg.mem_bytes = 8ull << 20;
  return cfg;
}

void install_key(sim::Kernel& k, const std::string& path = "/etc/ssh/host_key") {
  k.vfs().write_file(path, util::to_bytes(Fixture::pem()));
}

TEST(SslLibrary, LimbImageRoundTrip) {
  const Bignum v = *Bignum::from_hex("0102030405060708090a0b0c0d0e0f10");
  const auto image = SslLibrary::limb_image(v);
  EXPECT_EQ(image.size(), 16u);  // two limbs
  EXPECT_EQ(Bignum::from_bytes_le(image), v);
}

TEST(SslLibrary, LoadPrivateKeyMatchesHostKey) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key.has_value());
  const auto host = ssl.read_key(p, *key);
  EXPECT_EQ(host.n, Fixture::key().n);
  EXPECT_EQ(host.d, Fixture::key().d);
  EXPECT_EQ(host.p, Fixture::key().p);
  EXPECT_EQ(host.q, Fixture::key().q);
  EXPECT_TRUE(host.validate());
}

TEST(SslLibrary, LoadMissingFileFails) {
  sim::Kernel k(small_config());
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  EXPECT_FALSE(ssl.load_private_key(p, "/nope").has_value());
}

TEST(SslLibrary, LoadCorruptFileFails) {
  sim::Kernel k(small_config());
  k.vfs().write_file("/bad", util::to_bytes("not a pem"));
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  EXPECT_FALSE(ssl.load_private_key(p, "/bad").has_value());
}

TEST(SslLibrary, BaselineLoadLeavesKeyImagesInSimMemory) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  // d, P and Q limb images are findable in physical memory.
  for (const auto& part : {Fixture::key().d, Fixture::key().p, Fixture::key().q}) {
    const auto image = SslLibrary::limb_image(part);
    EXPECT_FALSE(util::find_all(k.memory().all(), image).empty());
  }
  // The PEM text is in memory at least twice: page cache + the freed (but
  // uncleared) heap parse buffer.
  const auto pem_hits =
      util::find_all(k.memory().all(), util::to_bytes(Fixture::pem()));
  EXPECT_GE(pem_hits.size(), 2u);
}

TEST(SslLibrary, ClearTemporariesScrubsParseBuffers) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {.auto_align = false, .clear_temporaries = true});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  // Only the page-cache copy of the PEM remains.
  const auto pem_hits =
      util::find_all(k.memory().all(), util::to_bytes(Fixture::pem()));
  EXPECT_EQ(pem_hits.size(), 1u);
}

TEST(SslLibrary, PrivateOpMatchesHostCrt) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  util::Rng rng(5);
  for (int i = 0; i < 3; ++i) {
    const Bignum c = bn::random_below(rng, Fixture::key().n);
    EXPECT_EQ(ssl.rsa_private_op(p, *key, c), Fixture::key().decrypt_crt(c));
  }
}

TEST(SslLibrary, PrivateOpEqualsDecryptCrtWithCachedAndTemporaryContexts) {
  // The op exponentiates with the R^2 its contexts hold: cached ones
  // (built by the first op, read back by every later one), per-op
  // temporaries with and without the clear discipline, and the aligned
  // key, whose cache is off.
  struct Mode {
    const char* name;
    SslConfig cfg;
    bool cache;
  };
  const Mode modes[] = {{"cached", {}, true},
                        {"temporary", {}, false},
                        {"temporary, clear-freed", {.clear_temporaries = true}, false},
                        {"aligned", {.auto_align = true, .clear_temporaries = true}, false}};
  const Bignum& n = Fixture::key().n;
  for (const Mode& mode : modes) {
    sim::Kernel k(small_config());
    install_key(k);
    auto& p = k.spawn("sshd");
    SslLibrary ssl(k, mode.cfg);
    auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
    ASSERT_TRUE(key) << mode.name;
    key->cache_private = key->cache_private && mode.cache;
    util::Rng rng(6);
    for (const Bignum& c : {Bignum{}, Bignum(1), n - Bignum(1), bn::random_below(rng, n),
                            bn::random_below(rng, n)}) {
      EXPECT_EQ(ssl.rsa_private_op(p, *key, c), Fixture::key().decrypt_crt(c))
          << mode.name << " c=" << c.to_hex();
    }
    EXPECT_EQ(key->mont_p.has_value(), mode.cache) << mode.name;
  }
}

TEST(SslLibrary, CachedContextsRrIsWhatTheOpRuns) {
  // Like OpenSSL's _method_mod_p, the cached context is the op's input:
  // overwriting its R^2 in simulated memory changes the result.
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  const Bignum c(4242);
  ASSERT_EQ(ssl.rsa_private_op(p, *key, c), Fixture::key().decrypt_crt(c));
  ASSERT_TRUE(key->mont_p.has_value());
  const SimBignum rr = key->mont_p->rr;
  const Bignum wrong = ssl.read_bignum(p, rr) + Bignum(1);
  auto image = SslLibrary::limb_image(wrong);
  image.resize(rr.bytes());
  k.mem_write(p, rr.data, image);
  EXPECT_NE(ssl.rsa_private_op(p, *key, c), Fixture::key().decrypt_crt(c));
}

TEST(SslLibrary, CachePrivateBuildsPersistentMontCopies) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  const auto p_image = SslLibrary::limb_image(Fixture::key().p);
  const auto before = util::find_all(k.memory().all(), p_image).size();
  ssl.rsa_private_op(p, *key, Bignum(12345));
  const auto after = util::find_all(k.memory().all(), p_image).size();
  EXPECT_EQ(after, before + 1);  // the cached BN_MONT_CTX copy of P
  ASSERT_TRUE(key->mont_p.has_value());
  // A second op reuses the cache: no further copies.
  ssl.rsa_private_op(p, *key, Bignum(99));
  EXPECT_EQ(util::find_all(k.memory().all(), p_image).size(), after);
}

TEST(SslLibrary, NoCacheLeavesResidueWithoutClearDiscipline) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  key->cache_private = false;  // flag cleared but library NOT patched
  const auto p_image = SslLibrary::limb_image(Fixture::key().p);
  const auto before = util::find_all(k.memory().all(), p_image).size();
  ssl.rsa_private_op(p, *key, Bignum(4321));
  // The temporary Montgomery copy was freed UNCLEARED: residue remains.
  EXPECT_GT(util::find_all(k.memory().all(), p_image).size(), before);
  EXPECT_FALSE(key->mont_p.has_value());
}

TEST(SslLibrary, NoCacheWithClearDisciplineLeavesNoResidue) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {.auto_align = false, .clear_temporaries = true});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  key->cache_private = false;
  const auto p_image = SslLibrary::limb_image(Fixture::key().p);
  const auto before = util::find_all(k.memory().all(), p_image).size();
  ssl.rsa_private_op(p, *key, Bignum(4321));
  EXPECT_EQ(util::find_all(k.memory().all(), p_image).size(), before);
}

TEST(SslLibrary, MemoryAlignCollapsesToOnePage) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  ssl.rsa_private_op(p, *key, Bignum(7));  // build caches first
  ASSERT_TRUE(ssl.rsa_memory_align(p, *key));
  EXPECT_TRUE(key->aligned);
  EXPECT_FALSE(key->cache_private);
  EXPECT_FALSE(key->mont_p.has_value());

  // Exactly one image of each CRT part remains, and they share one frame.
  const auto p_hits =
      util::find_all(k.memory().all(), SslLibrary::limb_image(Fixture::key().p));
  const auto q_hits =
      util::find_all(k.memory().all(), SslLibrary::limb_image(Fixture::key().q));
  const auto d_hits =
      util::find_all(k.memory().all(), SslLibrary::limb_image(Fixture::key().d));
  ASSERT_EQ(p_hits.size(), 1u);
  ASSERT_EQ(q_hits.size(), 1u);
  ASSERT_EQ(d_hits.size(), 1u);
  EXPECT_EQ(p_hits[0] / sim::kPageSize, q_hits[0] / sim::kPageSize);
  EXPECT_EQ(p_hits[0] / sim::kPageSize, d_hits[0] / sim::kPageSize);

  // The page is mlocked.
  const auto frame = static_cast<sim::FrameNumber>(p_hits[0] / sim::kPageSize);
  EXPECT_TRUE(k.frame_mlocked(frame));
}

TEST(SslLibrary, AlignIsIdempotent) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  ASSERT_TRUE(ssl.rsa_memory_align(p, *key));
  const auto page = key->aligned_page;
  ASSERT_TRUE(ssl.rsa_memory_align(p, *key));
  EXPECT_EQ(key->aligned_page, page);
}

TEST(SslLibrary, AlignedKeyStillComputesCorrectly) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {.auto_align = true, .clear_temporaries = true});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  EXPECT_TRUE(key->aligned);
  const Bignum c(987654321);
  EXPECT_EQ(ssl.rsa_private_op(p, *key, c), Fixture::key().decrypt_crt(c));
}

TEST(SslLibrary, AlignedPageSharedAcrossForksAfterOps) {
  // The headline guarantee: forked children performing private ops never
  // duplicate the aligned page.
  sim::Kernel k(small_config());
  install_key(k);
  auto& master = k.spawn("master");
  SslLibrary ssl(k, {.auto_align = true, .clear_temporaries = true});
  auto key = ssl.load_private_key(master, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  for (int i = 0; i < 5; ++i) {
    auto& child = k.fork(master, "worker");
    SimRsaKey child_key = *key;  // the struct is copied; sim memory is shared
    ssl.rsa_private_op(child, child_key, Bignum(1000 + i));
    k.exit_process(child);
  }
  const auto p_hits =
      util::find_all(k.memory().all(), SslLibrary::limb_image(Fixture::key().p));
  EXPECT_EQ(p_hits.size(), 1u);
}

TEST(SslLibrary, ONocacheKeepsPemOutOfPageCache) {
  sim::KernelConfig cfg = small_config();
  cfg.o_nocache_supported = true;
  sim::Kernel k(cfg);
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k,
                 {.auto_align = true, .clear_temporaries = true, .open_keys_nocache = true});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  EXPECT_FALSE(k.page_cache().cached("/etc/ssh/host_key"));
  // No PEM text anywhere in physical memory.
  EXPECT_TRUE(util::find_all(k.memory().all(), util::to_bytes(Fixture::pem())).empty());
}

TEST(SslLibrary, RsaFreeScrubsEverything) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {.auto_align = false, .clear_temporaries = true});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  ssl.rsa_private_op(p, *key, Bignum(5));
  ssl.rsa_free(p, *key);
  for (const auto& part : {Fixture::key().d, Fixture::key().p, Fixture::key().q}) {
    EXPECT_TRUE(util::find_all(k.memory().all(), SslLibrary::limb_image(part)).empty());
  }
}

TEST(SslLibrary, RsaFreeOnAlignedKeyScrubsThePage) {
  sim::Kernel k(small_config());
  install_key(k);
  auto& p = k.spawn("sshd");
  SslLibrary ssl(k, {.auto_align = true, .clear_temporaries = true});
  auto key = ssl.load_private_key(p, "/etc/ssh/host_key");
  ASSERT_TRUE(key);
  ssl.rsa_free(p, *key);
  EXPECT_TRUE(util::find_all(k.memory().all(),
                             SslLibrary::limb_image(Fixture::key().p)).empty());
}

}  // namespace
}  // namespace keyguard::sslsim
