#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace keyguard::crypto {
namespace {

constexpr Sha256State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// SHA-256 on the portable kernel alone, padded here rather than by
// Sha256: the oracle the dispatched kernel and Sha256's buffering and
// padding are held to.
Sha256::Digest portable_hash(std::span<const std::byte> data) {
  Sha256State state = kInitialState;
  const std::size_t whole = data.size() - data.size() % 64;
  portable::sha256_compress(state, data.first(whole));
  std::array<std::byte, 128> tail{};
  const std::size_t rest = data.size() - whole;
  std::copy(data.begin() + static_cast<std::ptrdiff_t>(whole), data.end(), tail.begin());
  tail[rest] = std::byte{0x80};
  const std::size_t tail_len = rest < 56 ? 64 : 128;
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(data.size());
  for (std::size_t i = 0; i < 8; ++i) tail[tail_len - 1 - i] = static_cast<std::byte>(bits >> (8 * i));
  portable::sha256_compress(state, std::span(tail).first(tail_len));
  Sha256::Digest out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

std::vector<std::byte> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  rng.fill_bytes(out);
  return out;
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash_str("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash_str("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::hash_str(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(util::as_bytes(chunk));
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.update({reinterpret_cast<const std::byte*>(&c), 1});
  EXPECT_EQ(h.finish(), Sha256::hash_str(msg));
}

TEST(Sha256, ExactBlockBoundary) {
  // 55, 56, 57, 63, 64, 65 bytes straddle the padding edge cases.
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(util::as_bytes(msg));
    const auto d1 = a.finish();
    // Split at an arbitrary point.
    Sha256 b;
    b.update(util::as_bytes(std::string_view(msg).substr(0, len / 3)));
    b.update(util::as_bytes(std::string_view(msg).substr(len / 3)));
    EXPECT_EQ(d1, b.finish()) << len;
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash_str("a"), Sha256::hash_str("b"));
}

TEST(Sha256Portable, NistVectors) {
  EXPECT_EQ(digest_hex(portable_hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(portable_hash(util::as_bytes(std::string_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_hex(portable_hash(util::as_bytes(std::string_view(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  const std::string million(1000000, 'a');
  EXPECT_EQ(digest_hex(portable_hash(util::as_bytes(million))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Kernels, CompressMatchesPortableOnRandomStatesAndBlocks) {
  util::Rng rng(0x5348414e49);
  for (std::size_t blocks = 1; blocks <= 4; ++blocks) {
    for (int trial = 0; trial < 64; ++trial) {
      Sha256State state;
      for (auto& word : state) word = rng.next_u32();
      Sha256State expect = state;
      const auto data = random_bytes(rng, 64 * blocks);
      sha256_compress(state, data);
      portable::sha256_compress(expect, data);
      ASSERT_EQ(state, expect) << sha256_kernel_name() << ", " << blocks << " blocks";
    }
  }
}

TEST(Sha256Kernels, DispatchedMatchesPortableAtEveryLengthAndSplit) {
  // Sha256 on the kernel CPUID picked, fed in up to three pieces split at
  // seeded random points, against the portable oracle's one-shot digest.
  const std::string kernel = sha256_kernel_name();
  RecordProperty("sha256_kernel", kernel);
  if (kernel == "portable") {
    std::cout << "sha256_kernel=portable: no SHA extensions here; this checks Sha256's "
                 "buffering and padding against the oracle on the portable kernel\n";
  }
  util::Rng rng(0x6f7261636c65);
  const auto check = [&](const std::vector<std::byte>& data) {
    std::size_t cut1 = rng.next_below(data.size() + 1);
    std::size_t cut2 = rng.next_below(data.size() + 1);
    if (cut1 > cut2) std::swap(cut1, cut2);
    const std::span<const std::byte> all(data);
    Sha256 h;
    h.update(all.first(cut1));
    h.update(all.subspan(cut1, cut2 - cut1));
    h.update(all.subspan(cut2));
    EXPECT_EQ(h.finish(), portable_hash(data)) << kernel << ", " << data.size() << " bytes split at "
                                                << cut1 << " and " << cut2;
  };
  for (std::size_t len = 0; len <= 1024; ++len) check(random_bytes(rng, len));
  check(random_bytes(rng, std::size_t{64} << 10));
}

}  // namespace
}  // namespace keyguard::crypto
