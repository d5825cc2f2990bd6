#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "bignum/prime.hpp"

namespace keyguard::crypto {
namespace {

using bn::Bignum;

// Key generation dominates the suite's runtime, so keys are shared.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng(20070323);  // the paper's date
    key512_ = new RsaPrivateKey(generate_rsa_key(rng, 512));
    key1024_ = new RsaPrivateKey(generate_rsa_key(rng, 1024));
  }
  static void TearDownTestSuite() {
    delete key512_;
    delete key1024_;
    key512_ = nullptr;
    key1024_ = nullptr;
  }
  static RsaPrivateKey* key512_;
  static RsaPrivateKey* key1024_;
};

RsaPrivateKey* RsaTest::key512_ = nullptr;
RsaPrivateKey* RsaTest::key1024_ = nullptr;

TEST_F(RsaTest, GeneratedKeyValidates) {
  EXPECT_TRUE(key512_->validate());
  EXPECT_TRUE(key1024_->validate());
}

TEST_F(RsaTest, ModulusHasRequestedBits) {
  EXPECT_EQ(key512_->n.bit_length(), 512u);
  EXPECT_EQ(key1024_->n.bit_length(), 1024u);
}

TEST_F(RsaTest, PrimesHaveHalfModulusBits) {
  EXPECT_EQ(key1024_->p.bit_length(), 512u);
  EXPECT_EQ(key1024_->q.bit_length(), 512u);
  EXPECT_GT(key1024_->p, key1024_->q);  // conventional ordering
}

TEST_F(RsaTest, EncryptDecryptRoundTripCrt) {
  util::Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const Bignum m = bn::random_below(rng, key1024_->n);
    const Bignum c = key1024_->public_key().encrypt_raw(m);
    EXPECT_EQ(key1024_->decrypt_crt(c), m);
  }
}

TEST_F(RsaTest, CrtMatchesPlainDecryption) {
  util::Rng rng(2);
  for (int i = 0; i < 5; ++i) {
    const Bignum c = bn::random_below(rng, key512_->n);
    EXPECT_EQ(key512_->decrypt_crt(c), Bignum::mod_exp(c, key512_->d, key512_->n));
  }
}

TEST_F(RsaTest, SignVerifyViaRawOps) {
  // Signature = decrypt(m); verify = encrypt(sig) == m.
  util::Rng rng(3);
  const Bignum m = bn::random_below(rng, key1024_->n);
  const Bignum sig = key1024_->decrypt_crt(m);
  EXPECT_EQ(key1024_->public_key().encrypt_raw(sig), m);
}

TEST_F(RsaTest, PaddedEncryptDecryptRoundTrip) {
  util::Rng rng(4);
  const auto msg = util::to_bytes("attack at dawn");
  const auto c = pad_encrypt(rng, key1024_->public_key(), msg);
  ASSERT_TRUE(c.has_value());
  const auto back = unpad_decrypt(*key1024_, *c);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, msg);
}

TEST_F(RsaTest, PaddingRejectsOversizeMessage) {
  util::Rng rng(5);
  std::vector<std::byte> big(key512_->public_key().modulus_bytes() - 10);
  EXPECT_FALSE(pad_encrypt(rng, key512_->public_key(), big).has_value());
}

TEST_F(RsaTest, MaxLengthMessageFits) {
  util::Rng rng(6);
  std::vector<std::byte> msg(key512_->public_key().modulus_bytes() - 11, std::byte{0x5a});
  const auto c = pad_encrypt(rng, key512_->public_key(), msg);
  ASSERT_TRUE(c.has_value());
  const auto back = unpad_decrypt(*key512_, *c);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, msg);
}

TEST_F(RsaTest, UnpadRejectsGarbageCiphertext) {
  util::Rng rng(7);
  const Bignum junk = bn::random_below(rng, key512_->n);
  // A random ciphertext decrypts to a block that almost surely lacks the
  // 00 02 prefix.
  EXPECT_FALSE(unpad_decrypt(*key512_, junk).has_value());
}

TEST_F(RsaTest, EmptyMessageRoundTrips) {
  util::Rng rng(8);
  const auto c = pad_encrypt(rng, key512_->public_key(), {});
  ASSERT_TRUE(c.has_value());
  const auto back = unpad_decrypt(*key512_, *c);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST_F(RsaTest, ValidateDetectsTamperedKey) {
  RsaPrivateKey bad = *key512_;
  bad.d = bad.d + Bignum(2);
  EXPECT_FALSE(bad.validate());
  bad = *key512_;
  bad.p = bad.p + Bignum(2);
  EXPECT_FALSE(bad.validate());
  bad = *key512_;
  bad.iqmp = bad.iqmp + Bignum(1);
  EXPECT_FALSE(bad.validate());
}

TEST_F(RsaTest, FingerprintStableAndShort) {
  const auto fp = key_fingerprint(key1024_->public_key());
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp, key_fingerprint(key1024_->public_key()));
  EXPECT_NE(fp, key_fingerprint(key512_->public_key()));
}

TEST_F(RsaTest, DeterministicGeneration) {
  util::Rng a(77), b(77);
  const auto k1 = generate_rsa_key(a, 256);
  const auto k2 = generate_rsa_key(b, 256);
  EXPECT_EQ(k1.n, k2.n);
  EXPECT_EQ(k1.d, k2.d);
}

TEST_F(RsaTest, PublicExponentIsConfigurable) {
  util::Rng rng(88);
  const auto key = generate_rsa_key(rng, 256, 17);
  EXPECT_EQ(key.e, Bignum(17));
  EXPECT_TRUE(key.validate());
  const Bignum m(12345);
  EXPECT_EQ(key.decrypt_crt(key.public_key().encrypt_raw(m)), m);
}

}  // namespace
}  // namespace keyguard::crypto
