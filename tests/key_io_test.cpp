#include "crypto/key_io.h"

#include <gtest/gtest.h>

#include "net/pki.h"

namespace pcl {
namespace {

TEST(KeyIo, PaillierRoundTripPreservesFunctionality) {
  DeterministicRng rng(1);
  const PaillierKeyPair key = generate_paillier_key(64, rng);
  const PaillierPublicKey restored =
      parse_paillier_public_key(serialize_paillier_public_key(key.pk));
  EXPECT_EQ(restored, key.pk);
  // A ciphertext made with the restored key decrypts under the original sk.
  const PaillierCiphertext c = restored.encrypt(BigInt(-12345), rng);
  EXPECT_EQ(key.sk.decrypt(c), BigInt(-12345));
}

TEST(KeyIo, DgkRoundTripPreservesFunctionality) {
  DeterministicRng rng(2);
  DgkParams params;
  params.n_bits = 160;
  params.v_bits = 30;
  params.plaintext_bound = 64;
  const DgkKeyPair key = generate_dgk_key(params, rng);
  const DgkPublicKey restored =
      parse_dgk_public_key(serialize_dgk_public_key(key.pk));
  EXPECT_EQ(restored.n(), key.pk.n());
  EXPECT_EQ(restored.u(), key.pk.u());
  EXPECT_EQ(restored.v_bits(), key.pk.v_bits());
  const DgkCiphertext c = restored.encrypt(std::uint64_t{17}, rng);
  EXPECT_EQ(key.sk.decrypt(c), 17u);
  EXPECT_FALSE(key.sk.is_zero(c));
}

TEST(KeyIo, TypeTagsEnforced) {
  DeterministicRng rng(3);
  const PaillierKeyPair pai = generate_paillier_key(64, rng);
  const auto bytes = serialize_paillier_public_key(pai.pk);
  EXPECT_THROW((void)parse_dgk_public_key(bytes), std::invalid_argument);
}

TEST(KeyIo, VersionEnforced) {
  DeterministicRng rng(4);
  const PaillierKeyPair pai = generate_paillier_key(64, rng);
  auto bytes = serialize_paillier_public_key(pai.pk);
  bytes[1] = 99;  // version byte
  EXPECT_THROW((void)parse_paillier_public_key(bytes), std::invalid_argument);
}

TEST(KeyIo, TrailingBytesRejected) {
  DeterministicRng rng(5);
  const PaillierKeyPair pai = generate_paillier_key(64, rng);
  auto bytes = serialize_paillier_public_key(pai.pk);
  bytes.push_back(0);
  EXPECT_THROW((void)parse_paillier_public_key(bytes), std::invalid_argument);
}

TEST(KeyIo, ImplausibleDgkParametersRejected) {
  MessageWriter w;
  w.write_u8(0x44);
  w.write_u8(1);
  w.write_bigint(BigInt(2));  // n way too small
  w.write_bigint(BigInt(2));
  w.write_bigint(BigInt(2));
  w.write_bigint(BigInt(3));
  w.write_u64(30);
  auto bytes = std::move(w).take();
  EXPECT_THROW((void)parse_dgk_public_key(bytes), std::invalid_argument);
}

TEST(KeyIo, EvenPaillierModulusRejected) {
  // n + 1 of a real key: even, so n² has no Montgomery context and the key
  // cannot be built.
  DeterministicRng rng(9);
  const PaillierKeyPair pai = generate_paillier_key(64, rng);
  MessageWriter w;
  w.write_u8(0x50);
  w.write_u8(1);
  w.write_bigint(pai.pk.n() + BigInt(1));
  EXPECT_THROW((void)parse_paillier_public_key(std::move(w).take()),
               std::invalid_argument);
}

TEST(KeyIo, EvenDgkModulusRejected) {
  DeterministicRng rng(10);
  const DgkKeyPair dgk = generate_dgk_key({160, 30, 64}, rng);
  MessageWriter w;
  w.write_u8(0x44);
  w.write_u8(1);
  w.write_bigint(dgk.pk.n() + BigInt(1));
  w.write_bigint(dgk.pk.g());
  w.write_bigint(dgk.pk.h());
  w.write_bigint(dgk.pk.u());
  w.write_u64(dgk.pk.v_bits());
  EXPECT_THROW((void)parse_dgk_public_key(std::move(w).take()),
               std::invalid_argument);
}

TEST(Pki, RegisterAndFetch) {
  DeterministicRng rng(6);
  const PaillierKeyPair s1 = generate_paillier_key(64, rng);
  const PaillierKeyPair s2 = generate_paillier_key(64, rng);
  PublicKeyRegistry pki;
  pki.register_key("S1", "paillier", serialize_paillier_public_key(s1.pk));
  pki.register_key("S2", "paillier", serialize_paillier_public_key(s2.pk));
  EXPECT_EQ(pki.size(), 2u);
  EXPECT_TRUE(pki.has_key("S1", "paillier"));
  EXPECT_FALSE(pki.has_key("S3", "paillier"));
  const PaillierPublicKey fetched =
      parse_paillier_public_key(pki.fetch("S2", "paillier"));
  EXPECT_EQ(fetched, s2.pk);
  EXPECT_THROW((void)pki.fetch("S3", "paillier"), std::out_of_range);
}

TEST(Pki, EquivocationRejected) {
  DeterministicRng rng(7);
  const PaillierKeyPair a = generate_paillier_key(64, rng);
  const PaillierKeyPair b = generate_paillier_key(64, rng);
  PublicKeyRegistry pki;
  pki.register_key("S1", "paillier", serialize_paillier_public_key(a.pk));
  // Same key again: idempotent.
  EXPECT_NO_THROW(pki.register_key("S1", "paillier",
                                   serialize_paillier_public_key(a.pk)));
  // A different key for the same identity: pinned, rejected.
  EXPECT_THROW(pki.register_key("S1", "paillier",
                                serialize_paillier_public_key(b.pk)),
               std::invalid_argument);
  EXPECT_THROW(pki.register_key("S1", "dgk", {}), std::invalid_argument);
}

TEST(Pki, UsersCanEncryptFromRegistryKeys) {
  // The Alg. 5 setup path: users fetch both servers' keys from the PKI and
  // encrypt their shares; the servers decrypt successfully.
  DeterministicRng rng(8);
  const PaillierKeyPair s1 = generate_paillier_key(64, rng);
  const PaillierKeyPair s2 = generate_paillier_key(64, rng);
  PublicKeyRegistry pki;
  pki.register_key("S1", "paillier", serialize_paillier_public_key(s1.pk));
  pki.register_key("S2", "paillier", serialize_paillier_public_key(s2.pk));

  const PaillierPublicKey pk1 =
      parse_paillier_public_key(pki.fetch("S1", "paillier"));
  const PaillierPublicKey pk2 =
      parse_paillier_public_key(pki.fetch("S2", "paillier"));
  // User sends a-share under pk2 (to S1) and b-share under pk1 (to S2).
  const PaillierCiphertext to_s1 = pk2.encrypt(BigInt(1000), rng);
  const PaillierCiphertext to_s2 = pk1.encrypt(BigInt(-975), rng);
  EXPECT_EQ(s2.sk.decrypt(to_s1) + s1.sk.decrypt(to_s2), BigInt(25));
}

}  // namespace
}  // namespace pcl
