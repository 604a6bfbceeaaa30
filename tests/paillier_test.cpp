#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/primes.h"
#include "bigint/rng.h"

namespace pcl {
namespace {

class PaillierTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  PaillierTest() : rng_(GetParam() * 1000003 + 17) {
    key_ = generate_paillier_key(GetParam(), rng_);
  }
  DeterministicRng rng_;
  PaillierKeyPair key_;
};

TEST_P(PaillierTest, EncryptDecryptRoundTrip) {
  const BigInt quarter = key_.pk.n() >> 2;
  for (int i = 0; i < 20; ++i) {
    const BigInt m = rng_.uniform_in(-quarter, quarter);
    const PaillierCiphertext c = key_.pk.encrypt(m, rng_);
    EXPECT_EQ(key_.sk.decrypt(c), m);
  }
}

TEST_P(PaillierTest, ZeroAndUnits) {
  EXPECT_EQ(key_.sk.decrypt(key_.pk.encrypt(BigInt(0), rng_)), BigInt(0));
  EXPECT_EQ(key_.sk.decrypt(key_.pk.encrypt(BigInt(1), rng_)), BigInt(1));
  EXPECT_EQ(key_.sk.decrypt(key_.pk.encrypt(BigInt(-1), rng_)), BigInt(-1));
}

TEST_P(PaillierTest, HomomorphicAdditionEq1) {
  // Paper Eq. 1: E[m1 + m2] = E[m1] * E[m2].
  const BigInt eighth = key_.pk.n() >> 3;
  for (int i = 0; i < 15; ++i) {
    const BigInt m1 = rng_.uniform_in(-eighth, eighth);
    const BigInt m2 = rng_.uniform_in(-eighth, eighth);
    const auto c1 = key_.pk.encrypt(m1, rng_);
    const auto c2 = key_.pk.encrypt(m2, rng_);
    EXPECT_EQ(key_.sk.decrypt(key_.pk.add(c1, c2)), m1 + m2);
  }
}

TEST_P(PaillierTest, HomomorphicScalarMulEq2) {
  // Paper Eq. 2: E[a * m] = E[m]^a, including negative scalars.
  const BigInt small = key_.pk.n() >> 8;
  for (const std::int64_t a : {0ll, 1ll, 2ll, 7ll, -1ll, -13ll, 100ll}) {
    const BigInt m = rng_.uniform_in(-small, small);
    const auto c = key_.pk.encrypt(m, rng_);
    EXPECT_EQ(key_.sk.decrypt(key_.pk.scalar_mul(c, BigInt(a))),
              m * BigInt(a))
        << "a=" << a;
  }
}

TEST_P(PaillierTest, Negate) {
  const BigInt small = key_.pk.n() >> 8;
  for (int i = 0; i < 10; ++i) {
    const BigInt m = rng_.uniform_in(-small, small);
    const auto c = key_.pk.encrypt(m, rng_);
    EXPECT_EQ(key_.sk.decrypt(key_.pk.negate(c)), -m);
  }
}

TEST_P(PaillierTest, RerandomizePreservesPlaintextChangesCiphertext) {
  const BigInt m(123);
  const auto c = key_.pk.encrypt(m, rng_);
  const auto c2 = key_.pk.rerandomize(c, rng_);
  EXPECT_NE(c.value, c2.value);
  EXPECT_EQ(key_.sk.decrypt(c2), m);
}

TEST_P(PaillierTest, ProbabilisticEncryption) {
  // Two encryptions of the same message must differ (IND-CPA smoke test).
  const BigInt m(42);
  const auto c1 = key_.pk.encrypt(m, rng_);
  const auto c2 = key_.pk.encrypt(m, rng_);
  EXPECT_NE(c1.value, c2.value);
  EXPECT_EQ(key_.sk.decrypt(c1), key_.sk.decrypt(c2));
}

TEST_P(PaillierTest, LongAggregationChain) {
  // Sum 50 signed values homomorphically — the protocol's secure-sum core.
  BigInt expected(0);
  PaillierCiphertext acc = key_.pk.encrypt(BigInt(0), rng_);
  for (int i = 0; i < 50; ++i) {
    const BigInt m = rng_.uniform_in(BigInt(-1000), BigInt(1000));
    expected += m;
    acc = key_.pk.add(acc, key_.pk.encrypt(m, rng_));
  }
  EXPECT_EQ(key_.sk.decrypt(acc), expected);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierTest,
                         ::testing::Values(32u, 64u, 128u, 256u, 512u));

/// A key whose factors the test keeps, drawn as generate_paillier_key does,
/// with the textbook lambda decryption as the reference: c^lambda mod n^2,
/// then L(x) = (x - 1) / n, then times mu = lambda^-1 mod n.
class PaillierReferenceTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  PaillierReferenceTest() : rng_(GetParam() * 7919 + 3) {
    const std::size_t bits = GetParam();
    BigInt p, q, n;
    do {
      p = random_prime(bits / 2, rng_);
      q = random_prime(bits - bits / 2, rng_);
      n = p * q;
    } while (p == q || n.bit_length() != bits ||
             BigInt::gcd(n, (p - BigInt(1)) * (q - BigInt(1))) != BigInt(1));
    pk_ = PaillierPublicKey(n);
    sk_ = PaillierPrivateKey(pk_, p, q);
    lambda_ = BigInt::lcm(p - BigInt(1), q - BigInt(1));
    mu_ = BigInt::invert_mod(lambda_, n);
  }

  [[nodiscard]] BigInt reference_raw(const PaillierCiphertext& c) const {
    const BigInt x = BigInt::pow_mod(c.value, lambda_, pk_.n_squared());
    return (((x - BigInt(1)) / pk_.n()) * mu_).mod(pk_.n());
  }

  /// decrypt_raw agrees with the reference on c, and decrypt gives m.
  void expect_decrypts(const PaillierCiphertext& c, const BigInt& m) const {
    EXPECT_EQ(sk_.decrypt_raw(c), reference_raw(c)) << "m=" << m;
    EXPECT_EQ(sk_.decrypt(c), m);
  }

  DeterministicRng rng_;
  PaillierPublicKey pk_;
  PaillierPrivateKey sk_;
  BigInt lambda_, mu_;
};

TEST_P(PaillierReferenceTest, FreshEncryptionsMatchTheLambdaFormula) {
  const BigInt half = pk_.n() >> 1;  // floor(n/2)
  std::vector<BigInt> plaintexts = {BigInt(0), BigInt(1), BigInt(-1), half,
                                    -half};
  for (int i = 0; i < 8; ++i) {
    plaintexts.push_back(rng_.uniform_in(-half, half));
  }
  for (const BigInt& m : plaintexts) expect_decrypts(pk_.encrypt(m, rng_), m);
}

TEST_P(PaillierReferenceTest, DerivedCiphertextsMatchTheLambdaFormula) {
  const BigInt quarter = pk_.n() >> 2;
  const BigInt small = pk_.n() >> 8;
  for (int i = 0; i < 4; ++i) {
    const BigInt m1 = rng_.uniform_in(-quarter, quarter);
    const BigInt m2 = rng_.uniform_in(-quarter, quarter);
    const PaillierCiphertext c1 = pk_.encrypt(m1, rng_);
    expect_decrypts(pk_.add(c1, pk_.encrypt(m2, rng_)), m1 + m2);
    const BigInt m = rng_.uniform_in(-small, small);
    const BigInt a(static_cast<std::int64_t>(i) * 37 - 50);
    expect_decrypts(pk_.scalar_mul(pk_.encrypt(m, rng_), a), m * a);
    expect_decrypts(pk_.compose_plain(c1, m2), m1 + m2);
    expect_decrypts(pk_.encrypt_with_power(m1, pk_.randomizer_power(rng_)),
                    m1);
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierReferenceTest,
                         ::testing::Values(32u, 64u, 128u, 256u, 512u, 1024u));

TEST(PaillierEdge, KeyBitsValidated) {
  DeterministicRng rng(1);
  EXPECT_THROW((void)generate_paillier_key(8, rng), std::invalid_argument);
}

TEST(PaillierEdge, KeyHasRequestedSize) {
  DeterministicRng rng(2);
  for (const std::size_t bits : {40u, 64u, 100u}) {
    const auto key = generate_paillier_key(bits, rng);
    EXPECT_EQ(key.pk.key_bits(), bits);
  }
}

TEST(PaillierEdge, CiphertextRangeValidated) {
  DeterministicRng rng(3);
  const auto key = generate_paillier_key(64, rng);
  EXPECT_THROW((void)key.sk.decrypt({key.pk.n_squared()}),
               std::invalid_argument);
  EXPECT_THROW((void)key.sk.decrypt({BigInt(-1)}), std::invalid_argument);
  EXPECT_THROW((void)key.sk.decrypt({BigInt(0)}), std::invalid_argument);
  // Exactly [1, n^2) is accepted; 1 is the randomizer-free encryption of 0.
  EXPECT_EQ(key.sk.decrypt({BigInt(1)}), BigInt(0));
  EXPECT_NO_THROW((void)key.sk.decrypt({key.pk.n_squared() - BigInt(1)}));
}

TEST(PaillierEdge, DeterministicEncryptionWithFixedRandomness) {
  DeterministicRng rng(4);
  const auto key = generate_paillier_key(64, rng);
  const BigInt r(12345);
  const auto c1 = key.pk.encrypt_with_randomness(BigInt(7), r);
  const auto c2 = key.pk.encrypt_with_randomness(BigInt(7), r);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(key.sk.decrypt(c1), BigInt(7));
}

TEST(PaillierEdge, KeyWithoutContextThrows) {
  // A default-constructed key has no modulus and no context, and a zeroized
  // private key has dropped its own: operations throw instead of
  // dereferencing a missing context.  An even n has no context at all.
  const PaillierPublicKey empty;
  EXPECT_THROW((void)empty.add({BigInt(2)}, {BigInt(3)}), std::logic_error);
  EXPECT_THROW((void)empty.scalar_mul({BigInt(2)}, BigInt(3)),
               std::logic_error);
  DeterministicRng rng(7);
  PaillierKeyPair key = generate_paillier_key(64, rng);
  const PaillierCiphertext c = key.pk.encrypt(BigInt(5), rng);
  key.sk.zeroize();
  EXPECT_THROW((void)key.sk.decrypt(c), std::logic_error);
  EXPECT_THROW(PaillierPublicKey(key.pk.n() + BigInt(1)),
               std::invalid_argument);
}

TEST(PaillierEdge, WrongPrivateKeyRejected) {
  DeterministicRng rng(5);
  const auto key1 = generate_paillier_key(64, rng);
  const auto key2 = generate_paillier_key(64, rng);
  // Constructing a private key whose p*q does not match the public modulus.
  EXPECT_THROW(PaillierPrivateKey(key1.pk, key2.pk.n(), BigInt(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace pcl
