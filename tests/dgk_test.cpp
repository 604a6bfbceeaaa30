#include "crypto/dgk.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/primes.h"
#include "bigint/rng.h"

namespace pcl {
namespace {

class DgkTest : public ::testing::Test {
 protected:
  DgkTest() : rng_(20260706) {
    DgkParams params;
    params.n_bits = 192;
    params.v_bits = 40;
    params.plaintext_bound = 200;
    key_ = generate_dgk_key(params, rng_);
  }
  DeterministicRng rng_;
  DgkKeyPair key_;
};

TEST_F(DgkTest, PlaintextSpaceIsPrimeAboveBound) {
  DeterministicRng check(1);
  EXPECT_TRUE(is_probable_prime(key_.pk.u(), check));
  EXPECT_GT(key_.pk.u(), BigInt(200));
}

TEST_F(DgkTest, EncryptDecryptRoundTrip) {
  const std::uint64_t u = key_.pk.u_value();
  for (std::uint64_t m = 0; m < u; m += 7) {
    const DgkCiphertext c = key_.pk.encrypt(m, rng_);
    EXPECT_EQ(key_.sk.decrypt(c), m);
  }
}

TEST_F(DgkTest, ZeroTest) {
  EXPECT_TRUE(key_.sk.is_zero(key_.pk.encrypt(std::uint64_t{0}, rng_)));
  for (std::uint64_t m = 1; m < key_.pk.u_value(); m += 11) {
    EXPECT_FALSE(key_.sk.is_zero(key_.pk.encrypt(m, rng_))) << m;
  }
}

TEST_F(DgkTest, HomomorphicAddition) {
  const std::uint64_t u = key_.pk.u_value();
  for (int i = 0; i < 25; ++i) {
    const std::uint64_t m1 = rng_.next_u64() % u;
    const std::uint64_t m2 = rng_.next_u64() % u;
    const auto c = key_.pk.add(key_.pk.encrypt(m1, rng_),
                               key_.pk.encrypt(m2, rng_));
    EXPECT_EQ(key_.sk.decrypt(c), (m1 + m2) % u);
  }
}

TEST_F(DgkTest, HomomorphicScalarMul) {
  const std::uint64_t u = key_.pk.u_value();
  for (int i = 0; i < 15; ++i) {
    const std::uint64_t m = rng_.next_u64() % u;
    const std::uint64_t a = rng_.next_u64() % u;
    const auto c = key_.pk.scalar_mul(key_.pk.encrypt(m, rng_), BigInt(a));
    EXPECT_EQ(key_.sk.decrypt(c), m * a % u);
  }
}

TEST_F(DgkTest, NegateAndSubtract) {
  const std::uint64_t u = key_.pk.u_value();
  for (int i = 0; i < 15; ++i) {
    const std::uint64_t m1 = rng_.next_u64() % u;
    const std::uint64_t m2 = rng_.next_u64() % u;
    const auto diff = key_.pk.add(key_.pk.encrypt(m1, rng_),
                                  key_.pk.negate(key_.pk.encrypt(m2, rng_)));
    EXPECT_EQ(key_.sk.decrypt(diff), (m1 + u - m2) % u);
    EXPECT_EQ(key_.sk.is_zero(diff), m1 == m2);
  }
}

TEST_F(DgkTest, MultiplicativeBlindingPreservesZeroness) {
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t m = rng_.next_u64() % key_.pk.u_value();
    const auto blinded =
        key_.pk.blind_multiplicative(key_.pk.encrypt(m, rng_), rng_);
    EXPECT_EQ(key_.sk.is_zero(blinded), m == 0) << m;
  }
}

TEST_F(DgkTest, RerandomizePreservesPlaintext) {
  const auto c = key_.pk.encrypt(std::uint64_t{17}, rng_);
  const auto c2 = key_.pk.rerandomize(c, rng_);
  EXPECT_NE(c.value, c2.value);
  EXPECT_EQ(key_.sk.decrypt(c2), 17u);
}

TEST_F(DgkTest, ProbabilisticEncryption) {
  const auto c1 = key_.pk.encrypt(std::uint64_t{5}, rng_);
  const auto c2 = key_.pk.encrypt(std::uint64_t{5}, rng_);
  EXPECT_NE(c1.value, c2.value);
}

TEST_F(DgkTest, PlaintextRangeValidated) {
  EXPECT_THROW((void)key_.pk.encrypt(key_.pk.u(), rng_),
               std::invalid_argument);
  EXPECT_THROW((void)key_.pk.encrypt(BigInt(-1), rng_), std::invalid_argument);
}

TEST(DgkKeygen, ParamsValidated) {
  DeterministicRng rng(5);
  DgkParams params;
  params.n_bits = 64;  // far too small for v_bits=60
  EXPECT_THROW((void)generate_dgk_key(params, rng), std::invalid_argument);
}

TEST(DgkKeygen, KeyWithoutContextThrows) {
  // A default-constructed key has no modulus and no context, and a zeroized
  // private key has dropped its own: operations throw instead of
  // dereferencing a missing context.
  const DgkPublicKey empty;
  EXPECT_THROW((void)empty.add({BigInt(2)}, {BigInt(3)}), std::logic_error);
  DeterministicRng rng(7);
  DgkKeyPair key = generate_dgk_key({160, 30, 64}, rng);
  const DgkCiphertext c = key.pk.encrypt(std::uint64_t{0}, rng);
  key.sk.zeroize();
  EXPECT_THROW((void)key.sk.is_zero(c), std::logic_error);
}

class DgkParamSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DgkParamSweep, RoundTripAcrossSizes) {
  const auto [n_bits, v_bits] = GetParam();
  DeterministicRng rng(n_bits * 131 + v_bits);
  DgkParams params;
  params.n_bits = n_bits;
  params.v_bits = v_bits;
  params.plaintext_bound = 64;
  const DgkKeyPair key = generate_dgk_key(params, rng);
  const std::uint64_t u = key.pk.u_value();
  for (std::uint64_t m = 0; m < u; m += u / 7 + 1) {
    EXPECT_EQ(key.sk.decrypt(key.pk.encrypt(m, rng)), m);
    EXPECT_EQ(key.sk.is_zero(key.pk.encrypt(m, rng)), m == 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DgkParamSweep,
    ::testing::Values(std::make_tuple(160u, 30u), std::make_tuple(192u, 40u),
                      std::make_tuple(256u, 60u), std::make_tuple(320u, 80u)));

}  // namespace
}  // namespace pcl
