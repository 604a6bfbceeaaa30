#include "bigint/montgomery.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/primes.h"
#include "bigint/rng.h"

namespace pcl {
namespace {

TEST(Montgomery, RejectsBadModuli) {
  EXPECT_THROW(MontgomeryContext(BigInt(0)), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigInt(1)), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigInt(100)), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigInt(-7)), std::invalid_argument);
  EXPECT_NO_THROW(MontgomeryContext(BigInt(3)));
}

TEST(Montgomery, FormRoundTrip) {
  DeterministicRng rng(1);
  for (const std::size_t bits : {8u, 33u, 64u, 129u, 256u}) {
    BigInt m = rng.random_bits_exact(bits);
    if (m.is_even()) m += BigInt(1);
    const MontgomeryContext ctx(m);
    for (int i = 0; i < 10; ++i) {
      const BigInt x = rng.uniform_below(m);
      // Both run x into the Montgomery form and back out.
      EXPECT_EQ(ctx.mul_mod(x, BigInt(1)), x);
      EXPECT_EQ(ctx.pow(x, BigInt(1)), x);
    }
  }
}

TEST(Montgomery, MulMatchesPlainModularProduct) {
  DeterministicRng rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    BigInt m = rng.random_bits_exact(32 + 17 * (trial % 12));
    if (m.is_even()) m += BigInt(1);
    if (m <= BigInt(1)) continue;
    const MontgomeryContext ctx(m);
    const BigInt a = rng.uniform_below(m);
    const BigInt b = rng.uniform_below(m);
    EXPECT_EQ(ctx.mul_mod(a, b), (a * b).mod(m));
  }
}

TEST(Montgomery, PowMatchesNaiveSquareAndMultiply) {
  DeterministicRng rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    BigInt m = rng.random_bits_exact(48 + 29 * (trial % 8));
    if (m.is_even()) m += BigInt(1);
    const MontgomeryContext ctx(m);
    const BigInt base = rng.uniform_below(m);
    const BigInt exp = rng.random_bits(1 + (trial * 11) % 160);
    // Naive reference computed without the Montgomery fast path.
    BigInt expected(1);
    BigInt b = base.mod(m);
    for (std::size_t i = 0; i < exp.bit_length(); ++i) {
      if (exp.bit(i)) expected = (expected * b).mod(m);
      b = (b * b).mod(m);
    }
    EXPECT_EQ(ctx.pow(base, exp), expected);
  }
}

TEST(Montgomery, PowEdgeCases) {
  const MontgomeryContext ctx(BigInt(1000003));
  EXPECT_EQ(ctx.pow(BigInt(5), BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx.pow(BigInt(0), BigInt(10)), BigInt(0));
  EXPECT_EQ(ctx.pow(BigInt(1), BigInt(1) << 100), BigInt(1));
  EXPECT_THROW((void)ctx.pow(BigInt(2), BigInt(-1)), std::invalid_argument);
  // Negative base reduces mod m first.
  EXPECT_EQ(ctx.pow(BigInt(-2), BigInt(2)), BigInt(4));
}

TEST(Montgomery, FermatOnLargePrime) {
  DeterministicRng rng(4);
  const BigInt p = random_prime(192, rng);
  const MontgomeryContext ctx(p);
  for (int i = 0; i < 10; ++i) {
    const BigInt a = rng.uniform_in(BigInt(2), p - BigInt(2));
    EXPECT_EQ(ctx.pow(a, p - BigInt(1)), BigInt(1));
  }
}

TEST(Montgomery, WindowedPowMatchesNaiveAtCryptoSizes) {
  // The fixed-window kernel at the sizes the protocol actually runs
  // (Paillier n^2 at 2048-bit, DGK n at 1024-bit), against the plain
  // square-and-multiply oracle.
  DeterministicRng rng(8);
  for (const std::size_t bits : {1024u, 2048u}) {
    BigInt m = rng.random_bits_exact(bits);
    if (m.is_even()) m += BigInt(1);
    const MontgomeryContext ctx(m);
    const BigInt base = rng.uniform_below(m);
    const BigInt exp = rng.random_bits(bits / 4);
    BigInt expected(1);
    BigInt b = base.mod(m);
    for (std::size_t i = 0; i < exp.bit_length(); ++i) {
      if (exp.bit(i)) expected = (expected * b).mod(m);
      b = (b * b).mod(m);
    }
    EXPECT_EQ(ctx.pow(base, exp), expected) << bits << "-bit modulus";
  }
}

TEST(Montgomery, PowModIntegrationUsesIt) {
  // BigInt::pow_mod must agree with the context on odd moduli (it routes
  // through Montgomery internally) and stay correct on even moduli (naive
  // path).
  DeterministicRng rng(5);
  const BigInt odd_m = random_prime(96, rng) * random_prime(64, rng);
  const MontgomeryContext ctx(odd_m);
  for (int i = 0; i < 10; ++i) {
    const BigInt base = rng.uniform_below(odd_m);
    const BigInt exp = rng.random_bits(128);
    EXPECT_EQ(BigInt::pow_mod(base, exp, odd_m), ctx.pow(base, exp));
  }
  // Even modulus: cross-check with small-value oracle.
  for (std::uint64_t base = 0; base < 8; ++base) {
    for (std::uint64_t exp = 0; exp < 8; ++exp) {
      std::uint64_t expected = 1 % 24;
      for (std::uint64_t i = 0; i < exp; ++i) expected = expected * base % 24;
      EXPECT_EQ(BigInt::pow_mod(BigInt(base), BigInt(exp), BigInt(24)),
                BigInt(expected));
    }
  }
}

}  // namespace
}  // namespace pcl
