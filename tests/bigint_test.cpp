// BigInt unit and property tests.  Small values are cross-checked against
// native __int128 as an oracle; large values are checked through algebraic
// identities (ring axioms, Euclidean division, shift/multiply duality).
#include "bigint/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/rng.h"

namespace pcl {
namespace {

using i128 = __int128;

std::string i128_to_string(i128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  unsigned __int128 mag =
      neg ? ~static_cast<unsigned __int128>(v) + 1
          : static_cast<unsigned __int128>(v);
  std::string out;
  while (mag != 0) {
    out.push_back(static_cast<char>('0' + static_cast<int>(mag % 10)));
    mag /= 10;
  }
  if (neg) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

TEST(BigIntBasic, DefaultIsZero) {
  const BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_int64(), 0);
}

TEST(BigIntBasic, Int64RoundTrip) {
  const std::vector<std::int64_t> values = {
      0,  1,  -1, 42, -42, 1000000007, -1000000007, INT64_MAX, INT64_MIN,
      INT64_MAX - 1, INT64_MIN + 1, 1ll << 32, -(1ll << 32)};
  for (const std::int64_t v : values) {
    const BigInt b(v);
    EXPECT_TRUE(b.fits_int64()) << v;
    EXPECT_EQ(b.to_int64(), v) << v;
  }
}

TEST(BigIntBasic, Uint64RoundTrip) {
  const std::vector<std::uint64_t> values = {0, 1, UINT64_MAX, UINT64_MAX - 1,
                                             1ull << 63, 1ull << 32};
  for (const std::uint64_t v : values) {
    const BigInt b(v);
    EXPECT_TRUE(b.fits_uint64()) << v;
    EXPECT_EQ(b.to_uint64(), v) << v;
  }
}

TEST(BigIntBasic, OverflowChecksThrow) {
  const BigInt big = BigInt::from_string("340282366920938463463374607431768211456");
  EXPECT_FALSE(big.fits_uint64());
  EXPECT_FALSE(big.fits_int64());
  EXPECT_THROW((void)big.to_uint64(), std::overflow_error);
  EXPECT_THROW((void)big.to_int64(), std::overflow_error);
  EXPECT_FALSE(BigInt(-1).fits_uint64());
  EXPECT_THROW((void)BigInt(-1).to_uint64(), std::overflow_error);
}

TEST(BigIntBasic, Int64BoundaryFits) {
  // 2^63 fits int64 only when negative.
  BigInt two63(1);
  two63 <<= 63;
  EXPECT_FALSE(two63.fits_int64());
  EXPECT_TRUE((-two63).fits_int64());
  EXPECT_EQ((-two63).to_int64(), INT64_MIN);
}

TEST(BigIntBasic, StringRoundTripDecimal) {
  const std::vector<std::string> values = {
      "0", "1", "-1", "123456789012345678901234567890",
      "-99999999999999999999999999999999999999", "18446744073709551616"};
  for (const std::string& s : values) {
    EXPECT_EQ(BigInt::from_string(s).to_string(), s);
  }
}

TEST(BigIntBasic, StringHex) {
  EXPECT_EQ(BigInt::from_string("0xff", 16).to_int64(), 255);
  EXPECT_EQ(BigInt::from_string("DEADBEEF", 16).to_uint64(), 0xdeadbeefull);
  EXPECT_EQ(BigInt(255).to_string(16), "ff");
  EXPECT_EQ(BigInt(-255).to_string(16), "-ff");
}

TEST(BigIntBasic, MalformedStringsThrow) {
  EXPECT_THROW((void)BigInt::from_string(""), std::invalid_argument);
  EXPECT_THROW((void)BigInt::from_string("-"), std::invalid_argument);
  EXPECT_THROW((void)BigInt::from_string("12a"), std::invalid_argument);
  EXPECT_THROW((void)BigInt::from_string("0x", 16), std::invalid_argument);
  EXPECT_THROW((void)BigInt::from_string("123", 7), std::invalid_argument);
}

TEST(BigIntBasic, BytesRoundTrip) {
  DeterministicRng rng(7);
  for (int i = 0; i < 200; ++i) {
    const BigInt v = rng.random_bits(1 + i % 300);
    const auto bytes = v.to_bytes();
    EXPECT_EQ(BigInt::from_bytes(bytes), v);
    EXPECT_EQ(BigInt::from_bytes(bytes, true), v.is_zero() ? v : -v);
  }
  EXPECT_TRUE(BigInt::from_bytes({}).is_zero());

  // Known answers, across limb boundaries.
  using Bytes = std::vector<std::uint8_t>;
  EXPECT_EQ(BigInt::from_bytes(Bytes{0x2a}), BigInt(42));
  EXPECT_EQ(BigInt::from_bytes(Bytes{0x01, 0x00}), BigInt(256));
  EXPECT_EQ(BigInt::from_bytes(Bytes{0xde, 0xad, 0xbe, 0xef}),
            BigInt(std::uint64_t{0xdeadbeef}));
  EXPECT_EQ(BigInt::from_bytes(Bytes{0x01, 0x02, 0x03, 0x04, 0x05}),
            BigInt(std::uint64_t{0x0102030405}));
  EXPECT_EQ(BigInt::from_bytes(Bytes{0x80, 0, 0, 0, 0, 0, 0, 0, 0x01}),
            BigInt::from_string("800000000000000001", 16));
  EXPECT_EQ(BigInt::from_bytes(Bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                     0xff, 0xff},
                               true),
            -BigInt(~std::uint64_t{0}));

  // Leading zero bytes are ignored; to_bytes never emits them.
  EXPECT_EQ(BigInt::from_bytes(Bytes{0, 0, 0, 0, 0x12, 0x34}), BigInt(0x1234));
  EXPECT_EQ(BigInt::from_bytes(Bytes{0, 0, 0, 0, 0, 0, 0, 0, 0x07}),
            BigInt(7));
  EXPECT_TRUE(BigInt::from_bytes(Bytes(9, 0)).is_zero());

  // Every length 1-9 and 512 (a 4096-bit n^2 ciphertext), against hex.
  std::vector<std::size_t> lengths = {512};
  for (std::size_t len = 1; len <= 9; ++len) lengths.push_back(len);
  for (const std::size_t len : lengths) {
    Bytes bytes(len);
    std::string hex;
    for (std::size_t i = 0; i < len; ++i) {
      bytes[i] = static_cast<std::uint8_t>(rng.next_u64() | (i == 0 ? 1 : 0));
      static const char* const kDigits = "0123456789abcdef";
      hex += kDigits[bytes[i] >> 4];
      hex += kDigits[bytes[i] & 0xf];
    }
    const BigInt v = BigInt::from_bytes(bytes);
    EXPECT_EQ(v, BigInt::from_string(hex, 16)) << len;
    EXPECT_EQ(v.to_bytes(), bytes) << len;
    EXPECT_EQ(BigInt::from_bytes(bytes, true), -v) << len;
  }

  // The sign flag on an empty or all-zero magnitude still gives +0.
  EXPECT_EQ(BigInt::from_bytes({}, true), BigInt(0));
  EXPECT_FALSE(BigInt::from_bytes({}, true).is_negative());
  EXPECT_FALSE(BigInt::from_bytes(Bytes{0, 0}, true).is_negative());
}

TEST(BigIntBasic, ComparisonOrdering) {
  const BigInt a(-10), b(-2), c(0), d(3), e(300);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  EXPECT_LT(d, e);
  EXPECT_GT(e, a);
  EXPECT_EQ(BigInt(5), BigInt(5));
  EXPECT_NE(BigInt(5), BigInt(-5));
}

// ---------------------------------------------------------------------------
// Cross-check arithmetic against __int128 on a grid plus random values.
// ---------------------------------------------------------------------------

class BigIntOracleTest : public ::testing::Test {
 protected:
  static std::vector<std::int64_t> interesting_values() {
    std::vector<std::int64_t> out = {0,    1,     -1,    2,        -2,
                                     3,    -3,    7,     -7,       100,
                                     -100, 65535, 65536, -65536,   INT32_MAX,
                                     INT32_MIN,   1ll << 40, -(1ll << 40)};
    DeterministicRng rng(99);
    for (int i = 0; i < 40; ++i) {
      out.push_back(static_cast<std::int64_t>(rng.next_u64() >> 20));
      out.push_back(-static_cast<std::int64_t>(rng.next_u64() >> 20));
    }
    return out;
  }
};

TEST_F(BigIntOracleTest, AddSubMul) {
  for (const std::int64_t x : interesting_values()) {
    for (const std::int64_t y : interesting_values()) {
      const BigInt bx(x), by(y);
      EXPECT_EQ((bx + by).to_string(), i128_to_string(i128{x} + y));
      EXPECT_EQ((bx - by).to_string(), i128_to_string(i128{x} - y));
      EXPECT_EQ((bx * by).to_string(), i128_to_string(i128{x} * y));
    }
  }
}

TEST_F(BigIntOracleTest, DivModTruncatedTowardZero) {
  for (const std::int64_t x : interesting_values()) {
    for (const std::int64_t y : interesting_values()) {
      if (y == 0) continue;
      const BigInt bx(x), by(y);
      EXPECT_EQ((bx / by).to_int64(), x / y) << x << " / " << y;
      EXPECT_EQ((bx % by).to_int64(), x % y) << x << " % " << y;
    }
  }
}

TEST_F(BigIntOracleTest, DivisionByZeroThrows) {
  EXPECT_THROW((void)(BigInt(1) / BigInt(0)), std::domain_error);
  EXPECT_THROW((void)(BigInt(1) % BigInt(0)), std::domain_error);
  EXPECT_THROW((void)BigInt(5).mod(BigInt(0)), std::domain_error);
  EXPECT_THROW((void)BigInt(5).mod(BigInt(-3)), std::domain_error);
}

TEST_F(BigIntOracleTest, ModAlwaysNonNegative) {
  for (const std::int64_t x : interesting_values()) {
    for (const std::int64_t y : interesting_values()) {
      if (y <= 0) continue;
      const BigInt r = BigInt(x).mod(BigInt(y));
      EXPECT_FALSE(r.is_negative());
      EXPECT_LT(r, BigInt(y));
      EXPECT_EQ(((r - BigInt(x)) % BigInt(y)).to_int64(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Property sweeps on large random values.
// ---------------------------------------------------------------------------

class BigIntPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BigIntPropertyTest, EuclideanDivisionIdentity) {
  DeterministicRng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const BigInt a = rng.random_bits(64 + 13 * (i % 40));
    BigInt b = rng.random_bits(16 + 11 * (i % 30));
    if (b.is_zero()) b = BigInt(1);
    const auto [q, r] = BigInt::div_mod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    // Signed variants.
    const auto [q2, r2] = BigInt::div_mod(-a, b);
    EXPECT_EQ(q2 * b + r2, -a);
    const auto [q3, r3] = BigInt::div_mod(a, -b);
    EXPECT_EQ(q3 * -b + r3, a);
  }
}

TEST_P(BigIntPropertyTest, RingAxioms) {
  DeterministicRng rng(GetParam() * 31 + 5);
  for (int i = 0; i < 30; ++i) {
    const BigInt a = rng.random_bits(200) - rng.random_bits(199);
    const BigInt b = rng.random_bits(180) - rng.random_bits(181);
    const BigInt c = rng.random_bits(150) - rng.random_bits(150);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ(a + (-a), BigInt(0));
    EXPECT_EQ(a * BigInt(1), a);
    EXPECT_EQ(a * BigInt(0), BigInt(0));
  }
}

TEST_P(BigIntPropertyTest, ShiftMultiplyDuality) {
  DeterministicRng rng(GetParam() * 17 + 3);
  for (int i = 0; i < 40; ++i) {
    const BigInt a = rng.random_bits(1 + (i * 37) % 500);
    const std::size_t k = (i * 13) % 130;
    BigInt two_k(1);
    two_k <<= k;
    EXPECT_EQ(a << k, a * two_k);
    EXPECT_EQ((a << k) >> k, a);
    EXPECT_EQ(a >> k, a / two_k);
  }
}

TEST_P(BigIntPropertyTest, KaratsubaMatchesSchoolbookSizes) {
  // Crossing the Karatsuba threshold: verify via the identity
  // (x + y)^2 - (x - y)^2 == 4xy on large operands.
  DeterministicRng rng(GetParam() * 1009);
  for (int i = 0; i < 8; ++i) {
    const BigInt x = rng.random_bits(2000 + 500 * i);
    const BigInt y = rng.random_bits(1700 + 400 * i);
    const BigInt lhs = (x + y) * (x + y) - (x - y) * (x - y);
    EXPECT_EQ(lhs, BigInt(4) * x * y);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Number theory.
// ---------------------------------------------------------------------------

TEST(BigIntNumberTheory, PowModSmallOracle) {
  for (std::uint64_t base = 0; base < 12; ++base) {
    for (std::uint64_t exp = 0; exp < 12; ++exp) {
      for (std::uint64_t m = 1; m < 12; ++m) {
        std::uint64_t expected = 1 % m;
        for (std::uint64_t i = 0; i < exp; ++i) expected = expected * base % m;
        EXPECT_EQ(
            BigInt::pow_mod(BigInt(base), BigInt(exp), BigInt(m)).to_uint64(),
            expected)
            << base << "^" << exp << " mod " << m;
      }
    }
  }
}

TEST(BigIntNumberTheory, PowModFermat) {
  // a^(p-1) ≡ 1 mod p for prime p, gcd(a, p) = 1.
  const BigInt p = BigInt::from_string("1000000000000000003");
  DeterministicRng rng(5);
  for (int i = 0; i < 20; ++i) {
    const BigInt a = rng.uniform_in(BigInt(2), p - BigInt(2));
    EXPECT_EQ(BigInt::pow_mod(a, p - BigInt(1), p), BigInt(1));
  }
}

TEST(BigIntNumberTheory, PowModRejectsBadInputs) {
  EXPECT_THROW((void)BigInt::pow_mod(BigInt(2), BigInt(-1), BigInt(5)),
               std::domain_error);
  EXPECT_THROW((void)BigInt::pow_mod(BigInt(2), BigInt(3), BigInt(0)),
               std::domain_error);
  EXPECT_EQ(BigInt::pow_mod(BigInt(2), BigInt(10), BigInt(1)), BigInt(0));
}

TEST(BigIntNumberTheory, GcdLcm) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_EQ(BigInt::lcm(BigInt(0), BigInt(6)), BigInt(0));
  DeterministicRng rng(11);
  for (int i = 0; i < 30; ++i) {
    const BigInt a = rng.random_bits(120) + BigInt(1);
    const BigInt b = rng.random_bits(130) + BigInt(1);
    const BigInt g = BigInt::gcd(a, b);
    EXPECT_EQ(a.mod(g), BigInt(0));
    EXPECT_EQ(b.mod(g), BigInt(0));
    EXPECT_EQ(g * BigInt::lcm(a, b), a * b);
  }
}

TEST(BigIntNumberTheory, ExtendedGcdBezout) {
  DeterministicRng rng(13);
  for (int i = 0; i < 40; ++i) {
    const BigInt a = rng.random_bits(100) + BigInt(1);
    const BigInt b = rng.random_bits(90) + BigInt(1);
    const auto [g, x, y] = BigInt::extended_gcd(a, b);
    EXPECT_EQ(a * x + b * y, g);
    EXPECT_EQ(g, BigInt::gcd(a, b));
  }
}

TEST(BigIntNumberTheory, InvertMod) {
  const BigInt m = BigInt::from_string("1000000007");
  DeterministicRng rng(17);
  for (int i = 0; i < 30; ++i) {
    const BigInt a = rng.uniform_in(BigInt(1), m - BigInt(1));
    const BigInt inv = BigInt::invert_mod(a, m);
    EXPECT_EQ((a * inv).mod(m), BigInt(1));
    EXPECT_FALSE(inv.is_negative());
    EXPECT_LT(inv, m);
  }
  EXPECT_THROW((void)BigInt::invert_mod(BigInt(6), BigInt(9)),
               std::domain_error);
  EXPECT_THROW((void)BigInt::invert_mod(BigInt(3), BigInt(0)),
               std::domain_error);
}

TEST(BigIntNumberTheory, PlainPow) {
  EXPECT_EQ(BigInt::pow(BigInt(2), 10), BigInt(1024));
  EXPECT_EQ(BigInt::pow(BigInt(10), 20),
            BigInt::from_string("100000000000000000000"));
  EXPECT_EQ(BigInt::pow(BigInt(-3), 3), BigInt(-27));
  EXPECT_EQ(BigInt::pow(BigInt(7), 0), BigInt(1));
}

TEST(BigIntEdgeCases, KnuthAddBackCase) {
  // A divisor/dividend pair engineered to exercise the rare D6 add-back
  // branch: high limbs chosen so the initial quotient estimate is one high.
  const BigInt a = BigInt::from_string("0x7fffffff800000010000000000000000", 16);
  const BigInt b = BigInt::from_string("0x800000008000000200000005", 16);
  const auto [q, r] = BigInt::div_mod(a, b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
  EXPECT_FALSE(r.is_negative());
}

TEST(BigIntEdgeCases, RepeatedSelfOperations) {
  BigInt a(123456789);
  a += a;
  EXPECT_EQ(a, BigInt(246913578));
  a -= a;
  EXPECT_TRUE(a.is_zero());
  BigInt b(99);
  b *= b;
  EXPECT_EQ(b, BigInt(9801));
}

TEST(BigIntEdgeCases, BitAccess) {
  const BigInt v = BigInt::from_string("0x8000000000000001", 16);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_FALSE(v.bit(1000));
  EXPECT_EQ(v.bit_length(), 64u);
}

}  // namespace
}  // namespace pcl
