#include "net/message.h"

#include <gtest/gtest.h>

#include "bigint/rng.h"

namespace pcl {
namespace {

TEST(Message, ScalarRoundTrip) {
  MessageWriter w;
  w.write_u8(7);
  w.write_u32(0xdeadbeefu);
  w.write_u64(0x1122334455667788ull);
  w.write_i64(-42);
  w.write_double(3.14159);
  w.write_string("hello");

  MessageReader r(std::move(w).take());
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x1122334455667788ull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_double(), 3.14159);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Message, BigIntRoundTrip) {
  DeterministicRng rng(1);
  MessageWriter w;
  std::vector<BigInt> values;
  for (int i = 0; i < 50; ++i) {
    BigInt v = rng.random_bits(1 + 10 * i);
    if (i % 3 == 0) v = -v;
    values.push_back(v);
    w.write_bigint(v);
  }
  w.write_bigint(BigInt(0));
  MessageReader r(std::move(w).take());
  for (const BigInt& v : values) EXPECT_EQ(r.read_bigint(), v);
  EXPECT_TRUE(r.read_bigint().is_zero());
  EXPECT_TRUE(r.exhausted());
}

TEST(Message, VectorRoundTrip) {
  MessageWriter w;
  const std::vector<BigInt> bigs = {BigInt(1), BigInt(-200),
                                    BigInt::from_string("123456789012345678901")};
  const std::vector<std::int64_t> ints = {-1, 0, 42, INT64_MAX, INT64_MIN};
  w.write_bigint_vector(bigs);
  w.write_i64_vector(ints);
  MessageReader r(std::move(w).take());
  EXPECT_EQ(r.read_bigint_vector(), bigs);
  EXPECT_EQ(r.read_i64_vector(), ints);
  EXPECT_TRUE(r.exhausted());
}

TEST(Message, EmptyVectors) {
  MessageWriter w;
  w.write_bigint_vector({});
  w.write_i64_vector({});
  MessageReader r(std::move(w).take());
  EXPECT_TRUE(r.read_bigint_vector().empty());
  EXPECT_TRUE(r.read_i64_vector().empty());
}

TEST(Message, TruncatedReadThrows) {
  MessageWriter w;
  w.write_u32(5);
  MessageReader r(std::move(w).take());
  (void)r.read_u32();
  EXPECT_THROW((void)r.read_u8(), FramingError);
}

TEST(Message, TruncatedBytesThrow) {
  MessageWriter w;
  w.write_u64(1000);  // claims 1000 bytes follow, none do
  MessageReader r(std::move(w).take());
  EXPECT_THROW((void)r.read_bytes(), FramingError);
}

TEST(Message, BigIntSignByteIsZeroOrOne) {
  // One encoding per value: any sign byte but 0 or 1 is a framing error.
  const std::initializer_list<std::uint8_t> bad_signs = {2, 0x80, 0xff};
  for (const std::uint8_t sign : bad_signs) {
    MessageWriter w;
    w.write_u8(sign);
    w.write_bytes({0x05});
    MessageReader r(std::move(w).take());
    EXPECT_THROW((void)r.read_bigint(), FramingError) << int{sign};
  }
  MessageWriter w;
  w.write_u8(1);
  w.write_bytes({0x05});
  w.write_u8(0);
  w.write_bytes({0x05});
  MessageReader r(std::move(w).take());
  EXPECT_EQ(r.read_bigint(), BigInt(-5));
  EXPECT_EQ(r.read_bigint(), BigInt(5));
  EXPECT_TRUE(r.exhausted());
}

TEST(Message, TruncatedBigIntMagnitudeThrows) {
  MessageWriter w;
  w.write_u8(0);
  w.write_u64(3);  // claims 3 magnitude bytes, 1 follows
  w.write_u8(0x01);
  MessageReader r(std::move(w).take());
  EXPECT_THROW((void)r.read_bigint(), FramingError);
}

TEST(Message, SizeTracksBytes) {
  MessageWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.write_u32(1);
  EXPECT_EQ(w.size(), 4u);
  w.write_u64(1);
  EXPECT_EQ(w.size(), 12u);
}

}  // namespace
}  // namespace pcl
