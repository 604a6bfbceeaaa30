// Secure comparison protocol tests: exhaustive small ranges, signed and
// boundary sweeps, and the plaintext oracle property x >= y.
#include "mpc/dgk_compare.h"

#include <gtest/gtest.h>

namespace pcl {
namespace {

class DgkCompareTest : public ::testing::Test {
 protected:
  DgkCompareTest() : rng_(12345) {
    DgkParams params;
    params.n_bits = 160;
    params.v_bits = 30;
    params.plaintext_bound = 200;  // u > 3*ell+4 for ell up to 62
    key_ = generate_dgk_key(params, rng_);
  }

  bool compare(std::int64_t x, std::int64_t y, std::size_t ell) {
    Network net;
    const DgkCompareContext ctx(key_.pk, key_.sk, ell);
    const bool result = dgk_compare_geq(net, ctx, x, y, rng_.next_u64());
    EXPECT_EQ(net.pending_total(), 0u);
    return result;
  }

  DeterministicRng rng_;
  DgkKeyPair key_;
};

TEST_F(DgkCompareTest, ExhaustiveSmallRange) {
  for (std::int64_t x = -8; x < 8; ++x) {
    for (std::int64_t y = -8; y < 8; ++y) {
      EXPECT_EQ(compare(x, y, 5), x >= y) << x << " vs " << y;
    }
  }
}

TEST_F(DgkCompareTest, EqualValues) {
  for (const std::int64_t v : {0ll, 1ll, -1ll, 1000ll, -1000ll, 123456ll}) {
    EXPECT_TRUE(compare(v, v, 22)) << v;
  }
}

TEST_F(DgkCompareTest, AdjacentValues) {
  for (const std::int64_t v : {-100ll, -1ll, 0ll, 1ll, 99ll, 1ll << 20}) {
    EXPECT_TRUE(compare(v + 1, v, 24));
    EXPECT_FALSE(compare(v, v + 1, 24));
  }
}

TEST_F(DgkCompareTest, BoundaryOfDomain) {
  const std::size_t ell = 10;
  const std::int64_t half = 1 << (ell - 1);
  EXPECT_TRUE(compare(half - 1, -half, ell));
  EXPECT_FALSE(compare(-half, half - 1, ell));
  EXPECT_TRUE(compare(-half, -half, ell));
  EXPECT_THROW((void)compare(half, 0, ell), std::out_of_range);
  EXPECT_THROW((void)compare(0, -half - 1, ell), std::out_of_range);
}

TEST_F(DgkCompareTest, RandomSweepWideWidth) {
  DeterministicRng vals(777);
  for (int i = 0; i < 60; ++i) {
    const std::int64_t x = vals.uniform_in(BigInt(-(1ll << 50)),
                                           BigInt(1ll << 50)).to_int64();
    const std::int64_t y = vals.uniform_in(BigInt(-(1ll << 50)),
                                           BigInt(1ll << 50)).to_int64();
    EXPECT_EQ(compare(x, y, 52), x >= y) << x << " vs " << y;
  }
}

TEST_F(DgkCompareTest, ContextValidation) {
  EXPECT_THROW((void)DgkCompareContext(key_.pk, key_.sk, 0),
               std::invalid_argument);
  EXPECT_THROW((void)DgkCompareContext(key_.pk, key_.sk, 63),
               std::invalid_argument);
  // u ~ 211 here, so ell = 62 gives 3*62+4 = 190 < u: fine; a tiny-u key
  // must be rejected for wide ell.
  DeterministicRng rng(9);
  DgkParams tiny;
  tiny.n_bits = 160;
  tiny.v_bits = 30;
  tiny.plaintext_bound = 16;  // u = 17
  const DgkKeyPair small_key = generate_dgk_key(tiny, rng);
  EXPECT_THROW((void)DgkCompareContext(small_key.pk, small_key.sk, 8),
               std::invalid_argument);
  EXPECT_NO_THROW((void)DgkCompareContext(small_key.pk, small_key.sk, 4));
}

TEST_F(DgkCompareTest, CommunicationIsTwoCiphertextRounds) {
  TrafficStats stats;
  Network net(&stats);
  net.set_step("cmp");
  const DgkCompareContext ctx(key_.pk, key_.sk, 16);
  (void)dgk_compare_geq(net, ctx, 3, 5, 7);
  // S2->S1: bits + result bit; S1->S2: blinded sequence.
  EXPECT_EQ(stats.messages_for("cmp", "S2", "S1"), 2u);
  EXPECT_EQ(stats.messages_for("cmp", "S1", "S2"), 1u);
  // Each direction carries ell ciphertexts of ~n/8 bytes each.
  EXPECT_GT(stats.bytes_for("cmp", "S1", "S2"), 16u * 12u);
}

}  // namespace
}  // namespace pcl
