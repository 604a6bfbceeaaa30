// Threaded-schedule tests: the sub-protocol drivers run with every party on
// its own thread must compute exactly what the plaintext oracles compute.
#include <gtest/gtest.h>

#include "mpc/dgk_compare.h"
#include "mpc/he_util.h"
#include "mpc/secure_sum.h"
#include "mpc/sharing.h"

namespace pcl {
namespace {

class ThreadedTest : public ::testing::Test {
 protected:
  ThreadedTest() : rng_(2718) {
    DgkParams params;
    params.n_bits = 160;
    params.v_bits = 30;
    params.plaintext_bound = 200;
    dgk_ = generate_dgk_key(params, rng_);
    paillier_ = generate_server_paillier_keys(64, rng_);
  }

  static bool compare(const DgkCompareContext& ctx, std::int64_t x,
                      std::int64_t y, std::uint64_t seed) {
    Network net;
    return dgk_compare_geq(net, ctx, x, y, seed, PartyTransport::kThreaded);
  }

  static SecureSumResult sum(Network& net, const ServerPaillierKeys& keys,
                             const std::vector<std::vector<std::int64_t>>& a,
                             const std::vector<std::vector<std::int64_t>>& b,
                             std::uint64_t seed) {
    return secure_sum(net, keys, a, b, seed, nullptr,
                      PartyTransport::kThreaded);
  }

  DeterministicRng rng_;
  DgkKeyPair dgk_;
  ServerPaillierKeys paillier_;
};

TEST_F(ThreadedTest, CompareMatchesOracleOnSweep) {
  const DgkCompareContext ctx(dgk_.pk, dgk_.sk, 20);
  DeterministicRng vals(5);
  for (int i = 0; i < 20; ++i) {
    const std::int64_t x =
        vals.uniform_in(BigInt(-500000), BigInt(500000)).to_int64();
    const std::int64_t y =
        vals.uniform_in(BigInt(-500000), BigInt(500000)).to_int64();
    EXPECT_EQ(compare(ctx, x, y, 1000 + i), x >= y) << x << " vs " << y;
  }
}

TEST_F(ThreadedTest, CompareEdgeCases) {
  const DgkCompareContext ctx(dgk_.pk, dgk_.sk, 10);
  EXPECT_TRUE(compare(ctx, 7, 7, 1));
  EXPECT_TRUE(compare(ctx, -511, -512, 2));
  EXPECT_FALSE(compare(ctx, -512, 511, 3));
  EXPECT_THROW((void)compare(ctx, 512, 0, 4),
               std::out_of_range);
  EXPECT_THROW((void)compare(ctx, 0, -513, 5),
               std::out_of_range);
}

TEST_F(ThreadedTest, SecureSumMatchesPlainTotals) {
  const std::size_t users = 8, k = 5;
  DeterministicRng vals(7);
  std::vector<std::vector<std::int64_t>> to_s1(users), to_s2(users);
  std::vector<std::int64_t> expect_a(k, 0), expect_b(k, 0);
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::int64_t va =
          vals.uniform_in(BigInt(-100000), BigInt(100000)).to_int64();
      const std::int64_t vb =
          vals.uniform_in(BigInt(-100000), BigInt(100000)).to_int64();
      to_s1[u].push_back(va);
      to_s2[u].push_back(vb);
      expect_a[i] += va;
      expect_b[i] += vb;
    }
  }
  Network net;
  const SecureSumResult result = sum(net, paillier_, to_s1, to_s2, 99);
  EXPECT_EQ(decrypt_vector(paillier_.s2.sk, result.s1_aggregate), expect_a);
  EXPECT_EQ(decrypt_vector(paillier_.s1.sk, result.s2_aggregate), expect_b);
  EXPECT_GT(net.bytes_sent(), users * k * 12);
}

TEST_F(ThreadedTest, SecureSumReconstructsSharedVotes) {
  // Full flow: users split one-hot votes, threaded secure sum, and the two
  // aggregates recombine to the histogram.
  const std::size_t users = 12, k = 4;
  DeterministicRng vals(9);
  std::vector<std::vector<std::int64_t>> to_s1(users), to_s2(users);
  std::vector<std::int64_t> histogram(k, 0);
  for (std::size_t u = 0; u < users; ++u) {
    std::vector<std::int64_t> votes(k, 0);
    votes[vals.index_below(k)] = 1;
    for (std::size_t i = 0; i < k; ++i) histogram[i] += votes[i];
    const ShareVector sv = split_vector(votes, vals, 30);
    to_s1[u] = sv.a;
    to_s2[u] = sv.b;
  }
  Network net;
  const SecureSumResult result = sum(net, paillier_, to_s1, to_s2, 123);
  EXPECT_EQ(
      reconstruct_vector(decrypt_vector(paillier_.s2.sk, result.s1_aggregate),
                         decrypt_vector(paillier_.s1.sk, result.s2_aggregate)),
      histogram);
}

TEST_F(ThreadedTest, SecureSumValidation) {
  Network net;
  EXPECT_THROW((void)sum(net, paillier_, {}, {}, 1), std::invalid_argument);
  EXPECT_THROW((void)sum(net, paillier_, {{1, 2}}, {{1}}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pcl
