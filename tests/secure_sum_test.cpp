#include "mpc/secure_sum.h"

#include <gtest/gtest.h>

#include "mpc/he_util.h"
#include "mpc/sharing.h"

namespace pcl {
namespace {

class SecureSumTest : public ::testing::Test {
 protected:
  SecureSumTest() : rng_(31337) {
    keys_ = generate_server_paillier_keys(64, rng_);
  }
  DeterministicRng rng_;
  ServerPaillierKeys keys_;
};

TEST_F(SecureSumTest, AggregatesShareVectors) {
  const std::size_t users = 7, k = 5;
  std::vector<std::vector<std::int64_t>> to_s1(users), to_s2(users);
  std::vector<std::int64_t> expect_a(k, 0), expect_b(k, 0);
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::int64_t va = static_cast<std::int64_t>(u * 10 + i) - 20;
      const std::int64_t vb = static_cast<std::int64_t>(i) * 1000 -
                              static_cast<std::int64_t>(u);
      to_s1[u].push_back(va);
      to_s2[u].push_back(vb);
      expect_a[i] += va;
      expect_b[i] += vb;
    }
  }
  Network net;
  const SecureSumResult result = secure_sum(net, keys_, to_s1, to_s2, 1);
  EXPECT_EQ(decrypt_vector(keys_.s2.sk, result.s1_aggregate), expect_a);
  EXPECT_EQ(decrypt_vector(keys_.s1.sk, result.s2_aggregate), expect_b);
  EXPECT_EQ(net.pending_total(), 0u);
}

TEST_F(SecureSumTest, SharedVotesReconstructAcrossServers) {
  // Full Eq. 4 pipeline: users one-hot vote, split, secure-sum; the two
  // decrypted aggregates sum to the true vote histogram.
  const std::size_t users = 20, k = 4;
  DeterministicRng votes_rng(99);
  std::vector<std::vector<std::int64_t>> to_s1(users), to_s2(users);
  std::vector<std::int64_t> histogram(k, 0);
  for (std::size_t u = 0; u < users; ++u) {
    std::vector<std::int64_t> votes(k, 0);
    votes[votes_rng.index_below(k)] = 1;
    for (std::size_t i = 0; i < k; ++i) histogram[i] += votes[i];
    const ShareVector sv = split_vector(votes, rng_);
    to_s1[u] = sv.a;
    to_s2[u] = sv.b;
  }
  Network net;
  const SecureSumResult result = secure_sum(net, keys_, to_s1, to_s2, 1);
  const auto agg_a = decrypt_vector(keys_.s2.sk, result.s1_aggregate);
  const auto agg_b = decrypt_vector(keys_.s1.sk, result.s2_aggregate);
  EXPECT_EQ(reconstruct_vector(agg_a, agg_b), histogram);
}

TEST_F(SecureSumTest, SingleUser) {
  Network net;
  const SecureSumResult result =
      secure_sum(net, keys_, {{1, -2, 3}}, {{4, 5, -6}}, 1);
  EXPECT_EQ(decrypt_vector(keys_.s2.sk, result.s1_aggregate),
            (std::vector<std::int64_t>{1, -2, 3}));
  EXPECT_EQ(decrypt_vector(keys_.s1.sk, result.s2_aggregate),
            (std::vector<std::int64_t>{4, 5, -6}));
}

TEST_F(SecureSumTest, InputValidation) {
  Network net;
  EXPECT_THROW((void)secure_sum(net, keys_, {}, {}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)secure_sum(net, keys_, {{1}}, {{1}, {2}}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)secure_sum(net, keys_, {{1}, {2, 3}}, {{1}, {2}}, 1),
               std::invalid_argument);
}

TEST_F(SecureSumTest, TrafficCountsUserToServerMessages) {
  TrafficStats stats;
  Network net(&stats);
  net.set_step("Secure Sum (2)");
  const std::size_t users = 5;
  std::vector<std::vector<std::int64_t>> to_s1(users, {1, 2, 3});
  std::vector<std::vector<std::int64_t>> to_s2(users, {4, 5, 6});
  (void)secure_sum(net, keys_, to_s1, to_s2, 1);
  EXPECT_EQ(stats.messages_for("Secure Sum (2)", "user", "S1"), users);
  EXPECT_EQ(stats.messages_for("Secure Sum (2)", "user", "S2"), users);
  EXPECT_EQ(stats.messages_for("Secure Sum (2)", "S"), 0u);
  // Each message carries 3 Paillier ciphertexts (~16 bytes each at 64-bit
  // keys) plus framing.
  EXPECT_GT(stats.bytes_for("Secure Sum (2)", "user", "S1"), users * 3 * 12);
}

}  // namespace
}  // namespace pcl
