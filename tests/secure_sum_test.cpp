// Secure sum (paper Alg. 5 steps 2 and 6, Eq. 4) through the calls the lane
// programs make: each user encrypts its two share vectors with
// secure_sum_encrypt_stream, and each server reads the vectors off the wire
// and folds them with add_vectors.
#include <gtest/gtest.h>

#include <utility>

#include "mpc/blind_permute.h"
#include "mpc/he_util.h"
#include "mpc/sharing.h"
#include "net/party_runner.h"

namespace pcl {
namespace {

struct Aggregates {
  std::vector<PaillierCiphertext> s1;  ///< under pk2, held by S1
  std::vector<PaillierCiphertext> s2;  ///< under pk1, held by S2
};

/// One user's submission to one server, as the server reads it off the
/// wire: one ciphertext per value.
std::vector<PaillierCiphertext> submit(const PaillierPublicKey& pk,
                                       const std::vector<std::int64_t>& values,
                                       Rng& rng) {
  MessageWriter w;
  write_ciphertext_vector(
      w, secure_sum_encrypt_stream(pk, values, rng, nullptr, nullptr));
  MessageReader r(std::move(w).take());
  return read_ciphertext_vector(r, pk, values.size(), "secure sum");
}

/// User u encrypts `to_s1[u]` under S2's key and `to_s2[u]` under S1's key
/// from its own Rng, derive_party_seed(seed, 2 + u); each server folds the
/// users' vectors in index order.
Aggregates secure_sum(const ServerPaillierKeys& keys,
                      const std::vector<std::vector<std::int64_t>>& to_s1,
                      const std::vector<std::vector<std::int64_t>>& to_s2,
                      std::uint64_t seed) {
  Aggregates agg;
  for (std::size_t u = 0; u < to_s1.size(); ++u) {
    DeterministicRng rng(derive_party_seed(seed, 2 + u));
    std::vector<PaillierCiphertext> a = submit(keys.s2.pk, to_s1[u], rng);
    std::vector<PaillierCiphertext> b = submit(keys.s1.pk, to_s2[u], rng);
    agg.s1 = u == 0 ? std::move(a) : add_vectors(keys.s2.pk, agg.s1, a);
    agg.s2 = u == 0 ? std::move(b) : add_vectors(keys.s1.pk, agg.s2, b);
  }
  return agg;
}

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
  const Aggregates result = secure_sum(keys_, to_s1, to_s2, 1);
  EXPECT_EQ(decrypt_vector(keys_.s2.sk, result.s1), expect_a);
  EXPECT_EQ(decrypt_vector(keys_.s1.sk, result.s2), expect_b);
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
  const Aggregates result = secure_sum(keys_, to_s1, to_s2, 1);
  const auto agg_a = decrypt_vector(keys_.s2.sk, result.s1);
  const auto agg_b = decrypt_vector(keys_.s1.sk, result.s2);
  EXPECT_EQ(reconstruct_vector(agg_a, agg_b), histogram);
}

TEST_F(SecureSumTest, SingleUser) {
  const Aggregates result = secure_sum(keys_, {{1, -2, 3}}, {{4, 5, -6}}, 1);
  EXPECT_EQ(decrypt_vector(keys_.s2.sk, result.s1),
            (std::vector<std::int64_t>{1, -2, 3}));
  EXPECT_EQ(decrypt_vector(keys_.s1.sk, result.s2),
            (std::vector<std::int64_t>{4, 5, -6}));
}

}  // namespace
}  // namespace pcl
