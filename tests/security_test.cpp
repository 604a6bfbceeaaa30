// Empirical checks of the hiding properties behind the paper's Theorem 4
// (security against semi-honest, non-colluding servers).  These are not
// proofs — the proof is simulation-based — but they verify the concrete
// mechanisms the simulator relies on: shares and masked views carry no
// usable signal about the votes, DGK blinding leaves only zero-ness, and
// the composed permutation hides positions from each single server.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "crypto/dgk.h"
#include "mpc/blind_permute.h"
#include "mpc/he_util.h"
#include "mpc/sharing.h"

namespace pcl {
namespace {

/// Mean/variance two-sample check: both samples drawn from the same
/// distribution should have overlapping standardized means.
void expect_same_distribution(const std::vector<double>& a,
                              const std::vector<double>& b,
                              double tolerance_sigmas = 6.0) {
  const auto stats = [](const std::vector<double>& v) {
    double mean = 0;
    for (const double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    double var = 0;
    for (const double x : v) var += (x - mean) * (x - mean);
    var /= static_cast<double>(v.size() - 1);
    return std::pair<double, double>(mean, var);
  };
  const auto [mean_a, var_a] = stats(a);
  const auto [mean_b, var_b] = stats(b);
  const double se = std::sqrt(var_a / static_cast<double>(a.size()) +
                              var_b / static_cast<double>(b.size()));
  EXPECT_LT(std::abs(mean_a - mean_b), tolerance_sigmas * se + 1e-9);
  // Variances within a factor of 1.5 (loose, catches gross leaks).
  EXPECT_LT(var_a / var_b, 1.5);
  EXPECT_LT(var_b / var_a, 1.5);
}

TEST(ShareHiding, S1ShareDistributionIndependentOfSecret) {
  // The a-share a user sends to S1 must look the same whether the user
  // voted 0 or 1 (fixed-point 65536): compare the share distributions.
  DeterministicRng rng(1);
  std::vector<double> share_zero, share_one;
  for (int i = 0; i < 20000; ++i) {
    share_zero.push_back(static_cast<double>(split_value(0, rng).a));
    share_one.push_back(static_cast<double>(split_value(65536, rng).a));
  }
  expect_same_distribution(share_zero, share_one);
}

TEST(ShareHiding, MaskedViewInBlindPermuteIndependentOfVotes) {
  // In Alg. 2 step 2, S2 decrypts a + r1 (mask drawn by S1).  The masked
  // view's distribution must not depend on the underlying aggregate a.
  DeterministicRng rng(2);
  ServerPaillierKeys keys = generate_server_paillier_keys(64, rng);
  const auto masked_view = [&](std::int64_t aggregate) {
    std::vector<double> views;
    for (int i = 0; i < 4000; ++i) {
      // r1 uniform in [-2^30, 2^30], as BlindPermuteS1 draws it at 30
      // mask bits.
      const std::int64_t r1 =
          rng.uniform_in(BigInt(-(1ll << 30)), BigInt(1ll << 30)).to_int64();
      views.push_back(static_cast<double>(aggregate + r1));
    }
    return views;
  };
  expect_same_distribution(masked_view(0), masked_view(130000));
}

TEST(DgkBlinding, NonZeroBlindedValuesAreUniformOnUnits) {
  // S1 multiplicatively blinds each DGK c_i by a uniform unit of Z_u*; for
  // c_i != 0 the decrypted blinded value must be uniform on [1, u) — i.e.
  // carry nothing about c_i beyond non-zero-ness.
  DeterministicRng rng(3);
  DgkParams params;
  params.n_bits = 160;
  params.v_bits = 30;
  params.plaintext_bound = 60;
  const DgkKeyPair key = generate_dgk_key(params, rng);
  const std::uint64_t u = key.pk.u_value();

  const auto blinded_histogram = [&](std::uint64_t plaintext) {
    std::map<std::uint64_t, int> hist;
    for (int i = 0; i < 3000; ++i) {
      const DgkCiphertext c = key.pk.encrypt(plaintext, rng);
      hist[key.sk.decrypt(key.pk.blind_multiplicative(c, rng))]++;
    }
    return hist;
  };
  for (const std::uint64_t plaintext : {1ull, 7ull, 42ull}) {
    const auto hist = blinded_histogram(plaintext);
    EXPECT_EQ(hist.count(0), 0u);  // never zero
    // Covers most of Z_u* with roughly uniform counts.
    EXPECT_GT(hist.size(), (u - 1) * 9 / 10);
    const double expected = 3000.0 / static_cast<double>(u - 1);
    for (const auto& [value, count] : hist) {
      EXPECT_LT(count, expected * 3.0) << "value " << value;
    }
  }
}

TEST(PermutationHiding, SingleServerViewOfPositionIsUniform) {
  // Each server knows only its own permutation; from S1's perspective the
  // final position of any element is pi2-distributed, i.e. uniform.  Check
  // that across sessions the composed position of element 0 is uniform.
  DeterministicRng rng(4);
  ServerPaillierKeys keys = generate_server_paillier_keys(64, rng);
  std::map<std::size_t, int> position_counts;
  const int sessions = 600;
  const std::size_t k = 6;
  for (int s = 0; s < sessions; ++s) {
    const BlindPermuteS1 s1(keys.s1, keys.s2.pk, k, 20, rng);
    const BlindPermuteS2 s2(keys.s2, keys.s1.pk, k, 20, rng);
    const Permutation pi = s1.pi().compose_after(s2.pi());
    // Element 0 lands at the position p with pi[p] == 0.
    for (std::size_t p = 0; p < k; ++p) {
      if (pi[p] == 0) {
        position_counts[p]++;
        break;
      }
    }
  }
  EXPECT_EQ(position_counts.size(), k);
  for (const auto& [pos, count] : position_counts) {
    EXPECT_GT(count, sessions / static_cast<int>(k) / 2);
    EXPECT_LT(count, sessions * 2 / static_cast<int>(k));
  }
}

TEST(CiphertextHiding, PaillierCiphertextsOfDistinctVotesIndistinguishable) {
  // Crude IND-CPA smoke test: the ciphertext's residue distribution (top
  // byte) must not separate encryptions of 0 from encryptions of 65536.
  DeterministicRng rng(5);
  const PaillierKeyPair key = generate_paillier_key(64, rng);
  std::vector<double> top_zero, top_one;
  for (int i = 0; i < 3000; ++i) {
    top_zero.push_back(static_cast<double>(
        key.pk.encrypt(BigInt(0), rng).value.to_bytes().front()));
    top_one.push_back(static_cast<double>(
        key.pk.encrypt(BigInt(65536), rng).value.to_bytes().front()));
  }
  expect_same_distribution(top_zero, top_one);
}

TEST(RestorationHiding, MaskedOneHotRevealsNothingToS1) {
  // In Alg. 3 step 6, S1 decrypts e_orig + r2 where r2 is S2's uniform
  // mask; the view must be the same whatever the index.  We emulate the
  // view directly from the mask distribution.
  DeterministicRng rng(6);
  std::vector<double> view_idx0, view_idx3;
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t r2 =
        rng.uniform_in(BigInt(-(1ll << 30)), BigInt(1ll << 30)).to_int64();
    view_idx0.push_back(static_cast<double>(1 + r2));  // one-hot at 0, coord 0
    view_idx3.push_back(static_cast<double>(0 + r2));  // one-hot at 3, coord 0
  }
  expect_same_distribution(view_idx0, view_idx3);
}

}  // namespace
}  // namespace pcl
