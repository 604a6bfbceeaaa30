// End-to-end tests of the Private Consensus Protocol (Alg. 5) against the
// plaintext Alg. 4 oracle under identical injected randomness.
#include "mpc/consensus.h"

#include <gtest/gtest.h>

#include "dp/mechanisms.h"
#include "obs/trace.h"

namespace pcl {
namespace {

ConsensusConfig small_config(std::size_t classes, std::size_t users) {
  ConsensusConfig cfg;
  cfg.num_classes = classes;
  cfg.num_users = users;
  cfg.threshold_fraction = 0.6;
  cfg.sigma1 = 1.0;
  cfg.sigma2 = 0.5;
  cfg.paillier_bits = 64;
  cfg.share_bits = 30;
  cfg.compare_bits = 44;
  cfg.dgk_params.n_bits = 160;
  cfg.dgk_params.v_bits = 30;
  cfg.dgk_params.plaintext_bound = 160;  // u > 3*44+4
  return cfg;
}

/// One-hot votes: user u votes for label picks[u].
std::vector<std::vector<double>> one_hot_votes(
    const std::vector<int>& picks, std::size_t classes) {
  std::vector<std::vector<double>> votes;
  for (const int p : picks) {
    std::vector<double> v(classes, 0.0);
    v[static_cast<std::size_t>(p)] = 1.0;
    votes.push_back(std::move(v));
  }
  return votes;
}

/// Vote histogram in count units, the oracle's input.
std::vector<double> histogram(const std::vector<std::vector<double>>& votes) {
  std::vector<double> h(votes.front().size(), 0.0);
  for (const auto& v : votes) {
    for (std::size_t i = 0; i < v.size(); ++i) h[i] += v[i];
  }
  return h;
}

class ConsensusProtocolTest : public ::testing::Test {
 protected:
  ConsensusProtocolTest() : rng_(555) {}
  DeterministicRng rng_;
};

TEST_F(ConsensusProtocolTest, MatchesPlaintextOracleAcrossVotePatterns) {
  const std::size_t classes = 4, users = 5;
  ConsensusProtocol protocol(small_config(classes, users), rng_);
  const double threshold = protocol.threshold_votes();  // 3.0

  const std::vector<std::vector<int>> patterns = {
      {0, 0, 0, 0, 0},  // unanimous
      {1, 1, 1, 0, 2},  // 3 votes: exactly at threshold
      {2, 2, 0, 1, 3},  // 2 votes: below threshold
      {3, 3, 3, 3, 1},  // 4 votes
      {0, 1, 2, 3, 0},  // scattered
  };
  const std::vector<double> thresh_noises = {0.0, 0.7, -0.7, 2.5, -2.5};
  DeterministicRng noise_rng(17);

  for (const auto& pattern : patterns) {
    const auto votes = one_hot_votes(pattern, classes);
    const auto hist = histogram(votes);
    for (const double tn : thresh_noises) {
      std::vector<double> release(classes);
      for (double& r : release) r = noise_rng.gaussian(0.0, 0.8);
      const AggregationOutcome oracle =
          aggregate_private_with_noise(hist, threshold, tn, release);
      const auto crypto =
          protocol.run_query_with_noise(votes, tn, release, rng_);
      EXPECT_EQ(crypto.label, oracle.label)
          << "pattern[0]=" << pattern[0] << " tn=" << tn;
    }
  }
}

TEST_F(ConsensusProtocolTest, ThresholdRejectionReturnsBottom) {
  const std::size_t classes = 3, users = 5;
  ConsensusProtocol protocol(small_config(classes, users), rng_);
  // 3 of 5 vote label 1 (threshold = 3).  Noise -0.5 pushes below.
  const auto votes = one_hot_votes({1, 1, 1, 0, 2}, classes);
  const std::vector<double> release(classes, 0.0);
  const auto rejected =
      protocol.run_query_with_noise(votes, -0.5, release, rng_);
  EXPECT_FALSE(rejected.label.has_value());
  const auto accepted =
      protocol.run_query_with_noise(votes, 0.5, release, rng_);
  ASSERT_TRUE(accepted.label.has_value());
  EXPECT_EQ(*accepted.label, 1);
}

TEST_F(ConsensusProtocolTest, ReleaseNoiseCanFlipTheArgmax) {
  const std::size_t classes = 3, users = 5;
  ConsensusProtocol protocol(small_config(classes, users), rng_);
  // Votes: label 0 gets 4, label 1 gets 1.
  const auto votes = one_hot_votes({0, 0, 0, 0, 1}, classes);
  // Release noise makes label 1's noisy count (1 + 4.5) beat label 0 (4).
  const std::vector<double> release = {0.0, 4.5, 0.0};
  const auto result = protocol.run_query_with_noise(votes, 1.0, release, rng_);
  ASSERT_TRUE(result.label.has_value());
  EXPECT_EQ(*result.label, 1);  // the *noisy* argmax, not the true one
}

TEST_F(ConsensusProtocolTest, SoftmaxVotesSupported) {
  const std::size_t classes = 3, users = 4;
  ConsensusConfig cfg = small_config(classes, users);
  cfg.threshold_fraction = 0.5;
  ConsensusProtocol protocol(cfg, rng_);
  const std::vector<std::vector<double>> votes = {
      {0.7, 0.2, 0.1},
      {0.6, 0.3, 0.1},
      {0.1, 0.8, 0.1},
      {0.5, 0.25, 0.25},
  };
  // Histogram: {1.9, 1.55, 0.55}; threshold = 2.0.  Noise +0.2 accepts.
  const std::vector<double> release(classes, 0.0);
  const auto result = protocol.run_query_with_noise(votes, 0.2, release, rng_);
  ASSERT_TRUE(result.label.has_value());
  EXPECT_EQ(*result.label, 0);
  const auto rejected =
      protocol.run_query_with_noise(votes, 0.05, release, rng_);
  EXPECT_FALSE(rejected.label.has_value());
}

TEST_F(ConsensusProtocolTest, DistributedNoiseDeliversTrueLabelUsually) {
  // With modest noise and a clear majority, the released label should be
  // the true winner in most runs (statistical smoke test of run_query).
  const std::size_t classes = 3, users = 5;
  ConsensusConfig cfg = small_config(classes, users);
  cfg.sigma1 = 0.8;
  cfg.sigma2 = 0.4;
  ConsensusProtocol protocol(cfg, rng_);
  const auto votes = one_hot_votes({2, 2, 2, 2, 0}, classes);
  int correct = 0, answered = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const auto result = protocol.run_query(votes, rng_);
    if (result.label.has_value()) {
      ++answered;
      correct += (*result.label == 2) ? 1 : 0;
    }
  }
  EXPECT_GE(answered, 8);
  EXPECT_GE(correct * 2, answered);  // > half of answered queries correct
}

TEST_F(ConsensusProtocolTest, StatsCoverAllPaperSteps) {
  const std::size_t classes = 3, users = 4;
  ConsensusProtocol protocol(small_config(classes, users), rng_);
  obs::TraceSink trace;
  protocol.set_observer(&trace, nullptr);
  const auto votes = one_hot_votes({1, 1, 1, 1}, classes);
  const std::vector<double> release(classes, 0.0);
  (void)protocol.run_query_with_noise(votes, 1.0, release, rng_);
  const TrafficStats& stats = protocol.stats();
  const std::vector<obs::TraceEvent> events = trace.events();
  for (const char* step :
       {"Secure Sum (2)", "Blind-and-Permute (3)", "Secure Comparison (4)",
        "Threshold Checking (5)", "Secure Sum (6)", "Blind-and-Permute (7)",
        "Secure Comparison (8)", "Restoration (9)"}) {
    EXPECT_GT(stats.bytes_for(step), 0u) << step;
    EXPECT_GT(obs::span_seconds(events, "S1", step), 0.0) << step;
  }
  // User-to-server traffic appears only in the secure-sum steps.
  EXPECT_GT(stats.bytes_for("Secure Sum (2)", "user"), 0u);
  EXPECT_EQ(stats.bytes_for("Secure Comparison (4)", "user"), 0u);
  // A rejected query must stop before step 6.
  protocol.stats().clear();
  (void)protocol.run_query_with_noise(one_hot_votes({0, 1, 2, 0}, classes),
                                      0.0, release, rng_);
  EXPECT_EQ(protocol.stats().bytes_for("Secure Sum (6)"), 0u);
  EXPECT_EQ(protocol.stats().bytes_for("Restoration (9)"), 0u);
}

TEST_F(ConsensusProtocolTest, ConfigValidation) {
  ConsensusConfig cfg = small_config(3, 4);
  cfg.num_classes = 1;
  EXPECT_THROW(ConsensusProtocol(cfg, rng_), std::invalid_argument);
  cfg = small_config(3, 4);
  cfg.num_users = 0;
  EXPECT_THROW(ConsensusProtocol(cfg, rng_), std::invalid_argument);
  cfg = small_config(3, 4);
  cfg.threshold_fraction = 1.5;
  EXPECT_THROW(ConsensusProtocol(cfg, rng_), std::invalid_argument);
  cfg = small_config(3, 4);
  cfg.sigma1 = 0.0;
  EXPECT_THROW(ConsensusProtocol(cfg, rng_), std::invalid_argument);
  cfg = small_config(3, 4);
  cfg.dgk_params.plaintext_bound = 32;  // u too small for compare_bits
  EXPECT_THROW(ConsensusProtocol(cfg, rng_), std::invalid_argument);
}

TEST_F(ConsensusProtocolTest, InputValidation) {
  ConsensusProtocol protocol(small_config(3, 4), rng_);
  const std::vector<double> release(3, 0.0);
  // Wrong user count.
  EXPECT_THROW((void)protocol.run_query_with_noise(
                   one_hot_votes({0, 1}, 3), 0.0, release, rng_),
               std::invalid_argument);
  // Wrong class count.
  EXPECT_THROW((void)protocol.run_query_with_noise(
                   one_hot_votes({0, 1, 1, 0}, 5), 0.0, release, rng_),
               std::invalid_argument);
  // Votes outside [0, 1].
  std::vector<std::vector<double>> bad = one_hot_votes({0, 1, 1, 0}, 3);
  bad[0][0] = 1.5;
  EXPECT_THROW((void)protocol.run_query_with_noise(bad, 0.0, release, rng_),
               std::invalid_argument);
  // Wrong release-noise length.
  EXPECT_THROW((void)protocol.run_query_with_noise(
                   one_hot_votes({0, 1, 1, 0}, 3), 0.0,
                   std::vector<double>(2, 0.0), rng_),
               std::invalid_argument);
}

TEST_F(ConsensusProtocolTest, ThresholdCostModelsAgreeOnDecisions) {
  // The paper-prototype cost model (threshold comparison at every permuted
  // position) must produce the same decisions as the single-comparison
  // Alg. 5 reading — the extra comparisons are discarded.
  const std::size_t classes = 4, users = 5;
  ConsensusConfig cfg = small_config(classes, users);
  ConsensusProtocol lean(cfg, rng_);
  cfg.threshold_check_all_positions = true;
  ConsensusProtocol paper_cost(cfg, rng_);
  const std::vector<double> release = {0.3, -0.2, 0.1, 0.0};
  for (const double tn : {-0.7, 0.0, 0.7}) {
    for (const auto& pattern : {std::vector<int>{1, 1, 1, 0, 2},
                                std::vector<int>{2, 3, 0, 1, 2}}) {
      const auto votes = one_hot_votes(pattern, classes);
      EXPECT_EQ(lean.run_query_with_noise(votes, tn, release, rng_).label,
                paper_cost.run_query_with_noise(votes, tn, release, rng_)
                    .label);
    }
  }
  // And the paper cost model moves more threshold-step bytes.
  EXPECT_GT(paper_cost.stats().bytes_for("Threshold Checking (5)"),
            2 * lean.stats().bytes_for("Threshold Checking (5)"));
}

TEST_F(ConsensusProtocolTest, BatchRunsIndependentQueries) {
  const std::size_t classes = 3, users = 4;
  ConsensusConfig cfg = small_config(classes, users);
  cfg.sigma1 = 0.5;
  cfg.sigma2 = 0.3;
  ConsensusProtocol protocol(cfg, rng_);
  std::vector<std::vector<std::vector<double>>> batch = {
      one_hot_votes({1, 1, 1, 1}, classes),
      one_hot_votes({0, 1, 2, 0}, classes),
      one_hot_votes({2, 2, 2, 0}, classes),
  };
  const auto results = protocol.run_batch(batch, rng_);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].label.has_value());
  EXPECT_EQ(*results[0].label, 1);  // unanimous, far above threshold+noise
  // The scattered middle query is very unlikely to pass (top=2 vs T=2.4
  // minus margin) — but we only assert the batch covers all steps.
  EXPECT_GT(protocol.stats().bytes_for("Secure Sum (2)"), 0u);
}

TEST_F(ConsensusProtocolTest, TwoClassesMinimum) {
  ConsensusConfig cfg = small_config(2, 3);
  ConsensusProtocol protocol(cfg, rng_);
  const auto votes = one_hot_votes({1, 1, 0}, 2);
  const std::vector<double> release(2, 0.0);
  const auto result = protocol.run_query_with_noise(votes, 1.0, release, rng_);
  ASSERT_TRUE(result.label.has_value());
  EXPECT_EQ(*result.label, 1);
}

TEST_F(ConsensusProtocolTest, TournamentArgmaxMatchesAllPairs) {
  const std::size_t classes = 5, users = 6;
  ConsensusConfig cfg = small_config(classes, users);
  ConsensusProtocol all_pairs(cfg, rng_);
  cfg.argmax_strategy = ArgmaxStrategy::kTournament;
  ConsensusProtocol tournament(cfg, rng_);
  DeterministicRng vote_rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<int> picks(users);
    for (auto& p : picks) {
      p = static_cast<int>(vote_rng.index_below(classes));
    }
    const auto votes = one_hot_votes(picks, classes);
    std::vector<double> release(classes);
    for (double& r : release) r = vote_rng.gaussian(0.0, 0.7);
    const double tn = vote_rng.gaussian(0.0, 1.0);
    EXPECT_EQ(all_pairs.run_query_with_noise(votes, tn, release, rng_).label,
              tournament.run_query_with_noise(votes, tn, release, rng_)
                  .label)
        << "trial " << trial;
  }
  // The tournament must move fewer comparison bytes.
  EXPECT_LT(tournament.stats().bytes_for("Secure Comparison (4)"),
            all_pairs.stats().bytes_for("Secure Comparison (4)") / 2);
}

// ---------------------------------------------------------------------------
// Parameterized sweep: crypto == oracle across (classes, users) shapes.
// ---------------------------------------------------------------------------

class ConsensusShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ConsensusShapeSweep, MatchesOracle) {
  const auto [classes, users] = GetParam();
  DeterministicRng rng(classes * 1000 + users);
  ConsensusProtocol protocol(small_config(classes, users), rng);
  const double threshold = protocol.threshold_votes();

  DeterministicRng vote_rng(users * 31 + classes);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<int> picks(users);
    for (auto& p : picks) {
      p = static_cast<int>(vote_rng.index_below(classes));
    }
    const auto votes = one_hot_votes(picks, classes);
    const auto hist = histogram(votes);
    const double tn = vote_rng.gaussian(0.0, 1.0);
    std::vector<double> release(classes);
    for (double& r : release) r = vote_rng.gaussian(0.0, 0.6);
    const AggregationOutcome oracle =
        aggregate_private_with_noise(hist, threshold, tn, release);
    const auto crypto =
        protocol.run_query_with_noise(votes, tn, release, rng);
    EXPECT_EQ(crypto.label, oracle.label)
        << "classes=" << classes << " users=" << users << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConsensusShapeSweep,
    ::testing::Values(std::make_tuple(2u, 3u), std::make_tuple(3u, 8u),
                      std::make_tuple(6u, 4u), std::make_tuple(8u, 6u),
                      std::make_tuple(10u, 5u)));

}  // namespace
}  // namespace pcl
