// Quickstart: run the full cryptographic Private Consensus Protocol
// (paper Alg. 5) on a single query.
//
// Five users vote on the label of one public instance.  The two
// non-colluding servers aggregate the secret-shared votes, check the noisy
// top vote against the 60% threshold in blind, and — because consensus is
// reached — reveal only the noisy-argmax label.  The per-step traffic and
// S1's per-step time (read from its step spans) are printed at the end.
//
//   ./quickstart
#include <cstdio>

#include "mpc/consensus.h"

int main() {
  pcl::DeterministicRng rng(7);

  pcl::ConsensusConfig config;
  config.num_classes = 4;
  config.num_users = 5;
  config.threshold_fraction = 0.6;  // need > 3 of 5 users to agree
  config.sigma1 = 0.8;              // SVT threshold noise (vote counts)
  config.sigma2 = 0.4;              // Report-Noisy-Max release noise
  config.share_bits = 30;
  config.compare_bits = 44;
  config.dgk_params.n_bits = 160;
  config.dgk_params.v_bits = 30;
  config.dgk_params.plaintext_bound = 160;

  std::printf("generating Paillier + DGK key material...\n");
  pcl::ConsensusProtocol protocol(config, rng);
  pcl::obs::TraceSink trace;  // every party's step spans
  protocol.set_observer(&trace, nullptr);

  // Votes: four users pick class 2, one dissents with class 0.
  const std::vector<std::vector<double>> votes = {
      {0, 0, 1, 0}, {0, 0, 1, 0}, {0, 0, 1, 0}, {0, 0, 1, 0}, {1, 0, 0, 0},
  };
  std::printf("running Alg. 5 on one query (4 of 5 users vote class 2)...\n");
  const auto result = protocol.run_query(votes, rng);
  if (result.label.has_value()) {
    std::printf("-> consensus reached; released label: %d\n", *result.label);
  } else {
    std::printf("-> no consensus (the noisy top vote fell below T)\n");
  }

  // A fully scattered vote (max 2 of 5 agree) should be rejected: the top
  // count of 2 sits 1.25 sigma below the threshold of 3.
  const std::vector<std::vector<double>> split = {
      {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 1, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 1},
  };
  std::printf("running Alg. 5 on a scattered vote (2/1/1/1)...\n");
  const auto rejected = protocol.run_query(split, rng);
  if (rejected.label.has_value()) {
    std::printf("-> label released: %d (threshold noise can admit "
                "borderline queries)\n", *rejected.label);
  } else {
    std::printf("-> rejected as expected (returned the paper's ⊥)\n");
  }

  std::printf("\nper-step cost of the two queries:\n");
  const pcl::TrafficStats& stats = protocol.stats();
  const std::vector<pcl::obs::TraceEvent> events = trace.events();
  for (const std::string& step : stats.steps()) {
    std::printf("  %-26s %8.1f KB %10.4f s\n", step.c_str(),
                static_cast<double>(stats.bytes_for(step)) / 1024.0,
                pcl::obs::span_seconds(events, "S1", step));
  }
  return 0;
}
