// Ablation: all-pairs vs tournament argmax in Alg. 5 steps (4)/(8).
//
// The paper's reading runs all K(K-1)/2 pairwise DGK comparisons — the
// dominant cost in Tables I and II.  A sequential-champion tournament needs
// only K-1 comparisons and provably returns the same position (comparisons
// reflect true counts, so they are consistent).  This bench measures the
// end-to-end saving; tests/consensus_test.cpp asserts output equality.
#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "mpc/consensus.h"

using namespace pclbench;

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv);
  BenchRecorder recorder("bench_ablation_argmax");
  const pcl::obs::ObserverScope obs_scope(&recorder.trace(),
                                          &recorder.metrics(), "bench");
  const std::size_t instances = 3;
  std::uint64_t total_bytes = 0;
  std::printf("Argmax strategy ablation (Alg. 5, 10 classes, 20 users)\n\n");
  std::printf("%-14s %14s %14s %14s %16s\n", "strategy", "step4 (s)",
              "step8 (s)", "overall (s)", "cmp bytes (KB)");

  for (const ArgmaxStrategy strategy :
       {ArgmaxStrategy::kAllPairs, ArgmaxStrategy::kTournament}) {
    DeterministicRng rng(606060);  // identical seed for both strategies
    ConsensusConfig config;
    config.num_classes = 10;
    config.num_users = 20;
    config.sigma1 = 2.0;
    config.sigma2 = 1.0;
    config.dgk_params.n_bits = 192;
    config.dgk_params.v_bits = 40;
    config.dgk_params.plaintext_bound = 256;
    config.argmax_strategy = strategy;

    ConsensusProtocol protocol(config, rng);
    // S1's step spans time steps (4) and (8); every party thread counts its
    // ops into the record.
    pcl::obs::TraceSink steps;
    protocol.set_observer(&steps, &recorder.metrics());
    std::vector<std::vector<double>> votes(config.num_users,
                                           std::vector<double>(10, 0.0));
    for (std::size_t i = 0; i < instances; ++i) {
      for (std::size_t u = 0; u < config.num_users; ++u) {
        std::fill(votes[u].begin(), votes[u].end(), 0.0);
        votes[u][u < 16 ? (i % 10) : rng.index_below(10)] = 1.0;
      }
      (void)protocol.run_query(votes, rng);
    }

    const TrafficStats& stats = protocol.stats();
    const std::vector<pcl::obs::TraceEvent> events = steps.events();
    const auto seconds = [&](const char* step) {
      return pcl::obs::span_seconds(events, "S1", step);
    };
    double overall = 0.0;
    for (const std::string& step : stats.steps()) {
      overall += seconds(step.c_str());
      total_bytes += stats.bytes_for(step);
    }
    const double n = static_cast<double>(instances);
    const double cmp_kb =
        static_cast<double>(stats.bytes_for("Secure Comparison (4)") +
                            stats.bytes_for("Secure Comparison (8)")) /
        1024.0 / n;
    std::printf("%-14s %14.4f %14.4f %14.4f %16.1f\n",
                strategy == ArgmaxStrategy::kAllPairs ? "all-pairs"
                                                      : "tournament",
                seconds("Secure Comparison (4)") / n,
                seconds("Secure Comparison (8)") / n, overall / n, cmp_kb);
  }

  std::printf("\nshape check: tournament cuts the comparison steps ~(K-1)/"
              "(K(K-1)/2) = 2/K of the all-pairs cost (K=10: 5x) with "
              "identical outputs\n");

  recorder.set_bytes(total_bytes);
  if (!cli.json_path.empty()) recorder.write_json(cli.json_path);
  return 0;
}
