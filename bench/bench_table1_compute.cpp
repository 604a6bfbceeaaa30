// Reproduces paper Table I: average per-step running time of the private
// consensus protocol (Alg. 5).  The paper measured 1000 instances of 10
// classes on a Xeon E5-2650 v3 with 64-bit Paillier keys; we run a smaller
// batch (the per-step *ratios* are the result that matters: secure
// comparison (4)/(8) and threshold checking (5) dominate because DGK
// encrypts bit-by-bit).
#include <cstdio>
#include <iterator>

#include "bench_util.h"
#include "mpc/consensus.h"

using namespace pclbench;

int main(int argc, char** argv) {
  const BenchCli cli = parse_bench_cli(argc, argv);
  const std::size_t instances =
      std::strtoul(cli.positional_or(0, "4").c_str(), nullptr, 10);
  DeterministicRng rng(20200706);

  ConsensusConfig config;
  config.num_classes = 10;
  config.num_users = 20;
  config.threshold_fraction = 0.6;
  config.sigma1 = 2.0;
  config.sigma2 = 1.0;
  config.paillier_bits = 64;  // matches the paper's prototype
  config.share_bits = 40;
  config.compare_bits = 52;
  config.dgk_params.n_bits = 192;
  config.dgk_params.v_bits = 40;
  config.dgk_params.plaintext_bound = 256;
  // Reproduce the paper prototype's cost profile (see ConsensusConfig):
  // its Tables I/II price step (5) at K comparisons, not one.
  config.threshold_check_all_positions = true;

  std::printf("Table I reproduction: per-step computational cost\n");
  std::printf("(Alg. 5; %zu instances, %zu classes, %zu users, "
              "Paillier %zu-bit, DGK %zu-bit, ell=%zu)\n",
              instances, config.num_classes, config.num_users,
              config.paillier_bits, config.dgk_params.n_bits,
              config.compare_bits);

  ConsensusProtocol protocol(config, rng);
  BenchRecorder recorder("bench_table1_compute");
  recorder.set_param("instances", static_cast<double>(instances));
  recorder.set_param("classes", static_cast<double>(config.num_classes));
  recorder.set_param("users", static_cast<double>(config.num_users));
  recorder.set_param("paillier_bits",
                     static_cast<double>(config.paillier_bits));
  protocol.set_observer(&recorder.trace(), &recorder.metrics());

  // One-hot votes with a clear majority so every instance passes the
  // threshold and exercises all nine steps.
  std::vector<std::vector<double>> votes(config.num_users,
                                         std::vector<double>(10, 0.0));
  std::size_t answered = 0;
  for (std::size_t i = 0; i < instances; ++i) {
    for (std::size_t u = 0; u < config.num_users; ++u) {
      std::fill(votes[u].begin(), votes[u].end(), 0.0);
      const std::size_t label = u < 16 ? (i % 10) : rng.index_below(10);
      votes[u][label] = 1.0;
    }
    answered += protocol.run_query(votes, rng).label.has_value() ? 1 : 0;
  }

  // Table I reads S1's step spans (every party opens one per step; S1's is
  // the paper's server-side cost).  The first kRows steps are the table's
  // rows; the paper folds the two secure-sum steps into "Overall" only.
  const std::vector<pcl::obs::TraceEvent> events = recorder.trace().events();
  const char* steps[] = {"Blind-and-Permute (3)", "Secure Comparison (4)",
                         "Threshold Checking (5)", "Blind-and-Permute (7)",
                         "Secure Comparison (8)",  "Restoration (9)",
                         "Secure Sum (2)",         "Secure Sum (6)"};
  constexpr std::size_t kRows = 6;
  std::printf("\n%-26s %22s\n", "Step", "Avg Running Time (s)");
  double overall = 0.0;
  for (std::size_t i = 0; i < std::size(steps); ++i) {
    const double avg = pcl::obs::span_seconds(events, "S1", steps[i]) /
                       static_cast<double>(instances);
    if (avg <= 0.0) {
      std::fprintf(stderr,
                   "bench_table1_compute: S1 recorded no span for '%s'\n",
                   steps[i]);
      return 1;
    }
    overall += avg;
    if (i < kRows) std::printf("%-26s %22.4f\n", steps[i], avg);
  }
  std::printf("%-26s %22.4f\n", "Overall", overall);
  std::printf("\nanswered %zu/%zu queries; paper shape check: steps (4)(8) "
              "dominate, then (5); BnP and Restoration are cheap\n",
              answered, instances);

  const TrafficStats& stats = protocol.stats();
  std::uint64_t total_bytes = 0;
  for (const auto& e : stats.traffic_entries()) total_bytes += e.bytes;
  recorder.set_bytes(total_bytes);
  if (!cli.trace_path.empty()) {
    recorder.write_trace(cli.trace_path, stats.by_step());
  }
  if (!cli.json_path.empty()) recorder.write_json(cli.json_path);
  return 0;
}
