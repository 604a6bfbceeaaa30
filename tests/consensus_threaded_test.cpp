// Full consensus queries on real threads: every party (S1, S2, |U| users)
// runs free on its own OS thread over the in-process Network, and the
// result AND the per-step traffic must be byte-identical to the
// deterministic schedule for the same seed.  This is the end-to-end
// cross-transport contract of the party-program architecture; under the
// tsan preset it also serves as the data-race check for the whole protocol
// stack.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mpc/consensus.h"
#include "obs/flight.h"
#include "obs/trace.h"

namespace pcl {
namespace {

ConsensusConfig small_config() {
  ConsensusConfig cfg;
  cfg.num_classes = 4;
  cfg.num_users = 5;
  cfg.threshold_fraction = 0.6;
  cfg.sigma1 = 1.0;
  cfg.sigma2 = 0.5;
  cfg.share_bits = 30;
  cfg.compare_bits = 44;
  cfg.dgk_params.n_bits = 160;
  cfg.dgk_params.v_bits = 30;
  cfg.dgk_params.plaintext_bound = 160;
  return cfg;
}

std::vector<std::vector<double>> one_hot_votes(const std::vector<int>& picks,
                                               std::size_t classes) {
  std::vector<std::vector<double>> votes;
  for (const int p : picks) {
    std::vector<double> v(classes, 0.0);
    v[static_cast<std::size_t>(p)] = 1.0;
    votes.push_back(std::move(v));
  }
  return votes;
}

TEST(ConsensusThreaded, FullQueryTrafficIdenticalAcrossTransports) {
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(small_config(), keygen);
  const auto votes = one_hot_votes({2, 2, 2, 2, 2}, 4);
  const std::uint64_t seed = 1234;

  const auto in_process = protocol.run_query_seeded(
      votes, seed, ConsensusTransport::kInProcess);
  const auto reference = protocol.stats().traffic_entries();
  ASSERT_FALSE(reference.empty());

  protocol.stats().clear();
  const auto threaded =
      protocol.run_query_seeded(votes, seed, ConsensusTransport::kThreaded);

  EXPECT_EQ(in_process.label, threaded.label);
  EXPECT_EQ(protocol.stats().traffic_entries(), reference);
}

TEST(ConsensusThreaded, ThreadedQueryReleasesCorrectLabel) {
  DeterministicRng keygen(11);
  ConsensusProtocol protocol(small_config(), keygen);
  // Zero injected noise: 5/5 votes for label 1 clears T = 0.6 * 5 = 3, so
  // the released label is exact.
  const std::vector<double> release(4, 0.0);
  const auto result = protocol.run_query_with_noise_seeded(
      one_hot_votes({1, 1, 1, 1, 1}, 4), 0.0, release, 99,
      ConsensusTransport::kThreaded);
  ASSERT_TRUE(result.label.has_value());
  EXPECT_EQ(*result.label, 1);

  // All paper steps left traffic behind, tagged with the unified labels.
  for (const char* step :
       {"Secure Sum (2)", "Blind-and-Permute (3)", "Secure Comparison (4)",
        "Threshold Checking (5)", "Secure Sum (6)", "Blind-and-Permute (7)",
        "Secure Comparison (8)", "Restoration (9)"}) {
    EXPECT_GT(protocol.stats().bytes_for(step), 0u) << step;
  }
}

TEST(ConsensusThreaded, RejectedQueryStopsEarlyOnBothTransports) {
  DeterministicRng keygen(13);
  ConsensusProtocol protocol(small_config(), keygen);
  // A large negative threshold-noise makes step 5 fail deterministically:
  // the query returns ⊥ and stops, on threads exactly as in-process.
  const std::vector<double> release(4, 0.0);
  const auto votes = one_hot_votes({0, 1, 2, 3, 0}, 4);
  const std::uint64_t seed = 555;

  const auto in_process = protocol.run_query_with_noise_seeded(
      votes, -100.0, release, seed, ConsensusTransport::kInProcess);
  const auto reference = protocol.stats().traffic_entries();
  EXPECT_FALSE(in_process.label.has_value());
  EXPECT_EQ(protocol.stats().bytes_for("Secure Sum (6)"), 0u);

  protocol.stats().clear();
  const auto threaded = protocol.run_query_with_noise_seeded(
      votes, -100.0, release, seed, ConsensusTransport::kThreaded);
  EXPECT_FALSE(threaded.label.has_value());
  EXPECT_EQ(protocol.stats().traffic_entries(), reference);
}

TEST(ConsensusThreaded, DifferentSeedsAgreeAcrossTransports) {
  DeterministicRng keygen(17);
  ConsensusProtocol protocol(small_config(), keygen);
  const auto votes = one_hot_votes({3, 3, 3, 3, 1}, 4);
  for (const std::uint64_t seed : {42ull, 43ull}) {
    protocol.stats().clear();
    const auto a = protocol.run_query_seeded(votes, seed,
                                             ConsensusTransport::kInProcess);
    const auto reference = protocol.stats().traffic_entries();
    protocol.stats().clear();
    const auto b = protocol.run_query_seeded(votes, seed,
                                             ConsensusTransport::kThreaded);
    EXPECT_EQ(a.label, b.label) << "seed " << seed;
    EXPECT_EQ(protocol.stats().traffic_entries(), reference)
        << "seed " << seed;
  }
}

TEST(ConsensusThreaded, TracingAndMetricsDoNotPerturbTraffic) {
  // The obs layer's core guarantee: attaching the tracer and the metrics
  // registry must leave the protocol's bytes untouched — same label, same
  // per-step traffic, for the same seed, on BOTH transports.  Under the
  // tsan preset the threaded leg doubles as the race check for concurrent
  // span recording and counter updates from all party threads.  Telemetry
  // v2 widens the pin: the flight recorder and the per-step latency
  // histograms run over the traced legs and must not perturb either.
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(small_config(), keygen);
  const auto votes = one_hot_votes({2, 2, 2, 2, 2}, 4);
  const std::uint64_t seed = 1234;

  // Untraced reference (same keygen seed as the traced protocol below).
  const auto untraced = protocol.run_query_seeded(
      votes, seed, ConsensusTransport::kInProcess);
  const auto reference = protocol.stats().traffic_entries();
  ASSERT_FALSE(reference.empty());

  obs::TraceSink sink;
  obs::MetricsRegistry metrics;
  protocol.set_observer(&sink, &metrics);
  obs::FlightRecorder::clear();
  obs::FlightRecorder::enable();
  for (const auto transport :
       {ConsensusTransport::kInProcess, ConsensusTransport::kThreaded}) {
    protocol.stats().clear();
    const auto traced = protocol.run_query_seeded(votes, seed, transport);
    EXPECT_EQ(traced.label, untraced.label);
    EXPECT_EQ(protocol.stats().traffic_entries(), reference)
        << "tracing perturbed the traffic";
  }

  // Every protocol step produced party-attributed spans...
  const std::vector<obs::TraceEvent> events = sink.events();
  for (const char* step :
       {"Secure Sum (2)", "Blind-and-Permute (3)", "Secure Comparison (4)",
        "Threshold Checking (5)", "Secure Sum (6)", "Blind-and-Permute (7)",
        "Secure Comparison (8)", "Restoration (9)"}) {
    bool s1 = false, s2 = false;
    for (const obs::TraceEvent& e : events) {
      if (e.name != step) continue;
      s1 = s1 || e.party == "S1";
      s2 = s2 || e.party == "S2";
    }
    EXPECT_TRUE(s1 && s2) << step << " missing a server span";
  }

  // ...and the metrics tell the paper's cost story: DGK bit encryptions in
  // the comparison steps, Paillier in the sums, all keyed by step tag.
  EXPECT_GT(metrics.counters_for("Secure Comparison (4)")
                .get(obs::Op::kDgkCompareBit),
            0u);
  EXPECT_GT(metrics.counters_for("Secure Sum (2)")
                .get(obs::Op::kPaillierEncrypt),
            0u);
  EXPECT_GT(metrics.counters_for("Restoration (9)")
                .get(obs::Op::kRestorationReveal),
            0u);
  EXPECT_GT(metrics.total(obs::Op::kBigIntModExp), 0u);

  // The same spans fed the latency histograms, tagged online by
  // ChannelStepScope...
  EXPECT_GT(metrics.latency_for("Secure Sum (2)", obs::Phase::kOnline)
                .count(),
            0u);
  const auto p99 = metrics.latency_for("Secure Sum (2)", obs::Phase::kOnline)
                       .snapshot()
                       .percentile(99.0);
  EXPECT_GT(p99, 0u);

  // ...and the flight-recorder rings hold the protocol tail.
  const std::vector<obs::TraceEvent> flight = obs::FlightRecorder::drain();
  obs::FlightRecorder::disable();
  obs::FlightRecorder::clear();
  bool flight_saw_protocol = false;
  for (const obs::TraceEvent& e : flight) {
    flight_saw_protocol =
        flight_saw_protocol || e.name == "Restoration (9)";
  }
  EXPECT_TRUE(flight_saw_protocol);
}

}  // namespace
}  // namespace pcl
