// Lane-batched consensus (mpc/consensus_batch.h): Q concurrent queries ride
// one protocol execution whose message slots carry every live lane's payload
// in a single coalesced frame.  The contract under test:
//   - per-query released labels are IDENTICAL to Q sequential
//     run_query_seeded calls on the derived lane seeds, on every transport
//     (the lanes replay the exact sequential Rng streams);
//   - batched traffic is deterministic: the same base seed replays the same
//     per-step bytes;
//   - batching changes WHERE crypto ops are attributed ("lane:<q>" spans),
//     never HOW MANY run: per-query op totals match the sequential run
//     exactly, and the schedule-derived counts pin to closed-form values;
//   - a single query is the Q = 1 case: no lane envelope, no lane span;
//   - at Q > 1 each frame is the lanes' sequential sub-messages plus the
//     envelope (8-byte lane count, 8-byte length prefix per lane), even
//     after step-5 drop-out leaves one live lane.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <array>
#include <atomic>
#include <deque>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "mpc/consensus.h"
#include "mpc/lane_pool.h"
#include "net/party_runner.h"
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

/// Four instances chosen to exercise both verdict branches: unanimous
/// majorities that clear T = 3 and split votes that end in ⊥.
std::vector<std::vector<std::vector<double>>> mixed_batch() {
  return {
      one_hot_votes({2, 2, 2, 2, 2}, 4),
      one_hot_votes({0, 1, 2, 3, 0}, 4),
      one_hot_votes({1, 1, 1, 1, 1}, 4),
      one_hot_votes({3, 3, 3, 1, 1}, 4),
  };
}

std::vector<std::optional<int>> labels_of(
    const std::vector<ConsensusProtocol::QueryResult>& results) {
  std::vector<std::optional<int>> out;
  for (const auto& r : results) out.push_back(r.label);
  return out;
}

TEST(ConsensusBatch, BatchedMatchesSequentialOnEveryTransport) {
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(small_config(), keygen);
  const auto batch = mixed_batch();
  const std::uint64_t base_seed = 20200706;

  const auto sequential = labels_of(protocol.run_batch_seeded(
      batch, base_seed, ConsensusTransport::kInProcess,
      BatchMode::kSequential));
  ASSERT_EQ(sequential.size(), batch.size());
  // The fixture must exercise both verdict branches: consensus and ⊥.
  bool any_released = false, any_bot = false;
  for (const auto& label : sequential) {
    any_released = any_released || label.has_value();
    any_bot = any_bot || !label.has_value();
  }
  ASSERT_TRUE(any_released);
  ASSERT_TRUE(any_bot);

  for (const auto transport :
       {ConsensusTransport::kInProcess, ConsensusTransport::kThreaded,
        ConsensusTransport::kTcp}) {
    const auto batched = labels_of(protocol.run_batch_seeded(
        batch, base_seed, transport, BatchMode::kLaneBatched));
    EXPECT_EQ(batched, sequential)
        << "transport " << static_cast<int>(transport);
  }
}

TEST(ConsensusBatch, BatchedTrafficIsDeterministic) {
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(small_config(), keygen);
  const auto batch = mixed_batch();
  const std::uint64_t base_seed = 424242;

  const auto first = labels_of(protocol.run_batch_seeded(
      batch, base_seed, ConsensusTransport::kThreaded,
      BatchMode::kLaneBatched));
  const auto reference = protocol.stats().traffic_entries();
  ASSERT_FALSE(reference.empty());

  protocol.stats().clear();
  const auto second = labels_of(protocol.run_batch_seeded(
      batch, base_seed, ConsensusTransport::kThreaded,
      BatchMode::kLaneBatched));
  EXPECT_EQ(first, second);
  EXPECT_EQ(protocol.stats().traffic_entries(), reference);
}

TEST(ConsensusBatch, SingleLaneAndAllBottomBatches) {
  DeterministicRng keygen(11);
  ConsensusProtocol protocol(small_config(), keygen);

  // One lane: the degenerate batch must still agree with sequential.
  const std::vector<std::vector<std::vector<double>>> single = {
      one_hot_votes({1, 1, 1, 1, 1}, 4)};
  EXPECT_EQ(labels_of(protocol.run_batch_seeded(
                single, 99, ConsensusTransport::kInProcess,
                BatchMode::kLaneBatched)),
            labels_of(protocol.run_batch_seeded(
                single, 99, ConsensusTransport::kInProcess,
                BatchMode::kSequential)));

  // Every lane split below threshold: all parties take the early-⊥ exit
  // (no step 6-9 frames) and no transport hangs on undelivered messages.
  const std::vector<std::vector<std::vector<double>>> split = {
      one_hot_votes({0, 1, 2, 3, 0}, 4), one_hot_votes({3, 2, 1, 0, 1}, 4)};
  const auto sequential = labels_of(protocol.run_batch_seeded(
      split, 7, ConsensusTransport::kInProcess, BatchMode::kSequential));
  for (const auto transport :
       {ConsensusTransport::kInProcess, ConsensusTransport::kThreaded,
        ConsensusTransport::kTcp}) {
    EXPECT_EQ(labels_of(protocol.run_batch_seeded(split, 7, transport,
                                                  BatchMode::kLaneBatched)),
              sequential)
        << "transport " << static_cast<int>(transport);
  }
}

TEST(ConsensusBatch, TournamentArgmaxMatchesSequential) {
  // kTournament's comparison OPERANDS depend on earlier revealed bits, so
  // this exercises the data-dependent schedule path of the lane state.
  ConsensusConfig cfg = small_config();
  cfg.argmax_strategy = ArgmaxStrategy::kTournament;
  DeterministicRng keygen(13);
  ConsensusProtocol protocol(cfg, keygen);
  const auto batch = mixed_batch();
  const auto sequential = labels_of(protocol.run_batch_seeded(
      batch, 31337, ConsensusTransport::kInProcess, BatchMode::kSequential));
  EXPECT_EQ(labels_of(protocol.run_batch_seeded(
                batch, 31337, ConsensusTransport::kThreaded,
                BatchMode::kLaneBatched)),
            sequential);
}

TEST(ConsensusBatch, OpCountsMatchSequentialAndPinToSchedule) {
  // Batching must never change the amount of cryptography — only the
  // framing.  Totals are compared op-for-op against the sequential run of
  // the same queries, then the schedule-derived counts are pinned to their
  // closed-form values so an accidental extra encryption or comparison in
  // EITHER path fails loudly.
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(small_config(), keygen);
  const auto batch = mixed_batch();
  const std::uint64_t base_seed = 20200706;

  obs::MetricsRegistry seq_metrics;
  protocol.set_observer(nullptr, &seq_metrics);
  const auto sequential = labels_of(protocol.run_batch_seeded(
      batch, base_seed, ConsensusTransport::kInProcess,
      BatchMode::kSequential));

  obs::MetricsRegistry batch_metrics;
  protocol.set_observer(nullptr, &batch_metrics);
  const auto batched = labels_of(protocol.run_batch_seeded(
      batch, base_seed, ConsensusTransport::kInProcess,
      BatchMode::kLaneBatched));
  protocol.set_observer(nullptr, nullptr);
  ASSERT_EQ(batched, sequential);

  for (std::size_t op = 0; op < obs::kNumOps; ++op) {
    EXPECT_EQ(batch_metrics.total(static_cast<obs::Op>(op)),
              seq_metrics.total(static_cast<obs::Op>(op)))
        << "op " << obs::op_name(static_cast<obs::Op>(op));
  }

  // Schedule-derived pins for k = 4 classes, |U| = 5 users, ell = 44,
  // all-pairs argmax (6 pairs), single-position threshold check:
  //   per query:           6 (step 4) + 1 (step 5)            =  7
  //   per SURVIVING query: + 6 (step 8)                       = 13
  std::size_t survivors = 0;
  for (const auto& label : batched) survivors += label.has_value() ? 1 : 0;
  const std::size_t q_total = batch.size();
  const std::size_t comparisons = 7 * q_total + 6 * survivors;
  EXPECT_EQ(batch_metrics.total(obs::Op::kDgkCompare), comparisons);
  EXPECT_EQ(batch_metrics.total(obs::Op::kDgkCompareBit), 44 * comparisons);
  // 2 secure-sum submissions per user per query + 1 per surviving query.
  EXPECT_EQ(batch_metrics.total(obs::Op::kSecureSumSubmit),
            5 * (2 * q_total + survivors));
  // Each server collects twice per query, once more per surviving query.
  EXPECT_EQ(batch_metrics.total(obs::Op::kSecureSumCollect),
            2 * (2 * q_total + survivors));
  // One release per surviving query.
  EXPECT_EQ(batch_metrics.total(obs::Op::kNoisyMaxRelease), survivors);

  // Per-lane attribution: every lane's comparison count lands in its own
  // "lane:<q>" slot (S1's blind step owns the kDgkCompare count).
  for (std::size_t q = 0; q < q_total; ++q) {
    const std::string slot = "lane:" + std::to_string(q);
    EXPECT_EQ(batch_metrics.counters_for(slot).get(obs::Op::kDgkCompare),
              batched[q].has_value() ? 13u : 7u)
        << slot;
  }
}

TEST(ConsensusBatch, OneLaneBatchIsTheSingleQuery) {
  // Q = 1 frames carry no envelope and open no "lane:<q>" span, so a
  // one-lane batch has exactly the single query's traffic rows and
  // per-(step, op) counts — for a released query and for a ⊥.
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(small_config(), keygen);
  const std::uint64_t base_seed = 4242;
  const auto batch = mixed_batch();
  for (const std::size_t pick : {std::size_t{0}, std::size_t{1}}) {
    const std::vector<std::vector<double>>& votes = batch[pick];
    obs::MetricsRegistry batch_metrics, query_metrics;
    protocol.stats().clear();
    protocol.set_observer(nullptr, &batch_metrics);
    const auto batched = labels_of(protocol.run_batch_seeded(
        {votes}, base_seed, ConsensusTransport::kInProcess,
        BatchMode::kLaneBatched));
    const auto batch_traffic = protocol.stats().traffic_entries();

    protocol.stats().clear();
    protocol.set_observer(nullptr, &query_metrics);
    const auto single =
        protocol.run_query_seeded(votes, derive_party_seed(base_seed, 0));
    protocol.set_observer(nullptr, nullptr);

    ASSERT_EQ(batched.size(), 1u);
    EXPECT_EQ(batched.front(), single.label) << "query " << pick;
    EXPECT_EQ(batched.front().has_value(), pick == 0) << "query " << pick;
    EXPECT_EQ(batch_traffic, protocol.stats().traffic_entries())
        << "query " << pick;
    EXPECT_EQ(batch_metrics.entries(), query_metrics.entries())
        << "query " << pick;
    for (const obs::MetricsRegistry::Entry& e : batch_metrics.entries()) {
      EXPECT_NE(e.step.rfind("lane:", 0), 0u) << e.step;
    }
  }
}

/// Per-step {bytes, messages} of everything the protocol has sent so far.
std::map<std::string, TrafficStats::LinkTotals> per_step(
    const TrafficStats& stats) {
  std::map<std::string, TrafficStats::LinkTotals> out;
  for (const TrafficStats::Entry& e : stats.traffic_entries()) {
    out[e.step].bytes += e.bytes;
    out[e.step].messages += e.messages;
  }
  return out;
}

TEST(ConsensusBatch, EnvelopeSurvivesDropOutToOneLane) {
  // Q = 2, lane 1 ends in ⊥ at step 5.  Steps 2-5 frames carry both lanes'
  // sequential sub-messages plus 8 + 2 * 8 envelope bytes; steps 6-9 frames
  // carry lane 0 alone and still 8 + 8 envelope bytes.
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(small_config(), keygen);
  const std::uint64_t base_seed = 20200706;
  const auto all = mixed_batch();
  const std::vector<std::vector<std::vector<double>>> batch = {all[0],
                                                               all[1]};

  protocol.stats().clear();
  const auto labels = labels_of(protocol.run_batch_seeded(
      batch, base_seed, ConsensusTransport::kInProcess,
      BatchMode::kLaneBatched));
  ASSERT_TRUE(labels[0].has_value());
  ASSERT_FALSE(labels[1].has_value());
  auto batched = per_step(protocol.stats());

  std::vector<std::map<std::string, TrafficStats::LinkTotals>> lanes;
  for (std::size_t q = 0; q < batch.size(); ++q) {
    protocol.stats().clear();
    (void)protocol.run_query_seeded(batch[q],
                                    derive_party_seed(base_seed, q));
    lanes.push_back(per_step(protocol.stats()));
  }

  const std::vector<std::string> both = {
      "Secure Sum (2)", "Blind-and-Permute (3)", "Secure Comparison (4)",
      "Threshold Checking (5)"};
  const std::vector<std::string> survivor = {
      "Secure Sum (6)", "Blind-and-Permute (7)", "Secure Comparison (8)",
      "Restoration (9)"};
  EXPECT_EQ(batched.size(), both.size() + survivor.size());
  for (const std::string& step : both) {
    const std::size_t messages = batched[step].messages;
    ASSERT_GT(messages, 0u) << step;
    EXPECT_EQ(messages, lanes[0][step].messages) << step;
    EXPECT_EQ(messages, lanes[1][step].messages) << step;
    EXPECT_EQ(batched[step].bytes, lanes[0][step].bytes +
                                       lanes[1][step].bytes +
                                       (8 + 2 * 8) * messages)
        << step;
  }
  for (const std::string& step : survivor) {
    const std::size_t messages = batched[step].messages;
    ASSERT_GT(messages, 0u) << step;
    EXPECT_EQ(messages, lanes[0][step].messages) << step;
    EXPECT_EQ(lanes[1].count(step), 0u) << step;
    EXPECT_EQ(batched[step].bytes, lanes[0][step].bytes + (8 + 8) * messages)
        << step;
  }
}

TEST(LanePool, RunsEveryLaneExactlyOnce) {
  LanePool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::vector<std::atomic<int>> hits(64);
  pool.run(hits.size(), [&](std::size_t lane) { ++hits[lane]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // Zero workers: every lane runs on the submitting thread.
  LanePool inline_pool(0);
  int sum = 0;
  inline_pool.run(5, [&](std::size_t lane) {
    sum += static_cast<int>(lane);
  });
  EXPECT_EQ(sum, 10);
}

TEST(LanePool, FirstLaneExceptionIsRethrownToTheSubmitter) {
  LanePool pool(2);
  EXPECT_THROW(pool.run(16,
                        [&](std::size_t lane) {
                          if (lane == 3) {
                            throw std::runtime_error("lane 3 failed");
                          }
                        }),
               std::runtime_error);
  // The pool stays usable after a failed job.
  std::atomic<int> ran{0};
  pool.run(8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(LanePool, WorkersInheritTheSubmittersObserverBinding) {
  // The batched programs count crypto ops from pool workers; those counts
  // must land in the submitting party's registry under the span active
  // inside the lane, exactly as in the serial path.
  obs::MetricsRegistry metrics;
  const obs::ObserverScope scope(nullptr, &metrics, "S1");
  LanePool pool(2);
  pool.run(6, [&](std::size_t lane) {
    const obs::Span span(lane % 2 == 0 ? "lane:even" : "lane:odd");
    obs::count(obs::Op::kDgkCompare);
  });
  EXPECT_EQ(metrics.counters_for("lane:even").get(obs::Op::kDgkCompare), 3u);
  EXPECT_EQ(metrics.counters_for("lane:odd").get(obs::Op::kDgkCompare), 3u);
}

TEST(LanePool, NestedRunRunsInline) {
  // A lane that issues a run() of its own — a Q > 1 batch lane reaching
  // the decryption fan-out — must not wait for the job slot its own job
  // holds.  One worker and two lanes that meet at a latch: one outer lane
  // runs on the worker, the other on the submitter, and each runs its
  // inner lanes inline on its own thread.
  LanePool pool(1);
  constexpr std::size_t kInner = 5;
  std::latch both_started(2);
  std::array<std::thread::id, 2> outer_thread{};
  std::array<std::array<std::atomic<int>, kInner>, 2> ran{};
  std::array<std::atomic<bool>, 2> inline_only{};
  pool.run(2, [&](std::size_t outer) {
    both_started.arrive_and_wait();
    outer_thread[outer] = std::this_thread::get_id();
    inline_only[outer] = true;
    pool.run(kInner, [&](std::size_t inner) {
      ++ran[outer][inner];
      if (std::this_thread::get_id() != outer_thread[outer]) {
        inline_only[outer] = false;
      }
    });
  });
  EXPECT_NE(outer_thread[0], outer_thread[1]);
  EXPECT_TRUE(outer_thread[0] == std::this_thread::get_id() ||
              outer_thread[1] == std::this_thread::get_id());
  for (std::size_t outer = 0; outer < 2; ++outer) {
    EXPECT_TRUE(inline_only[outer]) << outer;
    for (std::size_t inner = 0; inner < kInner; ++inner) {
      EXPECT_EQ(ran[outer][inner].load(), 1) << outer << "/" << inner;
    }
  }
  // The pool is free again afterwards.
  std::atomic<int> after{0};
  pool.run(4, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 4);
}

/// Per party (S1, S2, user:0, ...): the released label and every non-bigint
/// (step, op) count of one seeded query, each party run through
/// run_party_seeded under its own registry.
struct PartyOps {
  std::vector<std::optional<int>> labels;
  std::vector<std::map<std::pair<std::string, std::string>, std::uint64_t>>
      ops;
};

PartyOps run_observed(const ConsensusProtocol& protocol,
                      const std::vector<std::vector<double>>& votes,
                      std::uint64_t seed) {
  std::vector<std::string> names = {"S1", "S2"};
  for (std::size_t u = 0; u < protocol.config().num_users; ++u) {
    names.push_back("user:" + std::to_string(u));
  }
  std::deque<obs::MetricsRegistry> registries(names.size());
  PartyOps out;
  out.labels.resize(names.size());
  std::vector<Party> parties;
  for (std::size_t i = 0; i < names.size(); ++i) {
    parties.push_back({names[i], [&, i](Channel& chan) {
                         const obs::ObserverScope scope(
                             nullptr, &registries[i], names[i]);
                         out.labels[i] = protocol.run_party_seeded(
                             names[i], votes, seed, chan);
                       }});
  }
  (void)run_parties(parties, PartyRunOptions{});
  for (const obs::MetricsRegistry& registry : registries) {
    auto& ops = out.ops.emplace_back();
    for (const obs::MetricsRegistry::Entry& e : registry.entries()) {
      const std::string op = obs::op_name(e.op);
      if (op.rfind("bigint.", 0) != 0) ops[{e.step, op}] = e.count;
    }
  }
  return out;
}

TEST(ConsensusFanOut, DeploymentWidthQueryMatchesPaperWidth) {
  // 1024 bits is the narrowest width at which decryptions and zero-tests
  // fan out over the shared LanePool.  The one-lane query there releases
  // the paper-width query's label, and every party counts the same
  // non-bigint ops under the same steps: ops counted on pool workers land
  // in the submitting party's registry.
  ConsensusConfig paper = small_config();
  paper.num_users = 3;
  paper.argmax_strategy = ArgmaxStrategy::kTournament;
  ConsensusConfig wide = paper;
  wide.paillier_bits = kElementFanOutMinBits;
  // DGK key generation fixes the bit lengths of p and q, not of n (a
  // 1024-bit request can give a 1023-bit n); two more bits keep n at or
  // above the threshold.
  wide.dgk_params.n_bits = kElementFanOutMinBits + 2;
  wide.dgk_params.v_bits = 160;
  DeterministicRng paper_keygen(7), wide_keygen(7);
  const ConsensusProtocol paper_protocol(paper, paper_keygen);
  const ConsensusProtocol wide_protocol(wide, wide_keygen);
  const auto votes = one_hot_votes({2, 2, 2}, 4);
  const PartyOps expect = run_observed(paper_protocol, votes, 20200706);
  const PartyOps got = run_observed(wide_protocol, votes, 20200706);
  EXPECT_EQ(expect.labels[0], std::optional<int>(2));
  EXPECT_EQ(got.labels, expect.labels);
  ASSERT_EQ(got.ops.size(), expect.ops.size());
  for (std::size_t i = 0; i < expect.ops.size(); ++i) {
    EXPECT_FALSE(expect.ops[i].empty()) << "party " << i;
    EXPECT_EQ(got.ops[i], expect.ops[i]) << "party " << i;
  }
}

TEST(ConsensusFanOut, DeploymentWidthTrafficIsIdenticalOnEveryTransport) {
  // At 1024 bits each comparison draws first and fans its exponentiations
  // out over the shared LanePool, on S2's bits and S1's blinded sequence
  // alike.  The in-process, threaded and TCP runs of one seed must still
  // send the same bytes in every step.
  ConsensusConfig wide = small_config();
  wide.num_users = 3;
  wide.argmax_strategy = ArgmaxStrategy::kTournament;
  wide.paillier_bits = kElementFanOutMinBits;
  wide.dgk_params.n_bits = kElementFanOutMinBits + 2;
  wide.dgk_params.v_bits = 160;
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(wide, keygen);
  const auto votes = one_hot_votes({2, 2, 2}, 4);
  const std::uint64_t seed = 20200706;
  const auto in_process =
      protocol.run_query_seeded(votes, seed, ConsensusTransport::kInProcess);
  EXPECT_EQ(in_process.label, std::optional<int>(2));
  const auto reference = protocol.stats().traffic_entries();
  ASSERT_FALSE(reference.empty());
  for (const auto transport :
       {ConsensusTransport::kThreaded, ConsensusTransport::kTcp}) {
    protocol.stats().clear();
    EXPECT_EQ(protocol.run_query_seeded(votes, seed, transport).label,
              in_process.label)
        << "transport " << static_cast<int>(transport);
    EXPECT_EQ(protocol.stats().traffic_entries(), reference)
        << "transport " << static_cast<int>(transport);
  }
}

}  // namespace
}  // namespace pcl
