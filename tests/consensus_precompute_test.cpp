// Offline/online split at the protocol level (DESIGN.md §15): pooled and
// packed modes against the gates that keep them honest —
//   - pool warmth never changes results or traffic: a cold run (every draw
//     a pool miss) and a warm run (streams filled offline with the measured
//     demand, every draw a hit) of the same seed release the same labels
//     with identical per-step traffic;
//   - pooled batch == pooled sequential (lane q registers the same streams
//     a sequential pooled run of its lane seed would);
//   - packed secure-sum releases the same labels as the unpacked lane and
//     cuts the per-user submission by the packing factor.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/precompute_service.h"
#include "mpc/consensus.h"
#include "mpc/he_util.h"
#include "net/party_runner.h"
#include "obs/metrics.h"

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

std::vector<std::string> party_names(const ConsensusProtocol& protocol) {
  std::vector<std::string> parties = {"S1", "S2"};
  for (std::size_t u = 0; u < protocol.config().num_users; ++u) {
    parties.push_back("user:" + std::to_string(u));
  }
  return parties;
}

/// Warms every party's streams for the given query seeds, exactly as the
/// serving daemon does before it accepts sessions: measure one query's
/// draws per stream, then fill each seed's streams with exactly that many.
/// Returns the number of powers generated.
std::uint64_t warm_streams(const ConsensusProtocol& protocol,
                           const std::vector<std::uint64_t>& seeds) {
  const std::map<std::string, PrecomputeDemand> demand =
      protocol.precompute_demand();
  std::uint64_t generated = 0;
  for (const std::uint64_t seed : seeds) {
    for (const std::string& party : party_names(protocol)) {
      generated += protocol.warm_precompute(party, seed, demand.at(party));
    }
  }
  return generated;
}

TEST(ConsensusPrecompute, WarmAndColdPooledRunsAreIdentical) {
  // Two protocols over the same keygen seed, both pooled; one gets its
  // streams filled offline with the measured demand, the other runs
  // entirely on pool misses.  Labels AND per-step traffic must match —
  // warmth only moves work.  The first query ends in ⊥ (its noise sinks
  // the top count below T), the second releases a label.
  PrecomputeService cold_svc, warm_svc;
  const std::uint64_t bot_seed = 20200706, released_seed = 20200707;
  const auto split_votes = one_hot_votes({2, 2, 2, 1, 2}, 4);
  const auto unanimous_votes = one_hot_votes({2, 2, 2, 2, 2}, 4);

  ConsensusConfig cfg = small_config();
  cfg.precompute = &cold_svc;
  DeterministicRng keygen_a(7);
  ConsensusProtocol cold(cfg, keygen_a);

  cfg.precompute = &warm_svc;
  DeterministicRng keygen_b(7);
  ConsensusProtocol warm(cfg, keygen_b);
  const std::uint64_t demand = warm_streams(warm, {bot_seed, released_seed});
  EXPECT_GT(demand, 0u);
  EXPECT_EQ(warm_svc.totals().generated, demand);

  obs::MetricsRegistry cold_metrics, warm_metrics;
  cold.set_observer(nullptr, &cold_metrics);
  warm.set_observer(nullptr, &warm_metrics);
  for (const auto& [votes, seed] :
       {std::pair{split_votes, bot_seed},
        std::pair{unanimous_votes, released_seed}}) {
    const auto cold_label = cold.run_query_seeded(votes, seed).label;
    const auto warm_label = warm.run_query_seeded(votes, seed).label;
    EXPECT_EQ(cold_label, warm_label);
    EXPECT_EQ(warm_label.has_value(), seed == released_seed);
  }

  // The warm-up covered the demand: the warm runs drew every power ready,
  // and the released query left none over on any of its streams.  The ⊥
  // query drew a prefix of its own, and its programs released the rest
  // when their runs ended.  The cold runs computed the same draws inline,
  // one miss each.
  const PrecomputeStats warm_totals = warm_svc.totals();
  EXPECT_EQ(warm_metrics.total(obs::Op::kPoolMiss), 0u);
  EXPECT_EQ(cold_metrics.total(obs::Op::kPoolMiss), warm_totals.hits);
  for (const std::string& party : party_names(warm)) {
    const PartyPrecompute pre = warm.party_precompute(party, released_seed);
    EXPECT_EQ(pre.powers_pk1->stats().ready, 0u) << party;
    EXPECT_EQ(pre.powers_pk2->stats().ready, 0u) << party;
    if (pre.dgk_powers != nullptr) {
      EXPECT_EQ(pre.dgk_powers->stats().ready, 0u) << party;
    }
  }
  // totals() sums every stream's counters.
  EXPECT_EQ(warm_totals.generated, demand);
  EXPECT_EQ(warm_totals.hits + warm_totals.ready + warm_totals.released,
            demand);
  EXPECT_GT(warm_totals.released, 0u);
  EXPECT_EQ(warm_totals.ready, 0u);
  EXPECT_EQ(warm_totals.misses, 0u);
  const PrecomputeStats cold_totals = cold_svc.totals();
  EXPECT_EQ(cold_totals.generated, 0u);
  EXPECT_EQ(cold_totals.hits, 0u);
  EXPECT_EQ(cold_totals.misses, warm_totals.hits);

  // Same PROTOCOL-op totals: pooling moves work, never changes it.  The
  // bigint kernel counters (modexp/modmul)
  // legitimately differ — the warm run did those exponentiations offline
  // inside warm_streams, before the observer window — which is the whole
  // point of the split.
  for (std::size_t op = 0; op < obs::kNumOps; ++op) {
    switch (static_cast<obs::Op>(op)) {
      case obs::Op::kPoolMiss:
      case obs::Op::kBigIntModExp:
      case obs::Op::kBigIntModMul:
        continue;
      default:
        break;
    }
    EXPECT_EQ(warm_metrics.total(static_cast<obs::Op>(op)),
              cold_metrics.total(static_cast<obs::Op>(op)))
        << "op " << obs::op_name(static_cast<obs::Op>(op));
  }

  // Identical per-step traffic (message counts and sizes).
  const auto cold_traffic = cold.stats().traffic_entries();
  const auto warm_traffic = warm.stats().traffic_entries();
  ASSERT_FALSE(cold_traffic.empty());
  EXPECT_EQ(cold_traffic, warm_traffic);
}

TEST(ConsensusPrecompute, PooledBatchMatchesPooledSequential) {
  PrecomputeService svc;
  ConsensusConfig cfg = small_config();
  cfg.precompute = &svc;
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(cfg, keygen);
  const auto batch = mixed_batch();
  const std::uint64_t base_seed = 424242;

  const auto sequential = labels_of(protocol.run_batch_seeded(
      batch, base_seed, ConsensusTransport::kInProcess,
      BatchMode::kSequential));
  for (const auto transport :
       {ConsensusTransport::kInProcess, ConsensusTransport::kThreaded}) {
    EXPECT_EQ(labels_of(protocol.run_batch_seeded(batch, base_seed, transport,
                                                  BatchMode::kLaneBatched)),
              sequential)
        << "transport " << static_cast<int>(transport);
  }
}

TEST(ConsensusPrecompute, PackedQueryMatchesUnpackedLabels) {
  // Packing changes the wire format of steps 2/3/6/7, not the decision:
  // same keys, same seeds, same labels.
  DeterministicRng keygen_a(7), keygen_b(7);
  ConsensusConfig cfg = small_config();
  ConsensusProtocol unpacked(cfg, keygen_a);
  cfg.pack_secure_sum = true;
  ConsensusProtocol packed(cfg, keygen_b);

  for (const std::uint64_t seed : {1ull, 77ull, 20200706ull}) {
    for (const auto& votes : mixed_batch()) {
      EXPECT_EQ(packed.run_query_seeded(votes, seed).label,
                unpacked.run_query_seeded(votes, seed).label)
          << "seed " << seed;
    }
  }
}

TEST(ConsensusPrecompute, PackedBatchMatchesPackedSequential) {
  ConsensusConfig cfg = small_config();
  cfg.pack_secure_sum = true;
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(cfg, keygen);
  const auto batch = mixed_batch();

  const auto sequential = labels_of(protocol.run_batch_seeded(
      batch, 31337, ConsensusTransport::kInProcess, BatchMode::kSequential));
  EXPECT_EQ(labels_of(protocol.run_batch_seeded(
                batch, 31337, ConsensusTransport::kThreaded,
                BatchMode::kLaneBatched)),
            sequential);
}

TEST(ConsensusPrecompute, PackedAndPooledComposeInBatchMode) {
  // The full offline/online configuration the bench commits: packing plus
  // a warm precompute service, batch mode, against the plain sequential
  // labels of the same lane seeds.
  DeterministicRng keygen_a(7), keygen_b(7);
  ConsensusConfig cfg = small_config();
  ConsensusProtocol plain(cfg, keygen_a);

  PrecomputeService svc;
  cfg.pack_secure_sum = true;
  cfg.precompute = &svc;
  ConsensusProtocol split(cfg, keygen_b);

  const auto batch = mixed_batch();
  const std::uint64_t base_seed = 99;
  std::vector<std::uint64_t> lane_seeds;
  for (std::size_t q = 0; q < batch.size(); ++q) {
    lane_seeds.push_back(derive_party_seed(base_seed, q));
  }
  (void)warm_streams(split, lane_seeds);

  EXPECT_EQ(labels_of(split.run_batch_seeded(batch, base_seed,
                                             ConsensusTransport::kThreaded,
                                             BatchMode::kLaneBatched)),
            labels_of(plain.run_batch_seeded(batch, base_seed,
                                             ConsensusTransport::kInProcess,
                                             BatchMode::kSequential)));
  EXPECT_GT(svc.totals().hits, 0u);
}

TEST(ConsensusPrecompute, PackedSecureSumCutsSubmissionCiphertexts) {
  // At a 128-bit modulus with bench-shaped values (value_bits 21, 6
  // addends), 5 labels ride in ONE ciphertext instead of five: the
  // per-user submission to each server drops 5-fold.
  DeterministicRng rng(31337);
  const ServerPaillierKeys keys = generate_server_paillier_keys(128, rng);
  const std::size_t users = 5, k = 5;
  const PackingLayout layout = make_packing_layout(k, 21, users + 1, 126);
  ASSERT_EQ(layout.num_cts, 1u);

  std::vector<std::vector<std::int64_t>> to_s1(users), to_s2(users);
  std::vector<std::int64_t> expect_a(k, 0), expect_b(k, 0);
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t i = 0; i < k; ++i) {
      to_s1[u].push_back(static_cast<std::int64_t>(u * 31 + i) - 64);
      to_s2[u].push_back(static_cast<std::int64_t>(i * 17) -
                         static_cast<std::int64_t>(u));
      expect_a[i] += to_s1[u].back();
      expect_b[i] += to_s2[u].back();
    }
  }

  // Users submit as the lane programs do: secure_sum_encrypt_stream per
  // server, folded by each server with add_vectors.
  const auto submission_bytes = [](const std::vector<PaillierCiphertext>& c) {
    MessageWriter w;
    write_ciphertext_vector(w, c);
    return w.size();
  };
  std::vector<PaillierCiphertext> packed_a, packed_b, plain_a;
  std::size_t packed_bytes = 0, plain_bytes = 0;
  for (std::size_t u = 0; u < users; ++u) {
    DeterministicRng user_rng(derive_party_seed(1, 2 + u));
    const auto a = secure_sum_encrypt_stream(keys.s2.pk, to_s1[u], user_rng,
                                             &layout, nullptr);
    const auto b = secure_sum_encrypt_stream(keys.s1.pk, to_s2[u], user_rng,
                                             &layout, nullptr);
    const auto plain = secure_sum_encrypt_stream(keys.s2.pk, to_s1[u], user_rng,
                                                 nullptr, nullptr);
    packed_bytes += submission_bytes(a);
    plain_bytes += submission_bytes(plain);
    packed_a = u == 0 ? a : add_vectors(keys.s2.pk, packed_a, a);
    packed_b = u == 0 ? b : add_vectors(keys.s1.pk, packed_b, b);
    plain_a = u == 0 ? plain : add_vectors(keys.s2.pk, plain_a, plain);
  }

  ASSERT_EQ(packed_a.size(), 1u);
  ASSERT_EQ(plain_a.size(), k);
  EXPECT_EQ(decrypt_packed_vector(keys.s2.sk, layout, packed_a, users),
            expect_a);
  EXPECT_EQ(decrypt_packed_vector(keys.s1.sk, layout, packed_b, users),
            expect_b);
  EXPECT_EQ(decrypt_vector(keys.s2.sk, plain_a), expect_a);

  // >= L/2-fold wire reduction (here exactly L-fold in ciphertext count).
  EXPECT_LE(packed_bytes * 2, plain_bytes);
}

}  // namespace
}  // namespace pcl
