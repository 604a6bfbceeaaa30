#include "mpc/consensus.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "crypto/fixed_point.h"
#include "mpc/dgk_compare.h"
#include "mpc/lane_pool.h"
#include "net/party_runner.h"

namespace pcl {

ConsensusProtocol::ConsensusProtocol(const ConsensusConfig& config,
                                     Rng& keygen_rng)
    : config_(config),
      paillier_(generate_server_paillier_keys(config.paillier_bits,
                                              keygen_rng)),
      dgk_(generate_dgk_key(config.dgk_params, keygen_rng)) {
  if (config_.num_classes < 2) {
    throw std::invalid_argument("need at least two classes");
  }
  if (config_.num_users == 0) {
    throw std::invalid_argument("need at least one user");
  }
  if (!(config_.threshold_fraction > 0.0 &&
        config_.threshold_fraction <= 1.0)) {
    throw std::invalid_argument("threshold_fraction must lie in (0, 1]");
  }
  if (!(config_.sigma1 > 0.0 && config_.sigma2 > 0.0)) {
    throw std::invalid_argument("noise scales must be positive");
  }
  // The DGK plaintext space must accommodate the comparison width.
  (void)DgkCompareContext(dgk_.pk, dgk_.sk, config_.compare_bits);
}

double ConsensusProtocol::threshold_votes() const {
  return config_.threshold_fraction *
         static_cast<double>(config_.num_users);
}

ConsensusProtocol::NoisePlan ConsensusProtocol::draw_noise(Rng& rng) const {
  // Per-stream component scale: sigma^2 / (2|U|) variance per user per
  // stream; the 2|U| components sum to variance sigma^2 (DESIGN.md).
  const double scale1 = config_.sigma1 /
                        std::sqrt(2.0 * static_cast<double>(config_.num_users));
  const double scale2 = config_.sigma2 /
                        std::sqrt(2.0 * static_cast<double>(config_.num_users));
  NoisePlan plan;
  const auto draw = [&](double scale) {
    std::vector<std::vector<std::int64_t>> out(config_.num_users);
    for (auto& per_user : out) {
      per_user.reserve(config_.num_classes);
      for (std::size_t i = 0; i < config_.num_classes; ++i) {
        per_user.push_back(encode_fixed(rng.gaussian(0.0, scale)));
      }
    }
    return out;
  };
  plan.z1a = draw(scale1);
  plan.z1b = draw(scale1);
  plan.z2a = draw(scale2);
  plan.z2b = draw(scale2);
  return plan;
}

ConsensusProtocol::NoisePlan ConsensusProtocol::injected_noise(
    double threshold_noise, std::span<const double> release_noise) const {
  if (release_noise.size() != config_.num_classes) {
    throw std::invalid_argument("release_noise must have num_classes entries");
  }
  NoisePlan plan;
  const auto zeros = [&] {
    return std::vector<std::vector<std::int64_t>>(
        config_.num_users,
        std::vector<std::int64_t>(config_.num_classes, 0));
  };
  plan.z1a = zeros();
  plan.z1b = zeros();
  plan.z2a = zeros();
  plan.z2b = zeros();
  // User 0 carries the entire injected noise; placement is irrelevant to
  // correctness because only the aggregate enters any comparison.
  for (std::size_t i = 0; i < config_.num_classes; ++i) {
    plan.z1a[0][i] = encode_fixed(threshold_noise);
    plan.z2a[0][i] = encode_fixed(release_noise[i]);
  }
  return plan;
}

ConsensusProtocol::QueryResult ConsensusProtocol::run_query(
    const std::vector<std::vector<double>>& user_votes, Rng& rng) {
  NoisePlan noise = draw_noise(rng);
  return run_internal(user_votes, noise, rng.next_u64(),
                      ConsensusTransport::kInProcess);
}

ConsensusProtocol::QueryResult ConsensusProtocol::run_query_seeded(
    const std::vector<std::vector<double>>& user_votes, std::uint64_t seed,
    ConsensusTransport transport) {
  // The noise stream is one past the last party index (S1=0, S2=1, users
  // 2..), so it never collides with a party's derived seed.
  DeterministicRng noise_rng(
      derive_party_seed(seed, 2 + config_.num_users));
  return run_internal(user_votes, draw_noise(noise_rng), seed, transport);
}

std::vector<ConsensusProtocol::QueryResult> ConsensusProtocol::run_batch(
    const std::vector<std::vector<std::vector<double>>>& votes_per_instance,
    Rng& rng) {
  std::vector<QueryResult> out;
  out.reserve(votes_per_instance.size());
  for (const auto& votes : votes_per_instance) {
    out.push_back(run_query(votes, rng));
  }
  return out;
}

std::vector<ConsensusProtocol::QueryResult> ConsensusProtocol::run_batch_seeded(
    const std::vector<std::vector<std::vector<double>>>& votes_per_instance,
    std::uint64_t base_seed, ConsensusTransport transport, BatchMode mode) {
  std::vector<QueryResult> out;
  out.reserve(votes_per_instance.size());
  if (mode == BatchMode::kSequential) {
    for (std::size_t q = 0; q < votes_per_instance.size(); ++q) {
      out.push_back(run_query_seeded(votes_per_instance[q],
                                     derive_party_seed(base_seed, q),
                                     transport));
    }
    return out;
  }
  if (votes_per_instance.empty()) return out;

  // Lane q's plan, noise and seed are EXACTLY those of a one-lane
  // run_query_seeded(votes[q], derive_party_seed(base_seed, q)) — the basis
  // of mode equivalence (see mpc/consensus_batch.h).
  const std::size_t q_total = votes_per_instance.size();
  std::vector<QueryPlan> plans;
  std::vector<NoisePlan> noises;
  std::vector<std::uint64_t> lane_seeds;
  plans.reserve(q_total);
  noises.reserve(q_total);
  lane_seeds.reserve(q_total);
  for (std::size_t q = 0; q < q_total; ++q) {
    lane_seeds.push_back(derive_party_seed(base_seed, q));
    plans.push_back(make_plan(votes_per_instance[q]));
    DeterministicRng noise_rng(
        derive_party_seed(lane_seeds[q], 2 + config_.num_users));
    noises.push_back(draw_noise(noise_rng));
  }
  return run_lanes(std::move(plans), noises, lane_seeds, transport,
                   "Consensus Batch");
}

ConsensusProtocol::QueryResult ConsensusProtocol::run_query_with_noise(
    const std::vector<std::vector<double>>& user_votes, double threshold_noise,
    std::span<const double> release_noise, Rng& rng) {
  return run_internal(user_votes,
                      injected_noise(threshold_noise, release_noise),
                      rng.next_u64(), ConsensusTransport::kInProcess);
}

ConsensusProtocol::QueryResult ConsensusProtocol::run_query_with_noise_seeded(
    const std::vector<std::vector<double>>& user_votes, double threshold_noise,
    std::span<const double> release_noise, std::uint64_t seed,
    ConsensusTransport transport) {
  return run_internal(user_votes,
                      injected_noise(threshold_noise, release_noise), seed,
                      transport);
}

ConsensusProtocol::QueryPlan ConsensusProtocol::make_plan(
    const std::vector<std::vector<double>>& user_votes) const {
  const std::size_t n_users = config_.num_users;
  const std::size_t k = config_.num_classes;
  if (user_votes.size() != n_users) {
    throw std::invalid_argument("expected one vote vector per user");
  }

  QueryPlan plan;

  // ---- Step 1 prep: validate and fixed-point encode every vote vector.
  // |vote| <= 1 per class keeps everything far below the share-masking and
  // Paillier bounds (checked in the constructor's params).
  plan.votes_fixed.resize(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    if (user_votes[u].size() != k) {
      throw std::invalid_argument("vote vector has wrong length");
    }
    plan.votes_fixed[u].resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      if (!(user_votes[u][i] >= 0.0 && user_votes[u][i] <= 1.0)) {
        throw std::invalid_argument("votes must lie in [0, 1]");
      }
      plan.votes_fixed[u][i] = encode_fixed(user_votes[u][i]);
    }
  }

  // Per-user threshold offsets: the a-side offsets sum to floor(T/2) and
  // the b-side offsets to T - floor(T/2), so the threshold comparison sees
  // exactly T (paper writes T/(2|U|) per user per side).
  const std::int64_t t_fixed = encode_fixed(threshold_votes());
  const auto split_offsets = [&](std::int64_t total) {
    std::vector<std::int64_t> out(n_users, total / static_cast<std::int64_t>(
                                               n_users));
    std::int64_t rem = total % static_cast<std::int64_t>(n_users);
    for (std::int64_t u = 0; u < rem; ++u) out[static_cast<std::size_t>(u)]++;
    return out;
  };
  plan.t_a = split_offsets(t_fixed / 2);
  plan.t_b = split_offsets(t_fixed - t_fixed / 2);

  plan.params.num_classes = k;
  plan.params.num_users = n_users;
  plan.params.share_bits = config_.share_bits;
  plan.params.compare_bits = config_.compare_bits;
  plan.params.threshold_check_all_positions =
      config_.threshold_check_all_positions;
  plan.params.argmax_strategy = config_.argmax_strategy;
  if (config_.pack_secure_sum) {
    // Slot geometry (DESIGN.md §15): |a-share| <= 2^share_bits but a
    // b-share may reach 2^share_bits + |vote|, so values need
    // share_bits + 3 bits of signed headroom; every aggregate absorbs at
    // most num_users + 1 logical additions (the submissions plus one mask
    // composition); and two plaintext bits stay free so the biased packed
    // value decodes as a positive residue.
    plan.params.packed = true;
    plan.params.packing =
        make_packing_layout(k, config_.share_bits + 3, n_users + 1,
                            config_.paillier_bits - 2);
  }
  return plan;
}

std::size_t ConsensusProtocol::party_index(const std::string& party) const {
  if (party == "S1") return 0;
  if (party == "S2") return 1;
  for (std::size_t u = 0; u < config_.num_users; ++u) {
    if (party == "user:" + std::to_string(u)) return 2 + u;
  }
  throw std::invalid_argument("consensus: unknown party '" + party + "'");
}

ConsensusUserBatchProgram::Inputs ConsensusProtocol::user_inputs(
    QueryPlan& plan, const NoisePlan& noise, std::size_t u) {
  return {std::move(plan.votes_fixed[u]),
          plan.t_a[u],
          plan.t_b[u],
          noise.z1a[u],
          noise.z1b[u],
          noise.z2a[u],
          noise.z2b[u]};
}

PartyPrecompute ConsensusProtocol::party_precompute(const std::string& party,
                                                    std::uint64_t seed) const {
  PartyPrecompute pre;
  PrecomputeService* svc = config_.precompute;
  if (svc == nullptr) return pre;
  const std::size_t index = party_index(party);
  const std::uint64_t party_seed = derive_party_seed(seed, index);
  // Users only ever encrypt under the key the receiving server CANNOT
  // decrypt; servers encrypt under both (own re-encryptions, peer-bound
  // masks).  Every party gets its OWN streams so draw order stays
  // deterministic whatever the transport schedules.
  pre.powers_pk1 =
      &svc->paillier_powers(paillier_.s1.pk, derive_party_seed(party_seed, 0));
  pre.powers_pk2 =
      &svc->paillier_powers(paillier_.s2.pk, derive_party_seed(party_seed, 1));
  if (index < 2) {
    pre.dgk_powers =
        &svc->dgk_powers(dgk_.pk, derive_party_seed(party_seed, 2));
  }
  return pre;
}

std::optional<int> ConsensusProtocol::run_party_seeded(
    const std::string& party,
    const std::vector<std::vector<double>>& user_votes, std::uint64_t seed,
    Channel& chan) const {
  const std::size_t index = party_index(party);
  QueryPlan plan = make_plan(user_votes);
  // Same noise-stream derivation as run_query_seeded: every process hands
  // the users identical noise slices, so a multi-process run replays the
  // in-process query byte for byte.
  DeterministicRng noise_rng(derive_party_seed(seed, 2 + config_.num_users));
  const NoisePlan noise = draw_noise(noise_rng);

  // This party's one-lane program, with exactly the Rng stream and
  // precompute handles the all-party harness would give it.  No LanePool:
  // one lane never fans out.
  const std::vector<std::uint64_t> lane_seed = {
      derive_party_seed(seed, index)};
  std::vector<PartyPrecompute> pre;
  if (config_.precompute != nullptr) {
    pre.push_back(party_precompute(party, seed));
  }
  std::optional<std::size_t> label;
  if (index == 0) {
    ConsensusS1BatchProgram s1(plan.params, paillier_.s1, paillier_.s2.pk,
                               dgk_.pk, lane_seed, nullptr, std::move(pre));
    label = s1.run(chan).front();
  } else if (index == 1) {
    ConsensusS2BatchProgram s2(plan.params, paillier_.s2, paillier_.s1.pk,
                               dgk_, lane_seed, nullptr, std::move(pre));
    label = s2.run(chan).front();
  } else {
    std::vector<ConsensusUserBatchProgram::Inputs> inputs;
    inputs.push_back(user_inputs(plan, noise, index - 2));
    ConsensusUserBatchProgram user(plan.params, std::move(inputs),
                                   paillier_.s1.pk, paillier_.s2.pk, lane_seed,
                                   nullptr, std::move(pre));
    user.run(chan);
  }
  if (!label.has_value()) return std::nullopt;
  return static_cast<int>(*label);
}

std::optional<int> ConsensusProtocol::run_party_session(
    const std::string& party,
    const std::vector<std::vector<double>>& user_votes,
    const SessionContext& ctx, Channel& chan) const {
  // The session id names the observability span; the protocol itself sees
  // only the seed (see the header contract).
  std::string span_name = "session:";
  span_name += std::to_string(ctx.id);
  const obs::Span span(span_name.c_str());
  return run_party_seeded(party, user_votes, ctx.seed, chan);
}

ConsensusProtocol::QueryResult ConsensusProtocol::run_internal(
    const std::vector<std::vector<double>>& user_votes, const NoisePlan& noise,
    std::uint64_t seed, ConsensusTransport transport) {
  std::vector<QueryPlan> plans;
  plans.push_back(make_plan(user_votes));
  return run_lanes(std::move(plans), {noise}, {seed}, transport,
                   "Consensus Query")
      .front();
}

std::vector<ConsensusProtocol::QueryResult> ConsensusProtocol::run_lanes(
    std::vector<QueryPlan> plans, const std::vector<NoisePlan>& noises,
    const std::vector<std::uint64_t>& lane_seeds, ConsensusTransport transport,
    const char* span_name) {
  const std::size_t n_users = config_.num_users;
  const std::size_t q_total = lane_seeds.size();
  const ConsensusQueryParams& params = plans.front().params;

  // Every party gets its own Rng per lane, derived from the lane seed
  // (S1 = 0, S2 = 1, user u = 2 + u) — the basis of cross-transport
  // byte-identity.
  const auto party_lane_seeds = [&](std::size_t party) {
    std::vector<std::uint64_t> seeds(q_total);
    for (std::size_t q = 0; q < q_total; ++q) {
      seeds[q] = derive_party_seed(lane_seeds[q], party);
    }
    return seeds;
  };
  // Lane q's precompute streams are EXACTLY the ones a one-lane pooled run
  // of lane_seeds[q] would register.
  const auto party_lane_pre = [&](const std::string& party) {
    std::vector<PartyPrecompute> pres;
    if (config_.precompute == nullptr) return pres;
    pres.reserve(q_total);
    for (std::size_t q = 0; q < q_total; ++q) {
      pres.push_back(party_precompute(party, lane_seeds[q]));
    }
    return pres;
  };

  // One lane never fans out, so a single query leaves the pool unstarted.
  LanePool* pool = q_total > 1 ? &LanePool::shared() : nullptr;
  ConsensusS1BatchProgram s1(params, paillier_.s1, paillier_.s2.pk, dgk_.pk,
                             party_lane_seeds(0), pool, party_lane_pre("S1"));
  ConsensusS2BatchProgram s2(params, paillier_.s2, paillier_.s1.pk, dgk_,
                             party_lane_seeds(1), pool, party_lane_pre("S2"));
  std::vector<ConsensusUserBatchProgram> users;
  users.reserve(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    std::vector<ConsensusUserBatchProgram::Inputs> lane_inputs;
    lane_inputs.reserve(q_total);
    for (std::size_t q = 0; q < q_total; ++q) {
      lane_inputs.push_back(user_inputs(plans[q], noises[q], u));
    }
    users.emplace_back(params, std::move(lane_inputs), paillier_.s1.pk,
                       paillier_.s2.pk, party_lane_seeds(2 + u), pool,
                       party_lane_pre("user:" + std::to_string(u)));
  }

  std::vector<std::optional<std::size_t>> s1_labels, s2_labels;
  std::vector<Party> parties;
  parties.push_back({"S1", [&](Channel& chan) { s1_labels = s1.run(chan); }});
  parties.push_back({"S2", [&](Channel& chan) { s2_labels = s2.run(chan); }});
  for (std::size_t u = 0; u < n_users; ++u) {
    parties.push_back({"user:" + std::to_string(u),
                       [&users, u](Channel& chan) { users[u].run(chan); }});
  }

  PartyRunOptions options;
  switch (transport) {
    case ConsensusTransport::kInProcess:
      options.transport = PartyTransport::kDeterministic;
      break;
    case ConsensusTransport::kThreaded:
      options.transport = PartyTransport::kThreaded;
      break;
    case ConsensusTransport::kTcp:
      options.transport = PartyTransport::kTcp;
      break;
  }
  options.stats = &stats_;
  options.record_transcript =
      capture_transcript_ && transport == ConsensusTransport::kInProcess;
  options.trace = trace_;
  options.metrics = metrics_;
  // One harness span brackets the whole run, so a trace shows each party's
  // step spans nested inside one "Consensus Query" (or "Consensus Batch")
  // envelope.
  const obs::ObserverScope driver_scope(trace_, metrics_, "driver");
  const obs::Span run_span(span_name);
  const PartyRunReport report = run_parties(parties, options);
  if (options.record_transcript) last_transcript_ = report.transcript;

  if (s1_labels != s2_labels) {
    throw std::logic_error("consensus: server results disagree");
  }
  if (report.undelivered != 0) {
    throw std::logic_error("protocol finished with undelivered messages");
  }
  std::vector<QueryResult> out;
  out.reserve(q_total);
  for (const std::optional<std::size_t>& label : s1_labels) {
    if (label.has_value()) {
      out.push_back({static_cast<int>(*label)});
    } else {
      out.push_back({std::nullopt});
    }
  }
  return out;
}

}  // namespace pcl
