#include "mpc/consensus_batch.h"

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "bigint/rng.h"
#include "mpc/dgk_compare.h"
#include "mpc/he_util.h"
#include "mpc/lane_pool.h"
#include "mpc/secure_sum.h"
#include "mpc/sharing.h"
#include "obs/trace.h"

namespace pcl {

namespace {

// --- Lane framing -----------------------------------------------------------
// In a Q > 1 batch a frame is lane count + one length-prefixed sub-message
// per live lane, in lane order.  The sub-message bytes are exactly what a
// one-lane run sends for that lane at this slot; the length prefixes give
// every lane an isolated MessageReader, which is what lets the per-lane
// parsing and crypto fan out over worker threads.  A one-lane program
// sends the sub-message bare: the paper's single-query wire.

/// What a fan-out slot needs from a lane: its private Rng stream, its DGK
/// power stream and its span name ("lane:<q>", empty at Q = 1; owned by the
/// program, outliving every span opened on it).
struct LaneCtx {
  Rng* rng = nullptr;
  const char* span = "";
  DgkPowerStream* dgk_bank = nullptr;
};

/// The live lanes one slot serves, plus how their program frames and fans
/// them out — both fixed by the lane count Q the program was built with.
struct LaneSet {
  std::vector<LaneCtx> ctx;
  bool enveloped = true;  ///< Q > 1: frames carry the lane envelope
  LanePool* pool = nullptr;

  [[nodiscard]] std::size_t size() const { return ctx.size(); }
};

/// Lane q's span name: "lane:<q>" in a Q > 1 batch, empty at Q = 1.
std::string lane_span_name(std::size_t q, std::size_t lanes) {
  return lanes > 1 ? "lane:" + std::to_string(q) : std::string();
}

template <typename LaneT>
LaneSet lane_set(const std::vector<LaneT*>& live, std::size_t q_total,
                 LanePool* pool) {
  LaneSet set;
  set.ctx.reserve(live.size());
  for (LaneT* lane : live) {
    set.ctx.push_back({&lane->rng, lane->span.c_str(), lane->pre.dgk_powers});
  }
  set.enveloped = q_total > 1;
  set.pool = pool;
  return set;
}

/// Opens a lane's "lane:<q>" span; opens nothing at Q = 1, so a one-lane
/// run counts its ops against the step span, as a single query does.
class LaneSpan {
 public:
  explicit LaneSpan(const LaneCtx& ctx) {
    if (*ctx.span != '\0') span_.emplace(ctx.span);
  }

 private:
  std::optional<obs::Span> span_;
};

MessageWriter pack_lanes(const LaneSet& set,
                         std::vector<MessageWriter>& parts) {
  if (!set.enveloped) return std::move(parts.front());
  MessageWriter frame;
  frame.write_u64(parts.size());
  for (MessageWriter& part : parts) {
    frame.write_bytes(std::move(part).take());
  }
  return frame;
}

std::vector<MessageReader> unpack_lanes(const LaneSet& set,
                                        MessageReader frame) {
  std::vector<MessageReader> parts;
  if (!set.enveloped) {
    parts.push_back(std::move(frame));
    return parts;
  }
  const std::uint64_t count = frame.read_u64();
  if (count != set.size()) {
    throw std::logic_error("lane-batched frame: lane count mismatch");
  }
  parts.reserve(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    parts.emplace_back(frame.read_bytes());
  }
  return parts;
}

/// Runs fn(lane) for every lane — through the pool when one is attached
/// (workers + the calling party thread), inline otherwise.  Lanes touch
/// disjoint state (their own Rng, their own sub-message), so the fan-out
/// never changes per-lane results, only wall time.
void for_each_lane(const LaneSet& set,
                   const std::function<void(std::size_t)>& fn) {
  if (set.pool != nullptr && set.size() > 1) {
    set.pool->run(set.size(), fn);
    return;
  }
  for (std::size_t i = 0; i < set.size(); ++i) fn(i);
}

/// Validates and spreads a per-lane precompute vector: empty means "no
/// precompute" (every lane gets an empty handle set).
std::vector<PartyPrecompute> lane_pre_or_empty(
    std::vector<PartyPrecompute> lane_pre, std::size_t lanes) {
  if (lane_pre.empty()) return std::vector<PartyPrecompute>(lanes);
  if (lane_pre.size() != lanes) {
    throw std::invalid_argument(
        "batched consensus: need one precompute handle set per lane");
  }
  return lane_pre;
}

/// Builds a server program's lanes: lane q gets its seed, its span name and
/// its precompute handles.
template <typename LaneT>
std::vector<std::unique_ptr<LaneT>> make_server_lanes(
    const std::vector<std::uint64_t>& lane_seeds,
    std::vector<PartyPrecompute> lane_pre) {
  if (lane_seeds.empty()) {
    throw std::invalid_argument("batched consensus: need at least one lane");
  }
  const std::size_t q_total = lane_seeds.size();
  lane_pre = lane_pre_or_empty(std::move(lane_pre), q_total);
  std::vector<std::unique_ptr<LaneT>> lanes;
  lanes.reserve(q_total);
  for (std::size_t q = 0; q < q_total; ++q) {
    lanes.push_back(std::make_unique<LaneT>(
        lane_seeds[q], lane_span_name(q, q_total), lane_pre[q]));
  }
  return lanes;
}

template <typename LaneT>
std::vector<LaneT*> all_lanes(
    const std::vector<std::unique_ptr<LaneT>>& lanes) {
  std::vector<LaneT*> out;
  out.reserve(lanes.size());
  for (const auto& lane : lanes) out.push_back(lane.get());
  return out;
}

template <typename LaneT>
std::vector<std::optional<std::size_t>> released_of(
    const std::vector<std::unique_ptr<LaneT>>& lanes) {
  std::vector<std::optional<std::size_t>> out;
  out.reserve(lanes.size());
  for (const auto& lane : lanes) out.push_back(lane->released);
  return out;
}

/// The engaged Blind-and-Permute instance of every live lane.
template <typename LaneT, typename Bnp>
std::vector<Bnp*> bnps_of(const std::vector<LaneT*>& lanes,
                          std::optional<Bnp> LaneT::* member) {
  std::vector<Bnp*> out;
  out.reserve(lanes.size());
  for (LaneT* lane : lanes) out.push_back(&*(lane->*member));
  return out;
}

template <typename LaneT, typename T>
std::vector<T*> members_of(const std::vector<LaneT*>& lanes,
                           T LaneT::* member) {
  std::vector<T*> out;
  out.reserve(lanes.size());
  for (LaneT* lane : lanes) out.push_back(&(lane->*member));
  return out;
}

// --- Batched secure sum (steps 2 and 6) -------------------------------------

/// Server side: one frame per user, each carrying every live lane's share
/// vector; per-lane aggregation order (user 0, 1, ...) matches
/// secure_sum_collect exactly.
void batch_collect(Channel& chan, const PaillierPublicKey& pk,
                   std::size_t n_users, const LaneSet& set,
                   const std::vector<std::vector<PaillierCiphertext>*>& aggs) {
  for (std::size_t u = 0; u < n_users; ++u) {
    std::vector<MessageReader> parts =
        unpack_lanes(set, chan.recv("user:" + std::to_string(u)));
    for_each_lane(set, [&](std::size_t i) {
      const LaneSpan span(set.ctx[i]);
      if (u == 0) obs::count(obs::Op::kSecureSumCollect);
      std::vector<PaillierCiphertext> shares = read_ciphertext_vector(parts[i]);
      *aggs[i] = u == 0 ? std::move(shares) : add_vectors(pk, *aggs[i], shares);
    });
  }
}

// --- Batched Blind-and-Permute (steps 3 and 7) ------------------------------

void batch_bnp_s1(Channel& chan, const LaneSet& set,
                  const std::vector<BlindPermuteS1*>& bnps,
                  const std::vector<std::vector<PaillierCiphertext>*>& holds,
                  BlindPermuteMaskMode mode,
                  const std::vector<std::vector<std::int64_t>*>& out_seqs) {
  std::vector<MessageWriter> parts(set.size());
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnps[i]->round_open(*holds[i], mode);
  });
  chan.send("S2", pack_lanes(set, parts));
  std::vector<MessageReader> permuted = unpack_lanes(set, chan.recv("S2"));
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnps[i]->round_permute(permuted[i], *out_seqs[i]);
  });
  chan.send("S2", pack_lanes(set, parts));
  std::vector<MessageReader> blinded = unpack_lanes(set, chan.recv("S2"));
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnps[i]->round_close(blinded[i]);
  });
  chan.send("S2", pack_lanes(set, parts));
}

void batch_bnp_s2(Channel& chan, const LaneSet& set,
                  const std::vector<BlindPermuteS2*>& bnps,
                  const std::vector<std::vector<PaillierCiphertext>*>& holds,
                  BlindPermuteMaskMode mode,
                  const std::vector<std::vector<std::int64_t>*>& out_seqs) {
  std::vector<MessageReader> masked = unpack_lanes(set, chan.recv("S1"));
  std::vector<MessageWriter> parts(set.size());
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnps[i]->round_permute(masked[i], *holds[i]);
  });
  chan.send("S1", pack_lanes(set, parts));
  std::vector<MessageReader> enc_mask = unpack_lanes(set, chan.recv("S1"));
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnps[i]->round_blind(enc_mask[i], *holds[i], mode);
  });
  chan.send("S1", pack_lanes(set, parts));
  std::vector<MessageReader> sealed = unpack_lanes(set, chan.recv("S1"));
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    *out_seqs[i] = bnps[i]->round_output(sealed[i]);
  });
}

// --- Batched DGK comparison rounds (steps 4, 5 and 8) -----------------------

/// One batched comparison: every live lane's slot payloads share a frame.
/// Results are std::uint8_t, not bool — lanes write their element
/// concurrently and std::vector<bool> packs bits.
std::vector<std::uint8_t> batch_compare_s1(Channel& chan,
                                           const DgkPublicKey& pk,
                                           std::size_t ell,
                                           const std::vector<std::int64_t>& xs,
                                           const LaneSet& set) {
  std::vector<MessageReader> e_bits = unpack_lanes(set, chan.recv("S2"));
  std::vector<MessageWriter> parts(set.size());
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = dgk_compare_s1_blind(pk, ell, xs[i], e_bits[i],
                                    *set.ctx[i].rng, set.ctx[i].dgk_bank);
  });
  chan.send("S2", pack_lanes(set, parts));
  std::vector<MessageReader> replies = unpack_lanes(set, chan.recv("S2"));
  std::vector<std::uint8_t> out(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    out[i] = dgk_compare_read_bit(replies[i]) ? 1 : 0;
  }
  return out;
}

std::vector<std::uint8_t> batch_compare_s2(Channel& chan,
                                           const DgkCompareContext& cmp,
                                           const std::vector<std::int64_t>& ys,
                                           const LaneSet& set) {
  std::vector<MessageWriter> parts(set.size());
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = dgk_compare_s2_bits(cmp, ys[i], *set.ctx[i].rng,
                                   set.ctx[i].dgk_bank);
  });
  chan.send("S1", pack_lanes(set, parts));
  std::vector<MessageReader> blinded = unpack_lanes(set, chan.recv("S1"));
  std::vector<MessageWriter> replies(set.size());
  std::vector<std::uint8_t> out(set.size());
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    out[i] = dgk_compare_s2_decide(cmp, blinded[i], replies[i]) ? 1 : 0;
  });
  chan.send("S1", pack_lanes(set, replies));
  return out;
}

/// Per-lane state of the argmax comparison schedule.  Every lane performs
/// the same NUMBER of comparisons — all K(K-1)/2 pairs, or K-1 tournament
/// rounds — which is what lets one frame per slot carry all lanes; only
/// the tournament OPERANDS depend on a lane's earlier revealed bits, and
/// both servers derive them from the same bits.  Ties keep the earlier
/// position, so both strategies name the same winner.
class ArgmaxLanes {
 public:
  ArgmaxLanes(std::size_t k, ArgmaxStrategy strategy, std::size_t lanes)
      : k_(k), strategy_(strategy), champion_(lanes, 0) {
    if (strategy_ == ArgmaxStrategy::kAllPairs) {
      wins_.assign(lanes, std::vector<std::size_t>(k, 0));
      for (std::size_t p = 0; p < k; ++p) {
        for (std::size_t q = p + 1; q < k; ++q) pairs_.push_back({p, q});
      }
    }
  }

  [[nodiscard]] std::size_t rounds() const {
    return strategy_ == ArgmaxStrategy::kAllPairs ? pairs_.size() : k_ - 1;
  }

  /// Lane `lane`'s (p, q) operand pair for comparison round `round`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> pair_for(
      std::size_t lane, std::size_t round) const {
    if (strategy_ == ArgmaxStrategy::kAllPairs) return pairs_[round];
    return {champion_[lane], round + 1};
  }

  void absorb(std::size_t lane, std::size_t round, bool geq) {
    if (strategy_ == ArgmaxStrategy::kAllPairs) {
      const auto [p, q] = pairs_[round];
      ++wins_[lane][geq ? p : q];
      return;
    }
    if (!geq) champion_[lane] = round + 1;
  }

  [[nodiscard]] std::size_t champion(std::size_t lane) const {
    if (strategy_ == ArgmaxStrategy::kTournament) return champion_[lane];
    for (std::size_t p = 0; p < k_; ++p) {
      if (wins_[lane][p] == k_ - 1) return p;
    }
    throw std::logic_error("argmax tournament produced no champion");
  }

 private:
  std::size_t k_;
  ArgmaxStrategy strategy_;
  std::vector<std::size_t> champion_;                // kTournament
  std::vector<std::vector<std::size_t>> wins_;       // kAllPairs
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
};

}  // namespace

// --- S1 ---------------------------------------------------------------------

struct ConsensusS1BatchProgram::Lane {
  Lane(std::uint64_t seed, std::string span_name, PartyPrecompute pre_handles)
      : rng(seed), span(std::move(span_name)), pre(pre_handles) {}
  DeterministicRng rng;
  const std::string span;
  PartyPrecompute pre;
  std::vector<PaillierCiphertext> votes_agg, thresh_agg, noisy_agg;
  std::optional<BlindPermuteS1> bnp, bnp2;
  std::vector<std::int64_t> votes_seq, thresh_seq, noisy_seq;
  std::size_t champion = 0;
  bool above = false;
  std::optional<std::size_t> released;
};

ConsensusS1BatchProgram::ConsensusS1BatchProgram(
    const ConsensusQueryParams& params, const PaillierKeyPair& own,
    const PaillierPublicKey& peer_pk, const DgkPublicKey& dgk_pk,
    const std::vector<std::uint64_t>& lane_seeds, LanePool* pool,
    std::vector<PartyPrecompute> lane_pre)
    : params_(params), own_(own), peer_pk_(peer_pk), dgk_pk_(dgk_pk),
      pool_(pool),
      lanes_(make_server_lanes<Lane>(lane_seeds, std::move(lane_pre))) {}

ConsensusS1BatchProgram::~ConsensusS1BatchProgram() = default;

std::vector<std::optional<std::size_t>> ConsensusS1BatchProgram::run(
    Channel& chan) {
  const std::size_t k = params_.num_classes;
  const std::size_t n = params_.num_users;
  using Timing = ChannelStepScope::Timing;

  std::vector<Lane*> live = all_lanes(lanes_);
  LaneSet set = lane_set(live, lanes_.size(), pool_);

  // ---- Step 2: Secure Sum of votes and threshold sequences. ---------------
  {
    ChannelStepScope scope(chan, "Secure Sum (2)", Timing::kTimed);
    batch_collect(chan, peer_pk_, n, set, members_of(live, &Lane::votes_agg));
    batch_collect(chan, peer_pk_, n, set,
                  members_of(live, &Lane::thresh_agg));
  }

  // ---- Step 3: Blind-and-Permute both sequence pairs under one pi1. -------
  // Each lane draws its own pi1 from its own stream, after its step-2 work
  // and before any step-3 draw.
  for (Lane* lane : live) {
    lane->bnp.emplace(own_, peer_pk_, k, params_.share_bits, lane->rng,
                      params_.packing_or_null(), n, &lane->pre);
  }
  {
    ChannelStepScope scope(chan, "Blind-and-Permute (3)", Timing::kTimed);
    const std::vector<BlindPermuteS1*> bnps = bnps_of(live, &Lane::bnp);
    batch_bnp_s1(chan, set, bnps, members_of(live, &Lane::votes_agg),
                 BlindPermuteMaskMode::kOppositeSign,
                 members_of(live, &Lane::votes_seq));
    batch_bnp_s1(chan, set, bnps, members_of(live, &Lane::thresh_agg),
                 BlindPermuteMaskMode::kSameSign,
                 members_of(live, &Lane::thresh_seq));
  }

  // ---- Step 4: Secure Comparison — find each lane's pi(i*). ---------------
  // Paper Eq. 7: c_p >= c_q  <=>  (A_p - A_q) >= (B_q - B_p), because the
  // opposite-sign masks cancel in the cross-server sum.
  {
    ChannelStepScope scope(chan, "Secure Comparison (4)", Timing::kTimed);
    ArgmaxLanes state(k, params_.argmax_strategy, live.size());
    for (std::size_t r = 0; r < state.rounds(); ++r) {
      std::vector<std::int64_t> xs(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        const auto [p, q] = state.pair_for(i, r);
        xs[i] = live[i]->votes_seq[p] - live[i]->votes_seq[q];
      }
      const std::vector<std::uint8_t> bits =
          batch_compare_s1(chan, dgk_pk_, params_.compare_bits, xs, set);
      for (std::size_t i = 0; i < live.size(); ++i) {
        state.absorb(i, r, bits[i] != 0);
      }
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      live[i]->champion = state.champion(i);
    }
  }

  // ---- Step 5: Threshold Checking (paper Eq. 6 / SVT); one public verdict
  // per lane.  x - y == c_{i*} + z1_{i*} - T; the same-sign masks cancel.
  {
    ChannelStepScope scope(chan, "Threshold Checking (5)", Timing::kTimed);
    const auto threshold_round = [&](std::size_t p, bool all_positions) {
      std::vector<std::int64_t> xs(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        xs[i] = live[i]->thresh_seq[all_positions ? p : live[i]->champion];
      }
      return batch_compare_s1(chan, dgk_pk_, params_.compare_bits, xs, set);
    };
    if (params_.threshold_check_all_positions) {
      // Paper-prototype cost model: one comparison per permuted position;
      // only pi(i*)'s outcome decides (see ConsensusConfig).
      for (std::size_t p = 0; p < k; ++p) {
        const std::vector<std::uint8_t> bits = threshold_round(p, true);
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (p == live[i]->champion) live[i]->above = bits[i] != 0;
        }
      }
    } else {
      const std::vector<std::uint8_t> bits = threshold_round(0, false);
      for (std::size_t i = 0; i < live.size(); ++i) {
        live[i]->above = bits[i] != 0;
      }
    }
    // The verdicts are public protocol output: one bulletin entry per lane,
    // in lane order; users walk the log through their own cursors (servers
    // never message users).
    for (Lane* lane : live) chan.post_public(lane->above ? 1 : 0);
    std::vector<Lane*> survivors;
    for (Lane* lane : live) {
      if (lane->above) survivors.push_back(lane);
    }
    live = std::move(survivors);
    if (live.empty()) return released_of(lanes_);  // every lane ended in ⊥
    set = lane_set(live, lanes_.size(), pool_);
  }

  // ---- Step 6: Secure Sum of noisy votes (surviving lanes only). ----------
  {
    ChannelStepScope scope(chan, "Secure Sum (6)", Timing::kTimed);
    batch_collect(chan, peer_pk_, n, set, members_of(live, &Lane::noisy_agg));
  }

  // ---- Step 7: Blind-and-Permute under a fresh pi' per lane. --------------
  for (Lane* lane : live) {
    lane->bnp2.emplace(own_, peer_pk_, k, params_.share_bits, lane->rng,
                       params_.packing_or_null(), n, &lane->pre);
  }
  const std::vector<BlindPermuteS1*> bnp2s = bnps_of(live, &Lane::bnp2);
  {
    ChannelStepScope scope(chan, "Blind-and-Permute (7)", Timing::kTimed);
    batch_bnp_s1(chan, set, bnp2s, members_of(live, &Lane::noisy_agg),
                 BlindPermuteMaskMode::kOppositeSign,
                 members_of(live, &Lane::noisy_seq));
  }

  // ---- Step 8: Secure Comparison on the noisy sequences. ------------------
  // S1's champion copy is not consumed further (S2 feeds Restoration), but
  // the schedule must still run — and still checks consistency.
  {
    ChannelStepScope scope(chan, "Secure Comparison (8)", Timing::kTimed);
    ArgmaxLanes state(k, params_.argmax_strategy, live.size());
    for (std::size_t r = 0; r < state.rounds(); ++r) {
      std::vector<std::int64_t> xs(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        const auto [p, q] = state.pair_for(i, r);
        xs[i] = live[i]->noisy_seq[p] - live[i]->noisy_seq[q];
      }
      const std::vector<std::uint8_t> bits =
          batch_compare_s1(chan, dgk_pk_, params_.compare_bits, xs, set);
      for (std::size_t i = 0; i < live.size(); ++i) {
        state.absorb(i, r, bits[i] != 0);
      }
    }
    for (std::size_t i = 0; i < live.size(); ++i) (void)state.champion(i);
  }

  // ---- Step 9: Restoration — reveal only the original label index. --------
  ChannelStepScope scope(chan, "Restoration (9)", Timing::kTimed);
  std::vector<MessageReader> readers = unpack_lanes(set, chan.recv("S2"));
  std::vector<MessageWriter> parts(live.size());
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnp2s[i]->restore_mask(readers[i]);
  });
  chan.send("S2", pack_lanes(set, parts));
  readers = unpack_lanes(set, chan.recv("S2"));
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnp2s[i]->restore_strip(readers[i]);
  });
  chan.send("S2", pack_lanes(set, parts));
  readers = unpack_lanes(set, chan.recv("S2"));
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnp2s[i]->restore_decrypt(readers[i]);
  });
  chan.send("S2", pack_lanes(set, parts));
  readers = unpack_lanes(set, chan.recv("S2"));
  for (std::size_t i = 0; i < live.size(); ++i) {
    const LaneSpan span(set.ctx[i]);
    live[i]->released = bnp2s[i]->restore_index(readers[i]);
    obs::count(obs::Op::kNoisyMaxRelease);
  }
  return released_of(lanes_);
}

// --- S2 ---------------------------------------------------------------------

struct ConsensusS2BatchProgram::Lane {
  Lane(std::uint64_t seed, std::string span_name, PartyPrecompute pre_handles)
      : rng(seed), span(std::move(span_name)), pre(pre_handles) {}
  DeterministicRng rng;
  const std::string span;
  PartyPrecompute pre;
  std::vector<PaillierCiphertext> votes_agg, thresh_agg, noisy_agg;
  std::optional<BlindPermuteS2> bnp, bnp2;
  std::vector<std::int64_t> votes_seq, thresh_seq, noisy_seq;
  std::size_t champion = 0;
  std::size_t noisy_champion = 0;
  bool above = false;
  std::optional<std::size_t> released;
};

ConsensusS2BatchProgram::ConsensusS2BatchProgram(
    const ConsensusQueryParams& params, const PaillierKeyPair& own,
    const PaillierPublicKey& peer_pk, const DgkKeyPair& dgk,
    const std::vector<std::uint64_t>& lane_seeds, LanePool* pool,
    std::vector<PartyPrecompute> lane_pre)
    : params_(params), own_(own), peer_pk_(peer_pk), dgk_(dgk), pool_(pool),
      lanes_(make_server_lanes<Lane>(lane_seeds, std::move(lane_pre))) {}

ConsensusS2BatchProgram::~ConsensusS2BatchProgram() = default;

std::vector<std::optional<std::size_t>> ConsensusS2BatchProgram::run(
    Channel& chan) {
  const std::size_t k = params_.num_classes;
  const std::size_t n = params_.num_users;
  using Timing = ChannelStepScope::Timing;
  const DgkCompareContext cmp(dgk_.pk, dgk_.sk, params_.compare_bits);

  std::vector<Lane*> live = all_lanes(lanes_);
  LaneSet set = lane_set(live, lanes_.size(), pool_);

  // S1 times every step; S2's scopes only label its own sends.
  {
    ChannelStepScope scope(chan, "Secure Sum (2)", Timing::kUntimed);
    batch_collect(chan, peer_pk_, n, set, members_of(live, &Lane::votes_agg));
    batch_collect(chan, peer_pk_, n, set,
                  members_of(live, &Lane::thresh_agg));
  }

  for (Lane* lane : live) {
    lane->bnp.emplace(own_, peer_pk_, k, params_.share_bits, lane->rng,
                      params_.packing_or_null(), n, &lane->pre);
  }
  {
    ChannelStepScope scope(chan, "Blind-and-Permute (3)", Timing::kUntimed);
    const std::vector<BlindPermuteS2*> bnps = bnps_of(live, &Lane::bnp);
    batch_bnp_s2(chan, set, bnps, members_of(live, &Lane::votes_agg),
                 BlindPermuteMaskMode::kOppositeSign,
                 members_of(live, &Lane::votes_seq));
    batch_bnp_s2(chan, set, bnps, members_of(live, &Lane::thresh_agg),
                 BlindPermuteMaskMode::kSameSign,
                 members_of(live, &Lane::thresh_seq));
  }

  {
    ChannelStepScope scope(chan, "Secure Comparison (4)", Timing::kUntimed);
    ArgmaxLanes state(k, params_.argmax_strategy, live.size());
    for (std::size_t r = 0; r < state.rounds(); ++r) {
      std::vector<std::int64_t> ys(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        const auto [p, q] = state.pair_for(i, r);
        ys[i] = live[i]->votes_seq[q] - live[i]->votes_seq[p];
      }
      const std::vector<std::uint8_t> bits =
          batch_compare_s2(chan, cmp, ys, set);
      for (std::size_t i = 0; i < live.size(); ++i) {
        state.absorb(i, r, bits[i] != 0);
      }
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      live[i]->champion = state.champion(i);
    }
  }

  {
    ChannelStepScope scope(chan, "Threshold Checking (5)", Timing::kUntimed);
    const auto threshold_round = [&](std::size_t p, bool all_positions) {
      std::vector<std::int64_t> ys(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        ys[i] = live[i]->thresh_seq[all_positions ? p : live[i]->champion];
      }
      return batch_compare_s2(chan, cmp, ys, set);
    };
    if (params_.threshold_check_all_positions) {
      for (std::size_t p = 0; p < k; ++p) {
        const std::vector<std::uint8_t> bits = threshold_round(p, true);
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (p == live[i]->champion) live[i]->above = bits[i] != 0;
        }
      }
    } else {
      const std::vector<std::uint8_t> bits = threshold_round(0, false);
      for (std::size_t i = 0; i < live.size(); ++i) {
        live[i]->above = bits[i] != 0;
      }
    }
    // S2 learned each lane's verdict from its own zero-tests; S1 posts.
    std::vector<Lane*> survivors;
    for (Lane* lane : live) {
      if (lane->above) survivors.push_back(lane);
    }
    live = std::move(survivors);
    if (live.empty()) return released_of(lanes_);
    set = lane_set(live, lanes_.size(), pool_);
  }

  {
    ChannelStepScope scope(chan, "Secure Sum (6)", Timing::kUntimed);
    batch_collect(chan, peer_pk_, n, set, members_of(live, &Lane::noisy_agg));
  }

  for (Lane* lane : live) {
    lane->bnp2.emplace(own_, peer_pk_, k, params_.share_bits, lane->rng,
                       params_.packing_or_null(), n, &lane->pre);
  }
  const std::vector<BlindPermuteS2*> bnp2s = bnps_of(live, &Lane::bnp2);
  {
    ChannelStepScope scope(chan, "Blind-and-Permute (7)", Timing::kUntimed);
    batch_bnp_s2(chan, set, bnp2s, members_of(live, &Lane::noisy_agg),
                 BlindPermuteMaskMode::kOppositeSign,
                 members_of(live, &Lane::noisy_seq));
  }

  {
    ChannelStepScope scope(chan, "Secure Comparison (8)", Timing::kUntimed);
    ArgmaxLanes state(k, params_.argmax_strategy, live.size());
    for (std::size_t r = 0; r < state.rounds(); ++r) {
      std::vector<std::int64_t> ys(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        const auto [p, q] = state.pair_for(i, r);
        ys[i] = live[i]->noisy_seq[q] - live[i]->noisy_seq[p];
      }
      const std::vector<std::uint8_t> bits =
          batch_compare_s2(chan, cmp, ys, set);
      for (std::size_t i = 0; i < live.size(); ++i) {
        state.absorb(i, r, bits[i] != 0);
      }
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      live[i]->noisy_champion = state.champion(i);
    }
  }

  ChannelStepScope scope(chan, "Restoration (9)", Timing::kUntimed);
  std::vector<MessageWriter> parts(live.size());
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnp2s[i]->restore_open(live[i]->noisy_champion);
  });
  chan.send("S1", pack_lanes(set, parts));
  std::vector<MessageReader> readers = unpack_lanes(set, chan.recv("S1"));
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnp2s[i]->restore_reveal(readers[i]);
  });
  chan.send("S1", pack_lanes(set, parts));
  readers = unpack_lanes(set, chan.recv("S1"));
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    parts[i] = bnp2s[i]->restore_unpermute(readers[i]);
  });
  chan.send("S1", pack_lanes(set, parts));
  readers = unpack_lanes(set, chan.recv("S1"));
  for_each_lane(set, [&](std::size_t i) {
    const LaneSpan span(set.ctx[i]);
    std::size_t index = k;
    parts[i] = bnp2s[i]->restore_finish(readers[i], index);
    live[i]->released = index;
  });
  chan.send("S1", pack_lanes(set, parts));
  return released_of(lanes_);
}

// --- User -------------------------------------------------------------------

struct ConsensusUserBatchProgram::Lane {
  Lane(Inputs in, std::uint64_t seed, std::string span_name,
       PartyPrecompute pre_handles)
      : inputs(std::move(in)), rng(seed), span(std::move(span_name)),
        pre(pre_handles) {}
  Inputs inputs;
  DeterministicRng rng;
  const std::string span;
  PartyPrecompute pre;
  ShareVector shares;
  bool above = false;
};

ConsensusUserBatchProgram::ConsensusUserBatchProgram(
    const ConsensusQueryParams& params, std::vector<Inputs> lane_inputs,
    const PaillierPublicKey& pk1, const PaillierPublicKey& pk2,
    const std::vector<std::uint64_t>& lane_seeds, LanePool* pool,
    std::vector<PartyPrecompute> lane_pre)
    : params_(params), pk1_(pk1), pk2_(pk2), pool_(pool) {
  if (lane_inputs.empty() || lane_inputs.size() != lane_seeds.size()) {
    throw std::invalid_argument(
        "batched consensus: need one seed per lane input");
  }
  const std::size_t q_total = lane_inputs.size();
  lane_pre = lane_pre_or_empty(std::move(lane_pre), q_total);
  const std::size_t k = params_.num_classes;
  lanes_.reserve(q_total);
  for (std::size_t q = 0; q < q_total; ++q) {
    Inputs& in = lane_inputs[q];
    if (in.votes_fixed.size() != k || in.z1a.size() != k ||
        in.z1b.size() != k || in.z2a.size() != k || in.z2b.size() != k) {
      throw std::invalid_argument("consensus user inputs have wrong length");
    }
    lanes_.push_back(std::make_unique<Lane>(std::move(in), lane_seeds[q],
                                            lane_span_name(q, q_total),
                                            lane_pre[q]));
  }
}

ConsensusUserBatchProgram::ConsensusUserBatchProgram(
    ConsensusUserBatchProgram&&) noexcept = default;

ConsensusUserBatchProgram::~ConsensusUserBatchProgram() = default;

void ConsensusUserBatchProgram::run(Channel& chan) {
  const std::size_t k = params_.num_classes;
  using Timing = ChannelStepScope::Timing;
  const PackingLayout* packing = params_.packing_or_null();

  std::vector<Lane*> live = all_lanes(lanes_);
  LaneSet set = lane_set(live, lanes_.size(), pool_);

  // ---- Steps 1 + 2 per lane: split the votes into additive shares, offset
  // the threshold streams (paper writes T/(2|U|) per user per side:
  //   S1 stream: a_u[i] - t_a + z1a_u[i]
  //   S2 stream: t_b - b_u[i] - z1b_u[i]),
  // encrypt; then the vote pair and the threshold pair, four frames total.
  {
    ChannelStepScope scope(chan, "Secure Sum (2)", Timing::kUntimed);
    std::vector<MessageWriter> votes_a(set.size()), votes_b(set.size());
    std::vector<MessageWriter> thresh_a(set.size()), thresh_b(set.size());
    for_each_lane(set, [&](std::size_t i) {
      Lane& lane = *live[i];
      const LaneSpan span(set.ctx[i]);
      lane.shares =
          split_vector(lane.inputs.votes_fixed, lane.rng, params_.share_bits);
      std::vector<std::int64_t> ta(k), tb(k);
      for (std::size_t j = 0; j < k; ++j) {
        ta[j] = lane.shares.a[j] - lane.inputs.t_a + lane.inputs.z1a[j];
        tb[j] = lane.inputs.t_b - lane.shares.b[j] - lane.inputs.z1b[j];
      }
      obs::count(obs::Op::kSecureSumSubmit);
      write_ciphertext_vector(
          votes_a[i],
          secure_sum_encrypt_stream(pk2_, lane.shares.a, lane.rng, packing,
                                    lane.pre.bank_s1, lane.pre.powers_pk2));
      write_ciphertext_vector(
          votes_b[i],
          secure_sum_encrypt_stream(pk1_, lane.shares.b, lane.rng, packing,
                                    lane.pre.bank_s2, lane.pre.powers_pk1));
      obs::count(obs::Op::kSecureSumSubmit);
      write_ciphertext_vector(
          thresh_a[i],
          secure_sum_encrypt_stream(pk2_, ta, lane.rng, packing,
                                    lane.pre.bank_s1, lane.pre.powers_pk2));
      write_ciphertext_vector(
          thresh_b[i],
          secure_sum_encrypt_stream(pk1_, tb, lane.rng, packing,
                                    lane.pre.bank_s2, lane.pre.powers_pk1));
    });
    chan.send("S1", pack_lanes(set, votes_a));
    chan.send("S2", pack_lanes(set, votes_b));
    chan.send("S1", pack_lanes(set, thresh_a));
    chan.send("S2", pack_lanes(set, thresh_b));
  }

  // ---- Step 5 verdicts: one bulletin entry per lane, in lane order. -------
  std::vector<Lane*> survivors;
  for (Lane* lane : live) {
    lane->above = chan.await_public() != 0;
    if (lane->above) survivors.push_back(lane);
  }
  live = std::move(survivors);
  if (live.empty()) return;  // every lane ended in ⊥
  set = lane_set(live, lanes_.size(), pool_);

  // ---- Step 6: noisy vote pairs (Report Noisy Maximum), surviving lanes. --
  ChannelStepScope scope(chan, "Secure Sum (6)", Timing::kUntimed);
  std::vector<MessageWriter> noisy_a(set.size()), noisy_b(set.size());
  for_each_lane(set, [&](std::size_t i) {
    Lane& lane = *live[i];
    const LaneSpan span(set.ctx[i]);
    std::vector<std::int64_t> na(k), nb(k);
    for (std::size_t j = 0; j < k; ++j) {
      na[j] = lane.shares.a[j] + lane.inputs.z2a[j];
      nb[j] = lane.shares.b[j] + lane.inputs.z2b[j];
    }
    obs::count(obs::Op::kSecureSumSubmit);
    write_ciphertext_vector(
        noisy_a[i],
        secure_sum_encrypt_stream(pk2_, na, lane.rng, packing,
                                  lane.pre.bank_s1, lane.pre.powers_pk2));
    write_ciphertext_vector(
        noisy_b[i],
        secure_sum_encrypt_stream(pk1_, nb, lane.rng, packing,
                                  lane.pre.bank_s2, lane.pre.powers_pk1));
  });
  chan.send("S1", pack_lanes(set, noisy_a));
  chan.send("S2", pack_lanes(set, noisy_b));
}

}  // namespace pcl
