// Lane-batched execution of the Private Consensus Protocol (paper Alg. 5).
// These are the ONLY Alg. 5 party programs: a single query is the Q = 1
// case of a batch (Q = the number of queries run as lanes of one
// execution).
//
// A sequential batch of Q queries pays Alg. 5's round count Q times: every
// DGK comparison is three server-to-server messages, every BnP round six,
// and on the threaded/TCP transports each message is a thread handoff or a
// socket round trip.  The lane-batched programs below run Q *concurrent*
// queries ("lanes") through ONE protocol execution: at every message slot
// of Alg. 5 the sender coalesces all live lanes' payloads into a single
// frame (lane count + one length-prefixed sub-message per lane, in lane
// order), so the round count drops from O(Q · L · ell) to O(L · ell) while
// the bytes stay Q times the sequential per-query bytes.
//
// Two rules, both keyed on the lane count Q a program is built with, make a
// one-lane run exactly the paper's single query:
//   - at Q = 1 frames carry no lane envelope (no lane count, no length
//     prefix): each frame is the lane's sub-message itself, the
//     paper-shaped wire of Table II;
//   - at Q = 1 no "lane:<q>" span opens, so op counts and trace spans stay
//     attributed to the step spans.
// At Q > 1 every frame keeps the envelope, even once step-5 drop-out has
// left a single live lane.
//
// Per-lane equivalence is exact, not statistical: lane q runs with the same
// party Rng streams a one-lane run of query q would use (the harness
// derives lane_seed = derive_party_seed(base_seed, q) and hands each party
// its derive_party_seed(lane_seed, party_index) stream), and each program
// performs lane q's crypto in the one-lane order.  The released labels —
// and each lane's sub-message bytes — are therefore identical to Q
// independent run_query_seeded calls on those seeds (asserted by
// consensus_batch_test).
//
// Lanes are independent after the frame split, so the per-lane crypto fans
// out over a LanePool (shared worker threads + the submitting party
// thread).  Each lane's work runs inside an obs::Span named "lane:<q>", so
// a metrics registry attributes per-lane op counts and a trace shows the
// fan-out; the pool re-installs the submitting party's observer binding on
// its workers, keeping party attribution intact.
//
// The step-5 verdict is per-lane public output: S1 posts one bulletin entry
// per lane in lane order, and every consumer walks the bulletin log through
// its own cursor.  Lanes below threshold drop out (the paper's ⊥); later
// frames carry only the surviving lanes, still in lane order.
//
// Roles: S1 collects share aggregates, runs its side of Blind-and-Permute,
// DGK comparison and Restoration, posts the step-5 verdicts and times every
// step (the only party that does, so step times are not double-counted);
// S2 is the mirror image and holds the DGK private key; a user submits its
// share vectors for steps 2 and 6 and reads the verdicts off the bulletin.
// Users never receive a direct message from either server (paper model;
// enforced by the transcript tests).
//
// See DESIGN.md §10 for the architecture discussion.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/dgk.h"
#include "crypto/packing.h"
#include "mpc/blind_permute.h"
#include "mpc/party_precompute.h"
#include "net/channel.h"

namespace pcl {

class LanePool;

/// How steps (4)/(8) locate the maximum among the K permuted positions.
enum class ArgmaxStrategy {
  /// The paper's reading of Alg. 5 ("for each pair i, j"): all K(K-1)/2
  /// pairwise comparisons.  This is what makes secure comparison dominate
  /// Tables I and II.
  kAllPairs,
  /// Sequential-champion tournament: K-1 comparisons, provably the same
  /// winner (comparisons are consistent — they reflect the true counts).
  /// Cuts the dominant cost ~K/2-fold; see bench_ablation_argmax.
  kTournament,
};

/// The public, query-wide parameters every party agrees on up front.
struct ConsensusQueryParams {
  std::size_t num_classes = 0;
  std::size_t num_users = 0;
  std::size_t share_bits = 0;
  std::size_t compare_bits = 0;
  bool threshold_check_all_positions = false;
  ArgmaxStrategy argmax_strategy = ArgmaxStrategy::kAllPairs;
  /// Packed secure-sum lanes (DESIGN.md §15): when true, every user share
  /// vector and both servers' aggregates ride in `packing.num_cts`
  /// ciphertexts instead of num_classes, and Blind-and-Permute runs its
  /// packed slot-1/2/3 flow.  The layout is public query geometry.
  bool packed = false;
  PackingLayout packing;

  /// The layout pointer the sub-protocols expect: null in unpacked mode.
  [[nodiscard]] const PackingLayout* packing_or_null() const {
    return packed ? &packing : nullptr;
  }
};

/// Server S1's program for one lane-batched run of Q concurrent queries.
/// `lane_seeds[q]` seeds lane q's private Rng stream (the harness passes
/// derive_party_seed(derive_party_seed(base_seed, q), 0)); `pool` may be
/// null to run every lane on the party thread.  `lane_pre` (empty, or one
/// handle set per lane) attaches lane q's precompute streams — the same
/// streams a one-lane pooled run of that lane's seed would use, which is
/// what keeps pooled batch == pooled sequential byte-identical.  `own` is
/// S1's Paillier pair, `peer_pk` S2's public key, `dgk_pk` the (public) DGK
/// key owned by S2.
class ConsensusS1BatchProgram {
 public:
  ConsensusS1BatchProgram(const ConsensusQueryParams& params,
                          const PaillierKeyPair& own,
                          const PaillierPublicKey& peer_pk,
                          const DgkPublicKey& dgk_pk,
                          const std::vector<std::uint64_t>& lane_seeds,
                          LanePool* pool = nullptr,
                          std::vector<PartyPrecompute> lane_pre = {});
  ~ConsensusS1BatchProgram();

  /// Returns per-lane released label indices, nullopt for the paper's ⊥.
  [[nodiscard]] std::vector<std::optional<std::size_t>> run(Channel& chan);

 private:
  struct Lane;

  const ConsensusQueryParams& params_;
  const PaillierKeyPair& own_;
  const PaillierPublicKey& peer_pk_;
  const DgkPublicKey& dgk_pk_;
  LanePool* pool_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Server S2's program; the mirror image, holding the DGK private key
/// (`dgk` is the full pair).
class ConsensusS2BatchProgram {
 public:
  ConsensusS2BatchProgram(const ConsensusQueryParams& params,
                          const PaillierKeyPair& own,
                          const PaillierPublicKey& peer_pk,
                          const DgkKeyPair& dgk,
                          const std::vector<std::uint64_t>& lane_seeds,
                          LanePool* pool = nullptr,
                          std::vector<PartyPrecompute> lane_pre = {});
  ~ConsensusS2BatchProgram();

  [[nodiscard]] std::vector<std::optional<std::size_t>> run(Channel& chan);

 private:
  struct Lane;

  const ConsensusQueryParams& params_;
  const PaillierKeyPair& own_;
  const PaillierPublicKey& peer_pk_;
  const DgkKeyPair& dgk_;
  LanePool* pool_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// One user's program for Q lanes: per-lane inputs, submitted as coalesced
/// frames.
class ConsensusUserBatchProgram {
 public:
  /// One lane's fixed-point vote vector plus this user's noise components
  /// and threshold offsets, all prepared before the query starts.
  struct Inputs {
    std::vector<std::int64_t> votes_fixed;  ///< encode_fixed votes, length K
    std::int64_t t_a = 0;  ///< this user's a-side threshold offset
    std::int64_t t_b = 0;  ///< this user's b-side threshold offset
    std::vector<std::int64_t> z1a, z1b;  ///< threshold-noise components
    std::vector<std::int64_t> z2a, z2b;  ///< release-noise components
  };

  /// `pk1`/`pk2` are the servers' public keys: S2-bound shares travel under
  /// pk1 and S1-bound shares under pk2, so neither server can decrypt what
  /// it aggregates.
  ConsensusUserBatchProgram(const ConsensusQueryParams& params,
                            std::vector<Inputs> lane_inputs,
                            const PaillierPublicKey& pk1,
                            const PaillierPublicKey& pk2,
                            const std::vector<std::uint64_t>& lane_seeds,
                            LanePool* pool = nullptr,
                            std::vector<PartyPrecompute> lane_pre = {});
  ConsensusUserBatchProgram(ConsensusUserBatchProgram&&) noexcept;
  ~ConsensusUserBatchProgram();

  void run(Channel& chan);

 private:
  struct Lane;

  const ConsensusQueryParams& params_;
  const PaillierPublicKey& pk1_;
  const PaillierPublicKey& pk2_;
  LanePool* pool_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace pcl
