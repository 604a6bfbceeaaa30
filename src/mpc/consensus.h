// The Private Consensus Protocol — the paper's core contribution (Alg. 5).
//
// One query labels one public instance.  Users submit additively-shared,
// Paillier-encrypted vote vectors plus locally generated Gaussian noise
// shares; two non-colluding servers then:
//   (2) securely sum the shares (votes, and votes offset by the threshold
//       plus threshold noise),
//   (3) Blind-and-Permute both aggregated sequence pairs under one composed
//       permutation pi unknown to either server,
//   (4) find the position of the highest TRUE vote by pairwise DGK
//       comparisons on permuted shares (paper Eq. 7),
//   (5) test the noisy highest vote against the threshold T in blind
//       (paper Eq. 6; Sparse Vector Technique) — abort with ⊥ on failure,
//   (6) securely sum the per-label NOISY votes (Report Noisy Maximum noise),
//   (7) Blind-and-Permute under a fresh permutation pi',
//   (8) find the noisy argmax position by pairwise DGK comparisons,
//   (9) run Restoration to reveal only the original label index of that
//       noisy argmax.
//
// Nothing else is revealed: not the vote counts, not the ranking of losing
// labels, not the true (pre-noise) argmax.
//
// The per-party protocol logic lives in mpc/consensus_batch.h, whose
// lane-batched programs run every query: a single query is the one-lane
// case.  This class is the query harness: it owns the key material,
// prepares each party's inputs, derives each party a private Rng from one
// query seed, and runs the programs over the chosen transport.  With the
// same seed, the deterministic and threaded schedules of the in-process
// transport produce byte-identical per-step traffic.
//
// Noise placement (see DESIGN.md): every user adds an independent
// N(0, sigma^2 / (2|U|)) component to each of its two share streams, so the
// aggregate threshold noise is exactly N(0, sigma1^2) and each label's
// release noise is exactly N(0, sigma2^2) — matching Alg. 4 and Theorem 5.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/dgk.h"
#include "crypto/precompute_service.h"
#include "mpc/blind_permute.h"
#include "mpc/consensus_batch.h"
#include "net/transport.h"

namespace pcl {

/// Which transport a query runs over.  Results and per-step traffic are
/// identical.  kInProcess and kThreaded both run the parties over one
/// in-process Network: kInProcess under the runner's deterministic baton
/// (the reference shape), kThreaded with every party free on its own OS
/// thread (the deployment shape).  kTcp runs over real loopback TCP
/// sockets (one thread per party; the single-process rehearsal of the
/// pc_party multi-process deployment).
enum class ConsensusTransport { kInProcess, kThreaded, kTcp };

/// How run_batch_seeded executes its queries: a separate one-lane Alg. 5
/// run per query (kSequential), or every query as a concurrent LANE of one
/// protocol execution whose message slots carry all lanes' payloads in a
/// single coalesced frame (kLaneBatched; mpc/consensus_batch.h).  Both
/// modes release identical labels for the same base seed — lane q replays
/// the exact Rng streams of a one-lane run of query q.
enum class BatchMode { kSequential, kLaneBatched };

struct ConsensusConfig {
  std::size_t num_classes = 10;
  std::size_t num_users = 10;
  /// Consensus threshold T as a fraction of |U| (paper default: 0.6).
  double threshold_fraction = 0.6;
  /// Gaussian noise scales in vote-count units (paper's sigma1, sigma2).
  double sigma1 = 10.0;
  double sigma2 = 4.0;
  /// Crypto parameters.  Paillier defaults to the paper's 64-bit prototype.
  std::size_t paillier_bits = 64;
  std::size_t share_bits = 40;
  std::size_t compare_bits = 52;  ///< DGK comparison width (ell)
  DgkParams dgk_params{};
  /// Cost-model fidelity switch.  Alg. 5 step 5 needs exactly ONE DGK
  /// comparison (at position pi(i*)), which is what `false` runs.  The
  /// paper's prototype evidently threshold-checked every one of the K
  /// permuted positions — its Table II reports a comparison/threshold byte
  /// ratio of 4.5 = (K(K-1)/2)/K, not 45 — so `true` reproduces that cost
  /// profile (the decision still comes from pi(i*) alone; the extra
  /// comparisons are discarded).
  bool threshold_check_all_positions = false;
  ArgmaxStrategy argmax_strategy = ArgmaxStrategy::kAllPairs;
  /// Offline/online split (DESIGN.md §15).  `pack_secure_sum` routes every
  /// secure-sum stream and the Blind-and-Permute aggregate slots through
  /// Paillier plaintext packing: the L per-label values ride in
  /// ceil(L / slots_per_ct) ciphertexts, with per-slot headroom for the
  /// num_users + 1 additions a query performs.  Requires share_bits >= 18
  /// (vote magnitudes must clear the packed-value bound; checked at pack
  /// time) and paillier_bits large enough for at least one slot.
  bool pack_secure_sum = false;
  /// Non-null attaches a precompute service: every party draws its
  /// Paillier randomizer powers and DGK blinding powers from per-party
  /// seeded streams registered in the service (see party_precompute), so
  /// filling them before a query (warm_precompute) moves the
  /// exponentiations off the online path.
  /// Pooled mode is a DISTINCT deterministic traffic mode: the same seed
  /// with the same service wiring replays byte-identically warm or cold,
  /// but pooled and unpooled runs of one seed differ (encryption draws
  /// move from the party Rng to the stream Rngs).
  PrecomputeService* precompute = nullptr;
};

/// A long-lived protocol instance: key material is generated once and reused
/// across queries; each query draws fresh permutations, masks and noise.
class ConsensusProtocol {
 public:
  ConsensusProtocol(const ConsensusConfig& config, Rng& keygen_rng);

  struct QueryResult {
    /// Released label, or nullopt for the paper's ⊥ (no consensus).
    std::optional<int> label;
  };

  /// Runs one full Alg. 5 query.  `user_votes[u]` is user u's prediction
  /// vector (one-hot or softmax, length num_classes); noise is drawn
  /// exactly as the distributed mechanism prescribes, and the query seed is
  /// drawn from `rng`.
  [[nodiscard]] QueryResult run_query(
      const std::vector<std::vector<double>>& user_votes, Rng& rng);

  /// Fully seeded variant: every party's Rng (and the noise) derives from
  /// `seed`, so the same seed replays the identical query — including
  /// byte-identical per-step traffic — on every transport.
  [[nodiscard]] QueryResult run_query_seeded(
      const std::vector<std::vector<double>>& user_votes, std::uint64_t seed,
      ConsensusTransport transport = ConsensusTransport::kInProcess);

  /// Runs exactly ONE party of a seeded query over a caller-supplied
  /// channel — the multi-process deployment entry point (tools/pc_party):
  /// every process is handed the same (votes, seed) replay spec, derives
  /// the identical noise plan and per-party Rng streams as
  /// run_query_seeded, and executes only `party`'s program; the transport
  /// (real sockets) carries everything else.  Returns the released label
  /// for a server (nullopt = the paper's ⊥); always nullopt for a user.
  [[nodiscard]] std::optional<int> run_party_seeded(
      const std::string& party,
      const std::vector<std::vector<double>>& user_votes, std::uint64_t seed,
      Channel& chan) const;

  /// One admitted session of a multi-session daemon (net/session/): session
  /// `ctx.id` with session seed `ctx.seed`.  The seed is the ONLY protocol
  /// input the session id contributes nothing to — session s must replay an
  /// isolated run_query_seeded(votes, ctx.seed) byte for byte, whatever id
  /// the server assigned it.  The id exists for observability: the span
  /// every artifact of this session files under.
  struct SessionContext {
    std::uint32_t id = 0;
    std::uint64_t seed = 0;
  };
  [[nodiscard]] std::optional<int> run_party_session(
      const std::string& party,
      const std::vector<std::vector<double>>& user_votes,
      const SessionContext& ctx, Channel& chan) const;

  /// Labels a batch of instances (the paper evaluates 1000 per run); one
  /// independent Alg. 5 execution per instance, fresh permutations, masks
  /// and noise each.  votes_per_instance[q][u] is user u's vote vector for
  /// instance q.
  [[nodiscard]] std::vector<QueryResult> run_batch(
      const std::vector<std::vector<std::vector<double>>>& votes_per_instance,
      Rng& rng);

  /// Seeded batch: query q runs with lane seed derive_party_seed(base_seed,
  /// q), so per-query labels are independent of mode and transport.
  /// kLaneBatched runs all queries as concurrent lanes of ONE protocol
  /// execution — O(L·ell) communication rounds instead of O(Q·L·ell) —
  /// fanning each frame's per-lane crypto over the shared LanePool.
  [[nodiscard]] std::vector<QueryResult> run_batch_seeded(
      const std::vector<std::vector<std::vector<double>>>& votes_per_instance,
      std::uint64_t base_seed,
      ConsensusTransport transport = ConsensusTransport::kInProcess,
      BatchMode mode = BatchMode::kLaneBatched);

  /// Test hook: runs the protocol with externally fixed TOTAL noise — the
  /// threshold test sees `threshold_noise` and label i's count is perturbed
  /// by `release_noise[i]`.  Used to verify bit-exact agreement with the
  /// plaintext Alg. 4 oracle under identical randomness.
  [[nodiscard]] QueryResult run_query_with_noise(
      const std::vector<std::vector<double>>& user_votes,
      double threshold_noise, std::span<const double> release_noise, Rng& rng);

  /// Seeded variant of the fixed-noise hook (see run_query_seeded).
  [[nodiscard]] QueryResult run_query_with_noise_seeded(
      const std::vector<std::vector<double>>& user_votes,
      double threshold_noise, std::span<const double> release_noise,
      std::uint64_t seed,
      ConsensusTransport transport = ConsensusTransport::kInProcess);

  /// Resolves (registering on first use) `party`'s precompute stream
  /// handles for the query seed, using the canonical derivation: with
  /// party_seed = derive_party_seed(seed, party_index), the pk1 power
  /// stream is seeded derive_party_seed(party_seed, 0), the pk2 stream
  /// derive_party_seed(party_seed, 1) and the DGK stream
  /// derive_party_seed(party_seed, 2).  Servers get both Paillier streams
  /// plus the DGK stream; users get the two Paillier streams they submit
  /// under.  Public so daemons and benches can pre-register an upcoming
  /// session's streams and fill them before the online phase; returns an
  /// empty handle set when config().precompute is null.
  [[nodiscard]] PartyPrecompute party_precompute(const std::string& party,
                                                 std::uint64_t seed) const;

  /// Every party's per-stream draws in one released query, keyed by party
  /// name ("S1", "S2", "user:<u>").  Measured by running one cold
  /// in-process query on a scratch service over these keys, with a
  /// threshold noise above T so the query takes the released path; a ⊥
  /// query draws a prefix of the same streams.  The counts depend on the
  /// configuration only, not on the seed or the votes.
  [[nodiscard]] std::map<std::string, PrecomputeDemand> precompute_demand()
      const;

  /// The offline phase of one query: registers `party`'s streams for query
  /// `seed` and generates exactly `demand` on each, so a released query
  /// with that seed draws every power ready and leaves none over.  Returns
  /// the number of powers generated; 0 when config().precompute is null.
  std::uint64_t warm_precompute(const std::string& party, std::uint64_t seed,
                                const PrecomputeDemand& demand) const;

  /// Per-step traffic, accumulated over all queries since the last clear();
  /// step labels match the paper's Table II.  Per-step time (Table I) is
  /// read from the step spans of an attached tracer (set_observer).
  [[nodiscard]] TrafficStats& stats() { return stats_; }
  [[nodiscard]] const ConsensusConfig& config() const { return config_; }
  /// The threshold T in vote-count units.
  [[nodiscard]] double threshold_votes() const;

  /// Test hook: capture per-message transcripts (metadata only) of each
  /// query; used by the traffic-analysis tests to verify that message
  /// counts and sizes are independent of the secret votes.  Only the
  /// in-process transport records transcripts.
  void set_transcript_capture(bool enable) { capture_transcript_ = enable; }
  [[nodiscard]] const std::vector<TranscriptEntry>& last_transcript() const {
    return last_transcript_;
  }

  /// Attaches an observer to subsequent queries: every party thread records
  /// step spans into `trace` and crypto-op counters into `metrics` (either
  /// may be null).  Passive — attaching never changes protocol traffic.
  void set_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics) {
    trace_ = trace;
    metrics_ = metrics;
  }

 private:
  struct NoisePlan {
    // Per-user, per-class fixed-point noise components for each stream.
    std::vector<std::vector<std::int64_t>> z1a, z1b;  // threshold noise
    std::vector<std::vector<std::int64_t>> z2a, z2b;  // release noise
  };
  /// Everything derived from the vote vectors before any party runs:
  /// validated fixed-point votes, the per-user threshold offsets, and the
  /// query params every program shares.  One definition serves both the
  /// all-party harness (run_lanes) and the single-party deployment entry
  /// point (run_party_seeded), so they cannot drift.
  struct QueryPlan {
    ConsensusQueryParams params;
    std::vector<std::vector<std::int64_t>> votes_fixed;
    std::vector<std::int64_t> t_a, t_b;
  };
  /// A protocol over `keys_of`'s configuration and keys that draws from
  /// `precompute` instead (precompute_demand's scratch run).
  ConsensusProtocol(const ConsensusProtocol& keys_of,
                    PrecomputeService* precompute);
  [[nodiscard]] QueryPlan make_plan(
      const std::vector<std::vector<double>>& user_votes) const;
  [[nodiscard]] NoisePlan draw_noise(Rng& rng) const;
  [[nodiscard]] NoisePlan injected_noise(
      double threshold_noise, std::span<const double> release_noise) const;
  /// `party`'s index in the derive_party_seed order: S1 = 0, S2 = 1,
  /// user u = 2 + u.  Throws std::invalid_argument for a party this query
  /// does not have.
  [[nodiscard]] std::size_t party_index(const std::string& party) const;
  /// User u's inputs for one lane; moves the votes out of `plan`.
  [[nodiscard]] static ConsensusUserBatchProgram::Inputs user_inputs(
      QueryPlan& plan, const NoisePlan& noise, std::size_t u);
  /// One query as the one-lane case of run_lanes.
  [[nodiscard]] QueryResult run_internal(
      const std::vector<std::vector<double>>& user_votes,
      const NoisePlan& noise, std::uint64_t seed,
      ConsensusTransport transport);
  /// Runs lane q — plans[q], noises[q], lane seed lane_seeds[q] — as a lane
  /// of ONE Alg. 5 execution of every party over `transport`, under a
  /// harness span named `span_name`.
  [[nodiscard]] std::vector<QueryResult> run_lanes(
      std::vector<QueryPlan> plans, const std::vector<NoisePlan>& noises,
      const std::vector<std::uint64_t>& lane_seeds,
      ConsensusTransport transport, const char* span_name);

  ConsensusConfig config_;
  ServerPaillierKeys paillier_;
  DgkKeyPair dgk_;
  TrafficStats stats_;
  bool capture_transcript_ = false;
  std::vector<TranscriptEntry> last_transcript_;
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace pcl
