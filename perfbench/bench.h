// pc-bench: shared types of the end-to-end and per-layer benchmark.
//
// One run drives one workload for a fixed number of seconds from one
// process and reports either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).  The workloads (workloads.cpp) turn
// requests into Pass records; pc_bench.cpp turns passes into metrics,
// checks them and files them; the layer probes (probes.cpp) time single
// public calls at the workload's own widths.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpc/consensus.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace pcbench {

using Votes = std::vector<std::vector<double>>;

/// How a workload turns a request into protocol work.
enum class Kind {
  kBatch,  ///< one lane-batched run_batch_seeded per request (threaded)
  kServe,  ///< one daemon session per request over loopback TCP
  kSplit,  ///< offline precompute of the request's streams, then kBatch
};

struct Workload {
  std::string name;
  std::string profile;  ///< "paper" or "deployment" key sizes
  Kind kind = Kind::kBatch;
  pcl::ConsensusConfig config;
  std::size_t lanes = 1;  ///< queries per request
  /// Labels replayed against the reference per run (all when fewer).
  std::size_t reference_sample = 8;
  /// Every contested query (see make_query) returns ⊥ and every other one
  /// releases: the request's base seed is redrawn until the reference
  /// replay agrees, so the work per request does not depend on --seed.
  bool fixed_mix = false;
  /// Key sets generated per set-up round (PassLimit::setups).
  std::size_t setup_round = 1;
  std::string why;
};

[[nodiscard]] const std::vector<Workload>& all_workloads();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// The sequential in-process reference: the workload's parameters at the
/// paper's key sizes, unpooled.  Its labels are the ones every run must
/// release (labels depend on neither key size, transport, mode, packing
/// nor pool warmth).
[[nodiscard]] std::unique_ptr<pcl::ConsensusProtocol> make_reference(
    const Workload& w);

/// Query `index` of the run seeded `seed`: one majority label; every fourth
/// query is contested (odd-numbered users vote at random).
[[nodiscard]] Votes make_query(const Workload& w, std::uint64_t seed,
                               std::uint64_t index);

/// S1's step tags, in Alg. 5 order, with the metric suffix of each.
struct StepTag {
  const char* metric;
  const char* tag;
};
inline constexpr StepTag kSteps[] = {
    {"secure_sum_2", "Secure Sum (2)"},
    {"bnp_3", "Blind-and-Permute (3)"},
    {"compare_4", "Secure Comparison (4)"},
    {"threshold_5", "Threshold Checking (5)"},
    {"secure_sum_6", "Secure Sum (6)"},
    {"bnp_7", "Blind-and-Permute (7)"},
    {"compare_8", "Secure Comparison (8)"},
    {"restore_9", "Restoration (9)"},
};
struct RequestRecord {
  std::uint64_t index = 0;
  /// Lane q ran with derive_party_seed(base_seed, q), exactly as
  /// run_batch_seeded derives it (serve: the session seed is lane 0's).
  std::uint64_t base_seed = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool failed = false;
  std::string error;
  /// Released label per lane (nullopt = the paper's ⊥).
  std::vector<std::optional<int>> labels;
  /// serve only: S1 admission, S1 callback start and S1 run time.
  std::uint64_t s1_opened_ns = 0;
  std::uint64_t s1_start_ns = 0;
  std::uint64_t s1_run_ns = 0;
  /// Traced passes: S1's Alg. 5 step spans of this request.
  std::vector<pcl::obs::TraceEvent> s1_steps;

  [[nodiscard]] double wall_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

/// Everything one pass of requests leaves behind.
struct Pass {
  std::vector<RequestRecord> requests;  ///< in request-index order
  double wall_s = 0.0;  ///< timed wall (online phases only for kSplit)
  double cpu_s = 0.0;   ///< getrusage user+system over the timed wall
  double offline_s = 0.0;
  std::uint64_t offline_items = 0;
  std::uint64_t pool_hits = 0, pool_misses = 0, pool_generated = 0;
  std::uint64_t bytes = 0, messages = 0;
  pcl::obs::TrafficByStep traffic;  ///< the same traffic, per step
  std::vector<pcl::obs::TraceEvent> events;  ///< traced passes only
  std::map<std::string, std::uint64_t> ops;  ///< traced passes only
  /// Set-ups timed between requests (PassLimit::setups), so the set-up
  /// median samples the whole pass rather than one moment of it.
  std::vector<double> setup_s;

  [[nodiscard]] std::size_t queries() const;
  [[nodiscard]] std::size_t failed() const;
  [[nodiscard]] std::size_t released() const;
};

/// How long a pass runs: until `seconds` of wall have elapsed (then the
/// request in flight completes), or exactly `count` requests.  With
/// `setups`, a batch workload times set-up rounds between requests (see
/// Pass::setup_s).
struct PassLimit {
  double seconds = 0.0;
  std::size_t count = 0;
  bool setups = false;
};

/// One workload's live system: keys, daemons, precompute.  Created by
/// make_system(), which times one full set-up (several when `repeat`); the
/// first runs the requests.
class System {
 public:
  virtual ~System() = default;
  /// Untimed requests that fill caches (and, for kSplit, learn the
  /// per-stream offline demand).
  virtual void warm_up() = 0;
  /// Runs requests first_request, first_request + 1, ... until `limit`.
  /// A traced pass records the program's spans and counters, plus the
  /// benchmark's own spans in `bench_sink`.
  virtual Pass run(std::uint64_t first_request, const PassLimit& limit,
                   bool traced, pcl::obs::TraceSink* bench_sink) = 0;
};

struct SetupResult {
  std::unique_ptr<System> system;
  /// The other timed set-ups.  Tear them down only once the warm-up is
  /// over: EventLoop::run() clears its stop flag on entry, so stopping a
  /// reactor whose thread has not yet entered run() hangs its join.
  std::vector<std::unique_ptr<System>> spares;
  std::vector<double> setup_s;  ///< one entry per timed set-up
};

[[nodiscard]] SetupResult make_system(const Workload& w, std::uint64_t seed,
                                      bool repeat);

/// Binds the benchmark's own spans ("request", "offline", "verify",
/// "probe.*") on this thread to `sink`; no-op when `sink` is null.
class BenchScope {
 public:
  explicit BenchScope(pcl::obs::TraceSink* sink) {
    if (sink != nullptr) scope_.emplace(sink, nullptr, "bench");
  }

 private:
  std::optional<pcl::obs::ObserverScope> scope_;
};

// ---- Layer probes (probes.cpp) ------------------------------------------

/// Unit costs timed on keys generated with the workload's parameters; the
/// name -> value map uses the per-layer metric names.
[[nodiscard]] std::map<std::string, double> run_probes(const Workload& w);

// ---- Statistics (stats.cpp) --------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// The highest percentile with at least 10 samples beyond it; nullopt
/// under 20 samples (the tail would sit below the median).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] std::optional<Tail> tail(std::vector<double> v);

[[nodiscard]] std::uint64_t now_ns();
/// Process user+system CPU seconds so far.
[[nodiscard]] double cpu_seconds();
/// Process maximum resident set size so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace pcbench
