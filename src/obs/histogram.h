// Lock-free log-linear latency histograms and the online/offline phase
// dimension (telemetry v2).
//
// The ROADMAP's next perf items (offline/online phase split, async
// multi-session serving, teacher scale-out) all gate on latency
// *distributions*, not averages: "what is the p99 step latency" must be
// answerable on a live run without post-processing a trace file.  The
// Histogram here is HDR-style: a fixed array of atomic buckets whose widths
// grow geometrically (3 significant bits, so every bucket is at most 12.5%
// wide), giving bounded relative error on any percentile over the full
// uint64 nanosecond range with zero allocation and no locks on the record
// path.  Histograms are mergeable bucket-wise, so per-process and
// per-session distributions fuse exactly like the trace files do.
//
// The Phase dimension tags every recorded duration as protocol-online work
// (between a query arriving and its label releasing), offline precompute
// (input-independent crypto that a deployment would run during idle time),
// or unphased (everything else).  ChannelStepScope marks protocol steps
// online; precompute streams mark their generation offline — which is
// exactly the split ROADMAP item 2's bench gate needs to report.
//
// Recording never touches an Rng stream or any channel, preserving the
// PR 3 invariant that instrumentation does not perturb traffic.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pcl::obs {

/// Work-phase attribution for latency samples.  kOnline is the query
/// critical path; kOffline is input-independent precompute; kUnphased is
/// everything not explicitly attributed.
enum class Phase : unsigned {
  kUnphased = 0,
  kOffline = 1,
  kOnline = 2,
};

inline constexpr std::size_t kNumPhases = 3;

/// Stable machine-readable phase name ("unphased", "offline", "online");
/// these are the keys used by the pc-metrics-v1 schema.
[[nodiscard]] const char* phase_name(Phase phase);

/// Immutable copy of a histogram's state, safe to aggregate and query off
/// the hot path.  Percentiles resolve to the lower bound of the bucket
/// containing the requested rank (a <= 12.5% underestimate by
/// construction), clamped into [min, max]; max() itself is exact.
struct HistogramSnapshot {
  /// 3 significant bits: 8 linear sub-buckets per power of two.
  static constexpr std::size_t kSubBuckets = 8;
  /// Groups 0..61 cover [0, 2^63); indices are dense, see bucket_index.
  static constexpr std::size_t kNumBuckets = 62 * kSubBuckets;

  std::array<std::uint64_t, kNumBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< exact smallest recorded value (0 when empty)
  std::uint64_t max = 0;  ///< exact largest recorded value (0 when empty)

  /// Bucket index for a value: values < 8 map to their own unit buckets;
  /// larger values keep their top 3 significant bits.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value);
  /// Smallest value mapping to bucket `index` (closed-form; unit-tested
  /// against bucket_index round trips).
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t index);

  /// Value at percentile `p` in [0, 100]; 0 when the histogram is empty.
  [[nodiscard]] std::uint64_t percentile(double p) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Bucket-wise merge; min/max/count/sum combine exactly.
  void merge(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Concurrent fixed-footprint histogram.  record() is wait-free (relaxed
/// atomic adds plus bounded CAS loops for min/max); readers take a
/// snapshot() and do all percentile math on the copy.  Address-stable for
/// the owning registry's lifetime, so hot paths may cache the pointer.
class Histogram {
 public:
  void record(std::uint64_t value);

  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Zeroes every cell.  Not linearizable against concurrent record()
  /// calls (a racing sample may survive or vanish) — mirrors
  /// MetricsRegistry::clear()'s contract.
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kNumBuckets>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace pcl::obs
