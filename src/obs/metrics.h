// Crypto-operation counters, attributed to protocol steps.
//
// The paper's cost story (Tables I/II) is "modexps dominate compute, DGK
// bit-rounds dominate communication"; the MetricsRegistry makes that claim
// measurable on any run.  Instrumented code calls `obs::count(Op)` at the
// site of the operation (bigint modexp/modmul, Paillier and DGK primitives,
// the MPC round structure); counts land in the registry bound to the
// current thread by an ObserverScope (see obs/trace.h), bucketed under the
// innermost Span's name — which, inside a protocol run, is exactly the
// Channel step tag ("Secure Sum (2)" … "Restoration (9)", PROTOCOL.md).
//
// Cost model: with no registry bound the hook is one thread-local load and
// a branch.  With a registry bound, an increment is one relaxed atomic add
// into a per-step slot that was resolved once at span entry, so counters
// are safe (and cheap) on the threaded transport where all parties share
// one registry.  Counting never touches an Rng stream, so traffic stays
// byte-identical with metrics attached.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace pcl::obs {

/// Instrumented operations.  Protocol-level ops (compare, rounds, release)
/// are counted by exactly ONE party role so a shared registry never
/// double-counts — mirroring "exactly one party times a step".
enum class Op : unsigned {
  kBigIntModExp,       ///< BigInt::pow_mod entry
  kBigIntModMul,       ///< Montgomery REDC / fallback modular multiply
  kPaillierEncrypt,    ///< PaillierPublicKey::encrypt*
  kPaillierDecrypt,    ///< PaillierPrivateKey::decrypt_raw
  kPaillierAdd,        ///< homomorphic add (ciphertext multiply)
  kPaillierScalarMul,  ///< homomorphic scalar multiply (incl. negate)
  kDgkEncrypt,         ///< DgkPublicKey::encrypt
  kDgkZeroTest,        ///< DgkPrivateKey::is_zero
  kDgkCompare,         ///< one full comparison (counted by the S1 role)
  kDgkCompareBit,      ///< one encrypted comparison bit (S2 role)
  kSecureSumSubmit,    ///< one user's share-vector submission
  kSecureSumCollect,   ///< one server-side aggregation round
  kBlindPermuteRound,  ///< one BnP sequence (S1 role)
  kRestorationReveal,  ///< one Restoration reveal (S1 role)
  kNoisyMaxRelease,    ///< one released noisy-max label (S1 role)
  // Offline/online split (DESIGN.md §15): a precompute pool or stream was
  // asked for material it did not have ready, so the value was generated
  // inline on the online path.  Bytes are unaffected (the fallback replays
  // the same Rng position); only latency attribution shifts.
  kPoolMiss,  ///< pool/stream exhausted; fell through to inline generation
};

inline constexpr std::size_t kNumOps = 16;

/// Stable machine-readable name ("bigint.modexp", "paillier.encrypt", ...);
/// these are the keys used by the trace / bench JSON schemas.
[[nodiscard]] const char* op_name(Op op);

/// One step's counter block.  Address-stable for the registry's lifetime so
/// threads may cache the pointer across increments.
class StepCounters {
 public:
  void add(Op op, std::uint64_t n) {
    counts_[static_cast<std::size_t>(op)].fetch_add(
        n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t get(Op op) const {
    return counts_[static_cast<std::size_t>(op)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumOps> counts_{};
};

/// Label used for counts recorded while no Span is open (e.g. party setup
/// work before the first step scope).
inline constexpr const char* kUnattributedStep = "(unattributed)";

class MetricsRegistry {
 public:
  /// The counter block for `step`, created on first use.  The returned
  /// reference stays valid (and its address stable) until the registry is
  /// destroyed; clear() zeroes counts without invalidating it.
  [[nodiscard]] StepCounters& counters_for(const std::string& step);

  struct Entry {
    std::string step;
    Op op = Op::kBigIntModExp;
    std::uint64_t count = 0;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  /// Non-zero counters in deterministic (step, op) order.
  [[nodiscard]] std::vector<Entry> entries() const;
  /// Sum of one op across all steps.
  [[nodiscard]] std::uint64_t total(Op op) const;

  /// The latency histogram for (step, phase), created on first use.  Same
  /// address-stability contract as counters_for(): Span caches the pointer
  /// over its lifetime, and concurrent record() calls are safe.
  [[nodiscard]] Histogram& latency_for(const std::string& step, Phase phase);

  struct LatencyEntry {
    std::string step;
    Phase phase = Phase::kUnphased;
    HistogramSnapshot hist;
    friend bool operator==(const LatencyEntry&, const LatencyEntry&) = default;
  };
  /// Non-empty latency histograms in deterministic (step, phase) order.
  [[nodiscard]] std::vector<LatencyEntry> latencies() const;

  /// Zeroes every counter and histogram; existing StepCounters / Histogram
  /// pointers remain valid.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<StepCounters>> steps_;
  std::map<std::string, std::array<std::unique_ptr<Histogram>, kNumPhases>>
      latency_;
};

}  // namespace pcl::obs
