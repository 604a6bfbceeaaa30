// Span tracer and the thread-local observer binding.
//
// Observability is opt-in per thread: a party thread (or a bench driver)
// installs an ObserverScope naming itself and pointing at a shared
// TraceSink / MetricsRegistry, and from then on every Span opened on that
// thread records a timed, party-attributed event, and every obs::count()
// call lands in the counter block of the innermost open span.  With no
// scope installed — the default for library users who never asked for
// observability — Span construction is two pointer loads plus one atomic
// flag load (the flight recorder's process-wide switch, see obs/flight.h)
// and count() is a load plus a branch; nothing is allocated and no clock
// is read.
//
// The binding is thread_local rather than global so the threaded transport
// works unchanged: five party threads each install their own scope over the
// SAME sink/registry, and the sink's mutex plus the registry's atomic
// counters make concurrent recording safe.  Nothing here ever touches an
// Rng stream, which is what keeps traffic byte-identical under tracing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace pcl::obs {

/// One completed span, in Chrome trace-event terms an "X" event.
struct TraceEvent {
  std::string name;         ///< span label; protocol spans use the step tag
  std::string party;        ///< ObserverScope party name ("S1", "U3", ...)
  std::uint64_t start_ns;   ///< monotonic_time_ns() at open
  std::uint64_t duration_ns;///< close - open
  int depth = 0;            ///< nesting level within this thread, 0 = root
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Thread-safe append-only event buffer shared by all observed threads.
class TraceSink {
 public:
  void record(TraceEvent event);
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// Seconds that `party`'s spans named `name` cover, summed over `events`.
/// A protocol step's span is its only clock: paper Table I sums S1's step
/// spans (ChannelStepScope, net/channel.h) this way.
[[nodiscard]] double span_seconds(const std::vector<TraceEvent>& events,
                                  std::string_view party,
                                  std::string_view name);

namespace detail {

/// Per-thread observer state.  `slot` caches the counter block of the
/// innermost open span so count() is a single relaxed add; Span open/close
/// re-resolves it (one registry mutex acquire per step change).
struct ThreadObserver {
  TraceSink* sink = nullptr;
  MetricsRegistry* metrics = nullptr;
  StepCounters* slot = nullptr;
  const char* party = "";
  int depth = 0;
  Phase phase = Phase::kUnphased;
};

[[nodiscard]] ThreadObserver& tls_observer();

}  // namespace detail

/// Copyable handle on a thread's observer binding, for handing to worker
/// threads that do crypto on behalf of an observed party (the lane-pool
/// fan-out).  The worker installs it with ObserverScope(snapshot); its
/// spans and counters then attribute to the originating party — including
/// the ambient phase, so online fan-out work stays counted as online, and
/// the innermost open step, so a fanned-out decryption counts under the
/// step that asked for it.
struct ObserverSnapshot {
  TraceSink* sink = nullptr;
  MetricsRegistry* metrics = nullptr;
  std::string party;
  Phase phase = Phase::kUnphased;
  StepCounters* step = nullptr;  ///< innermost span's block (null: none)
};

/// Snapshot of the calling thread's current binding (empty when the thread
/// is unobserved — installing that snapshot elsewhere is then a no-op).
[[nodiscard]] ObserverSnapshot current_observer();

/// Binds (sink, metrics, party) to the current thread for its lifetime and
/// restores the previous binding on destruction, so scopes nest (a bench
/// driver observing itself can still run an observed engine inline).
/// Either pointer may be null to enable only tracing or only metrics.
class ObserverScope {
 public:
  ObserverScope(TraceSink* sink, MetricsRegistry* metrics, std::string party,
                Phase phase = Phase::kUnphased);
  explicit ObserverScope(const ObserverSnapshot& snapshot);
  ~ObserverScope();
  ObserverScope(const ObserverScope&) = delete;
  ObserverScope& operator=(const ObserverScope&) = delete;

 private:
  std::string party_;
  detail::ThreadObserver saved_;
};

/// Sets the ambient work phase for the current thread and restores the
/// previous one on destruction.  Spans opened inside the scope record their
/// latency under this phase; ChannelStepScope installs kOnline around
/// protocol steps and precompute streams install kOffline around generation.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Phase saved_;
};

/// The calling thread's ambient phase (kUnphased when never set).
[[nodiscard]] Phase current_phase();

/// RAII timed span.  No-op (no clock read, no allocation) when the current
/// thread has no observer and the flight recorder is off.  `name` must
/// outlive the span; protocol call sites pass the Channel step-tag literal
/// or a string that outlives the scope, which both transports already
/// guarantee.  When a MetricsRegistry is bound, closing also records the
/// span's duration into the (step, phase) latency histogram; when the
/// flight recorder is enabled, closing appends the event (name copied) to
/// the thread's ring.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  StepCounters* saved_slot_ = nullptr;
  Histogram* hist_ = nullptr;
  bool active_ = false;
};

/// Counts `n` occurrences of `op` against the innermost open span's step
/// (or kUnattributedStep when none is open).  Safe to call from anywhere in
/// the library; free when the thread is unobserved.
inline void count(Op op, std::uint64_t n = 1) {
  detail::ThreadObserver& obs = detail::tls_observer();
  if (obs.slot != nullptr) obs.slot->add(op, n);
}

}  // namespace pcl::obs
