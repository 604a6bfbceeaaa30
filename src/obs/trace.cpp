#include "obs/trace.h"

#include <utility>

#include "obs/flight.h"

namespace pcl::obs {

void TraceSink::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceSink::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t TraceSink::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceSink::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

double span_seconds(const std::vector<TraceEvent>& events,
                    std::string_view party, std::string_view name) {
  std::uint64_t total_ns = 0;
  for (const TraceEvent& e : events) {
    if (e.party == party && e.name == name) total_ns += e.duration_ns;
  }
  return static_cast<double>(total_ns) / 1e9;
}

namespace detail {

ThreadObserver& tls_observer() {
  thread_local ThreadObserver observer;
  return observer;
}

}  // namespace detail

ObserverSnapshot current_observer() {
  const detail::ThreadObserver& obs = detail::tls_observer();
  return {obs.sink, obs.metrics, obs.party, obs.phase, obs.slot};
}

ObserverScope::ObserverScope(TraceSink* sink, MetricsRegistry* metrics,
                             std::string party, Phase phase)
    : party_(std::move(party)), saved_(detail::tls_observer()) {
  detail::ThreadObserver& obs = detail::tls_observer();
  obs.sink = sink;
  obs.metrics = metrics;
  obs.slot = metrics != nullptr
                 ? &metrics->counters_for(kUnattributedStep)
                 : nullptr;
  obs.party = party_.c_str();
  obs.depth = 0;
  obs.phase = phase;
}

ObserverScope::ObserverScope(const ObserverSnapshot& snapshot)
    : ObserverScope(snapshot.sink, snapshot.metrics, snapshot.party,
                    snapshot.phase) {
  if (snapshot.step != nullptr) detail::tls_observer().slot = snapshot.step;
}

ObserverScope::~ObserverScope() { detail::tls_observer() = saved_; }

PhaseScope::PhaseScope(Phase phase) : saved_(detail::tls_observer().phase) {
  detail::tls_observer().phase = phase;
}

PhaseScope::~PhaseScope() { detail::tls_observer().phase = saved_; }

Phase current_phase() { return detail::tls_observer().phase; }

Span::Span(const char* name) : name_(name) {
  detail::ThreadObserver& obs = detail::tls_observer();
  if (obs.sink == nullptr && obs.metrics == nullptr &&
      !FlightRecorder::enabled()) {
    return;
  }
  active_ = true;
  saved_slot_ = obs.slot;
  if (obs.metrics != nullptr) {
    obs.slot = &obs.metrics->counters_for(name_);
    hist_ = &obs.metrics->latency_for(name_, obs.phase);
  }
  ++obs.depth;
  start_ns_ = monotonic_time_ns();
}

Span::~Span() {
  if (!active_) return;
  detail::ThreadObserver& obs = detail::tls_observer();
  --obs.depth;
  const std::uint64_t duration_ns = monotonic_time_ns() - start_ns_;
  if (obs.sink != nullptr) {
    obs.sink->record(
        TraceEvent{name_, obs.party, start_ns_, duration_ns, obs.depth});
  }
  if (hist_ != nullptr) hist_->record(duration_ns);
  FlightRecorder::record(name_, obs.party, start_ns_, duration_ns, obs.depth);
  obs.slot = saved_slot_;
}

}  // namespace pcl::obs
