// SessionManager — admission control, per-session lifecycle, and teardown.
//
// The daemon's unit of work is a SESSION: one seeded protocol execution,
// admitted by the client's SESSION_OPEN, run as one task on a bounded FIFO
// worker pool, and torn down individually.  Sessions are the COARSE
// concurrency unit (the pool schedules whole sessions); intra-session
// parallelism stays where PR 7 put it, in the LanePool inside the party
// program.  FIFO matters for liveness: with FIFO pools on every daemon and
// whole-session tasks on the client, the earliest unfinished session heads
// every queue, so some session always has all its parties scheduled and the
// system cannot deadlock on pool capacity.
//
// Admission is a hard cap checked before any resource is allocated: at
// `max_sessions` in flight (or once draining began), admit() throws
// ChannelBusy and the server answers SESSION_REJECT — the client retries
// later; nothing half-opens.
//
// Every admitted session gets its OWN observability: a TraceSink, a
// MetricsRegistry and a TrafficStats that no other session writes to,
// bound thread-locally (obs::ObserverScope) while its program runs.  On
// teardown — success or typed failure — the close sink receives the record
// plus these artifacts, so per-session pc-trace-v1 / pc-metrics-v1 /
// pc-traffic-v1 documents fall out without any cross-session filtering.
// On FAILURE the sink also receives a flight-recorder dump.  Known
// limitation: the flight recorder (obs/flight.h) is process-global, so a
// dump taken while ANOTHER session is failing concurrently can contain its
// neighbor's tail too — blame stays coarse under simultaneous failures.
//
// A session's deadline (SessionManagerConfig::session_deadline) lives in
// the mux: admit() registers the session with it, and every receive or
// await of the session past it throws ChannelTimeout (session_mux.h).
//
// One session's failure never disturbs its neighbors: teardown closes that
// session's mux inboxes, frees its observability, and nothing else.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/session/session_channel.h"
#include "net/session/session_mux.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pcl {

struct SessionInfo {
  std::uint32_t id = 0;
  std::uint64_t seed = 0;
};

enum class SessionState { kRunning, kDone, kFailed };

struct SessionRecord {
  SessionInfo info;
  SessionState state = SessionState::kRunning;
  /// "running", "ok", or "error:<TypedErrorClass>".
  std::string status = "running";
  /// Released label from the program (servers; nullopt = ⊥ or failure).
  std::optional<int> label;
  std::uint64_t opened_ns = 0;  ///< obs::monotonic_time_ns at admit
  std::uint64_t closed_ns = 0;  ///< 0 while running
};

/// One session's private observability, handed to the close sink.
struct SessionObs {
  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  TrafficStats traffic;
  /// Flight-recorder dump, filled only on typed failure (see file comment
  /// for the process-global caveat).
  std::vector<obs::TraceEvent> flight;
};

/// Bounded FIFO worker pool; sessions are its task granularity.
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void submit(std::function<void()> task);
  /// Finishes every queued task, then joins; idempotent.
  void shutdown();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

struct SessionManagerConfig {
  /// Concurrent-session admission cap; admit() beyond it throws ChannelBusy.
  std::size_t max_sessions = 8;
  std::size_t workers = 2;
  /// Bounds a session from admission: once this long has passed, each of
  /// its receives and awaits throws ChannelTimeout.  0 disables.
  std::chrono::milliseconds session_deadline{0};
};

class SessionManager {
 public:
  /// A party program bound to protocol code by the CALLER (layering: this
  /// subsystem cannot see src/mpc; tools/pc_party wires the consensus
  /// program in).  Returns the released label (servers) or nullopt.
  using Program =
      std::function<std::optional<int>(const SessionInfo&, Channel&)>;
  /// Runs on the worker thread right after teardown; the record is final
  /// and `obs` is this session's (mutable so sinks may move artifacts out).
  using CloseSink = std::function<void(const SessionRecord&, SessionObs&)>;

  SessionManager(SessionManagerConfig config, SessionMux& mux);
  ~SessionManager();

  /// Admission check + mux registration (with the session deadline).
  /// Throws ChannelBusy at the cap or once draining, ChannelError on a
  /// duplicate id.
  void admit(const SessionInfo& info);
  /// Schedules the admitted session's program on the pool.  Teardown —
  /// unregister, record finalization, close sink — runs on the worker
  /// thread whether the program returns or throws.
  void launch(const SessionInfo& info, SessionRoutes routes, Program program,
              CloseSink on_close);

  /// Every record, running and closed, in session-id order (admin "sessions").
  [[nodiscard]] std::vector<SessionRecord> list() const;
  [[nodiscard]] std::size_t active() const;

  /// Aggregate "pc-metrics-v1" snapshot built entirely under the manager's
  /// lock, so it is safe against concurrent session teardown — this is what
  /// the admin "metrics" command serves on a live daemon.
  [[nodiscard]] obs::JsonValue metrics_json(const std::string& source) const;

  /// Stops admitting (ChannelBusy) without disturbing running sessions.
  void begin_drain();
  /// Blocks until no session is active.
  void await_idle();

 private:
  struct Active {
    SessionRoutes routes;
    std::unique_ptr<SessionObs> obs;
  };

  void finish(std::uint32_t id, SessionState state, const std::string& status,
              std::optional<int> label, bool dump_flight, CloseSink& sink);

  SessionManagerConfig config_;
  SessionMux& mux_;
  WorkerPool pool_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::map<std::uint32_t, SessionRecord> records_;
  std::map<std::uint32_t, Active> active_;
  obs::MetricsRegistry aggregate_;
  bool draining_ = false;
};

}  // namespace pcl
