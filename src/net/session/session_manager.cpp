#include "net/session/session_manager.h"

#include <algorithm>
#include <utility>

#include "net/errors.h"
#include "obs/export.h"
#include "obs/flight.h"

namespace pcl {

// ---------------------------------------------------------------------------
// WorkerPool

WorkerPool::WorkerPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      for (;;) {
        std::function<void()> task;
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
          if (queue_.empty()) return;  // stopping_ and drained
          task = std::move(queue_.front());
          queue_.pop_front();
        }
        task();
      }
    });
  }
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::logic_error("worker pool: submit after shutdown");
    }
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void WorkerPool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

// ---------------------------------------------------------------------------
// SessionManager

SessionManager::SessionManager(SessionManagerConfig config, SessionMux& mux)
    : config_(config), mux_(mux), pool_(config.workers) {}

SessionManager::~SessionManager() {
  // Program tasks reference `this`; they must finish before members die.
  pool_.shutdown();
}

void SessionManager::admit(const SessionInfo& info) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      throw ChannelBusy("session " + std::to_string(info.id) +
                        ": server is draining, not admitting");
    }
    if (active_.size() >= config_.max_sessions) {
      throw ChannelBusy("session " + std::to_string(info.id) +
                        ": admission cap of " +
                        std::to_string(config_.max_sessions) +
                        " concurrent sessions reached");
    }
    if (records_.count(info.id) != 0 ||
        (evicted_max_.has_value() && info.id <= *evicted_max_)) {
      throw ChannelError("session " + std::to_string(info.id) +
                         ": duplicate SESSION_OPEN");
    }
    SessionRecord record;
    record.info = info;
    record.opened_ns = obs::monotonic_time_ns();
    records_.emplace(info.id, std::move(record));
    active_.emplace(info.id, Active{});
  }
  // Registration is visible before SESSION_ACCEPT goes out, so no frame the
  // client sends after the accept can ever land as an orphan here.
  mux_.register_session(info.id, config_.session_deadline);
}

void SessionManager::launch(const SessionInfo& info, SessionRoutes routes,
                            Program program, CloseSink on_close) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(info.id);
    if (it == active_.end()) {
      throw std::logic_error("launch before admit for session " +
                             std::to_string(info.id));
    }
    it->second.routes = routes;
    it->second.obs = std::make_unique<SessionObs>();
  }
  pool_.submit([this, info, routes = std::move(routes),
                program = std::move(program),
                on_close = std::move(on_close)]() mutable {
    SessionObs* obs_ptr = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      obs_ptr = active_.at(info.id).obs.get();
    }
    SessionChannel channel(mux_, routes, &obs_ptr->traffic);
    std::optional<int> label;
    SessionState state = SessionState::kDone;
    std::string status = "ok";
    bool dump_flight = false;
    try {
      // Bind this session's private sinks to the worker thread; everything
      // the program records lands in this session's artifacts only.
      const obs::ObserverScope scope(&obs_ptr->trace, &obs_ptr->metrics,
                                     routes.self);
      label = program(info, channel);
    } catch (const ChannelBusy& e) {
      state = SessionState::kFailed;
      status = std::string("error:ChannelBusy: ") + e.what();
      dump_flight = true;
    } catch (const ChannelTimeout& e) {
      state = SessionState::kFailed;
      status = std::string("error:ChannelTimeout: ") + e.what();
      dump_flight = true;
    } catch (const ChannelClosed& e) {
      state = SessionState::kFailed;
      status = std::string("error:ChannelClosed: ") + e.what();
      dump_flight = true;
    } catch (const FramingError& e) {
      state = SessionState::kFailed;
      status = std::string("error:FramingError: ") + e.what();
      dump_flight = true;
    } catch (const std::exception& e) {
      state = SessionState::kFailed;
      status = std::string("error: ") + e.what();
      dump_flight = true;
    }
    finish(info.id, state, status, label, dump_flight, on_close);
  });
}

void SessionManager::finish(std::uint32_t id, SessionState state,
                            const std::string& status,
                            std::optional<int> label, bool dump_flight,
                            CloseSink& sink) {
  mux_.unregister_session(id);
  SessionRecord record;
  std::unique_ptr<SessionObs> obs;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(id);
    obs = std::move(it->second.obs);
    active_.erase(it);
    SessionRecord& stored = records_.at(id);
    stored.state = state;
    stored.status = status;
    stored.label = label;
    stored.closed_ns = obs::monotonic_time_ns();
    record = stored;
    closed_.push_back(id);
    if (closed_.size() > kClosedRecordsKept) {
      const std::uint32_t evicted = closed_.front();
      closed_.pop_front();
      records_.erase(evicted);
      evicted_max_ = std::max(evicted_max_.value_or(0), evicted);
    }
    // Fold this session into the daemon-wide aggregate the admin channel
    // reports: a completion latency sample plus an outcome counter.
    aggregate_
        .latency_for("session", state == SessionState::kDone
                                    ? obs::Phase::kOnline
                                    : obs::Phase::kUnphased)
        .record(record.closed_ns - record.opened_ns);
  }
  if (dump_flight && obs::FlightRecorder::enabled()) {
    obs->flight = obs::FlightRecorder::drain();
  }
  if (sink) sink(record, *obs);
  idle_cv_.notify_all();
}

std::vector<SessionRecord> SessionManager::list() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SessionRecord> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) out.push_back(record);
  return out;
}

std::size_t SessionManager::active() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

obs::JsonValue SessionManager::metrics_json(const std::string& source) const {
  // The whole aggregation runs under the lock: finish() erases a session's
  // registry from active_ under this same mutex before freeing it, so no
  // view collected here can dangle — the admin thread may race teardown.
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const obs::MetricsRegistry*> views;
  views.push_back(&aggregate_);
  for (const auto& [id, act] : active_) {
    if (act.obs != nullptr) views.push_back(&act.obs->metrics);
  }
  return obs::build_metrics_json(views, source);
}

void SessionManager::begin_drain() {
  const std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

void SessionManager::await_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return active_.empty(); });
}

}  // namespace pcl
