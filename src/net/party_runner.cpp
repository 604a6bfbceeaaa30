#include "net/party_runner.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bigint/rng.h"
#include "net/tcp_runner.h"
#include "obs/flight.h"

namespace pcl {

namespace {

/// Thrown through a party program when the baton scheduler unwinds the
/// run (deadlock, or a peer failed and the party would wait forever).
/// Never escapes the runner.
struct AbortRun {};

constexpr int kScheduler = -1;

/// Runs every party on its own thread over one Network, under either
/// in-memory schedule (see the header comment).  On the deterministic
/// schedule a single mutex/condition-variable pair guarantees at most one
/// party is ever runnable, and the handoff policy (lowest-index runnable
/// party) is deterministic; on the threaded schedule the parties run
/// freely and wait in the Network.
class PartyEngine {
 public:
  PartyEngine(Network& net, std::span<const Party> parties,
              PartyTransport schedule, obs::TraceSink* trace,
              obs::MetricsRegistry* metrics)
      : net_(net),
        parties_(parties),
        baton_(schedule == PartyTransport::kDeterministic),
        trace_(trace),
        metrics_(metrics),
        states_(parties.size()) {}

  void run() {
    std::vector<std::thread> threads;
    threads.reserve(parties_.size());
    for (std::size_t i = 0; i < parties_.size(); ++i) {
      threads.emplace_back([this, i] { party_main(i); });
    }
    if (baton_) schedule();
    for (std::thread& t : threads) t.join();
    if (first_error_) std::rethrow_exception(first_error_);
    if (!deadlock_description_.empty()) {
      throw std::logic_error(deadlock_description_);
    }
  }

 private:
  struct PartyState {
    bool done = false;
    /// Set while the party waits for the baton: what it awaits, and the
    /// test that makes it runnable again.
    const std::string* awaited = nullptr;
    const std::function<bool()>* ready = nullptr;
  };

  void party_main(std::size_t i) {
    if (baton_ && !wait_first_turn(i)) return;
    const obs::ObserverScope obs_scope(trace_, metrics_, parties_[i].name);
    NetworkChannel chan(net_, parties_[i].name);
    if (baton_) {
      chan.set_wait_hook(
          [this, i](const std::string& awaited,
                    const std::function<bool()>& ready) {
            wait_turn(i, awaited, ready);
          });
    }
    try {
      parties_[i].run(chan);
    } catch (const AbortRun&) {
      // Baton-induced unwind after a peer failure or deadlock.
    } catch (...) {
      fail(i, std::current_exception());
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      states_[i].done = true;
      if (active_ == static_cast<int>(i)) active_ = kScheduler;
    }
    cv_.notify_all();
  }

  /// The failure rule: the first error ends the run.  Closing the network
  /// unwinds every peer waiting in it (threaded schedule) and the abort
  /// flag every peer waiting for the baton; the errors those unwinds throw
  /// arrive after the first and are dropped.
  void fail(std::size_t i, std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (aborting_) return;
      first_error_ = std::move(error);
      aborting_ = true;
    }
    // Timeline marker for the flight recorder: a drained post-mortem trace
    // shows which party's program actually threw.
    obs::FlightRecorder::note(("party failed: " + parties_[i].name).c_str());
    net_.close();
    cv_.notify_all();
  }

  /// Baton schedule: a party thread's first turn.  False when the run was
  /// aborted before the party ever ran.
  bool wait_first_turn(std::size_t i) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock,
             [&] { return active_ == static_cast<int>(i) || aborting_; });
    if (!aborting_) return true;
    states_[i].done = true;
    lock.unlock();
    cv_.notify_all();
    return false;
  }

  /// Baton schedule's wait hook: yield until `ready()` holds.
  void wait_turn(std::size_t i, const std::string& awaited,
                 const std::function<bool()>& ready) {
    std::unique_lock<std::mutex> lock(mutex_);
    PartyState& st = states_[i];
    while (!ready()) {
      st.awaited = &awaited;
      st.ready = &ready;
      active_ = kScheduler;
      cv_.notify_all();
      cv_.wait(lock,
               [&] { return active_ == static_cast<int>(i) || aborting_; });
      st.awaited = nullptr;
      st.ready = nullptr;
      if (aborting_) throw AbortRun{};
    }
  }

  [[nodiscard]] bool runnable(std::size_t i) const {
    const PartyState& st = states_[i];
    if (st.done) return false;
    // Not yet started, ready at a handoff point, or waiting on a condition.
    return st.ready == nullptr || (*st.ready)();
  }

  [[nodiscard]] bool all_done() const {
    for (const PartyState& st : states_) {
      if (!st.done) return false;
    }
    return true;
  }

  void schedule() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (all_done()) return;
      if (aborting_) break;
      int pick = kScheduler;
      for (std::size_t i = 0; i < states_.size(); ++i) {
        if (runnable(i)) {
          pick = static_cast<int>(i);
          break;
        }
      }
      if (pick == kScheduler) {
        // Every live party waits on a message or signal that will never
        // arrive.  Record the wait graph, then unwind everyone.
        deadlock_description_ = "party runner deadlock:";
        for (std::size_t i = 0; i < states_.size(); ++i) {
          const PartyState& st = states_[i];
          if (st.done) continue;
          deadlock_description_ +=
              " [" + parties_[i].name + " awaits " + *st.awaited + "]";
        }
        aborting_ = true;
        break;
      }
      active_ = pick;
      cv_.notify_all();
      cv_.wait(lock, [&] { return active_ == kScheduler; });
    }
    cv_.notify_all();
    cv_.wait(lock, [&] { return all_done(); });
  }

  Network& net_;
  std::span<const Party> parties_;
  bool baton_;
  obs::TraceSink* trace_;
  obs::MetricsRegistry* metrics_;

  std::mutex mutex_;
  std::condition_variable cv_;
  int active_ = kScheduler;
  bool aborting_ = false;
  std::exception_ptr first_error_;
  std::vector<PartyState> states_;
  std::string deadlock_description_;
};

}  // namespace

PartyRunReport run_parties(std::span<const Party> parties,
                           const PartyRunOptions& options) {
  if (options.transport == PartyTransport::kTcp) {
    return run_parties_tcp_loopback(parties, options);
  }
  Network net(options.stats, options.recv_timeout);
  net.record_transcript(options.record_transcript);
  PartyEngine(net, parties, options.transport, options.trace, options.metrics)
      .run();
  PartyRunReport report;
  report.transcript = net.transcript();
  report.undelivered = net.pending_total();
  report.bytes_sent = net.bytes_sent();
  return report;
}

std::uint64_t derive_party_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(seed, index);
}

}  // namespace pcl
