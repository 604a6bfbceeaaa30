// In-process network with full cost accounting — the one in-memory
// transport.
//
// Parties exchange serialized Messages through a Network object.  Every send
// is tagged with the sending party's protocol step, so the per-step
// communication table (paper Table II) falls out of the run; the per-step
// timing table (paper Table I) comes from the same steps' obs spans (see
// ChannelStepScope in net/channel.h).  A recv pops the oldest pending
// message on the (from, to) link and throws if none is pending; a wait_recv
// blocks until one arrives.  The party runner (net/party_runner.h) builds
// one Network per run and drives the parties over it on either schedule:
// under its deterministic baton every wait is satisfied before it reaches
// the Network, and on free threads the Network's own waits do the
// blocking.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/message.h"
#include "obs/export.h"

namespace pcl {

/// The step label of a send made without one, on every transport.
inline const std::string kUnsetStep = "(unset)";

/// Aggregated traffic per protocol step.  Internally locked:
/// writers on the threaded schedule and the TCP transport race each other
/// and readers (a bench polling totals, a reporting thread), so every
/// accessor takes the mutex.
class TrafficStats {
 public:
  struct LinkTotals {
    std::size_t bytes = 0;
    std::size_t messages = 0;
  };

  void record_send(const std::string& step, const std::string& from,
                   const std::string& to, std::size_t bytes);

  /// Total bytes sent during `step` over links whose endpoints match the
  /// given categories ("user" matches any party id starting with "user");
  /// empty string matches anything.
  [[nodiscard]] std::size_t bytes_for(const std::string& step,
                                      const std::string& from_category = "",
                                      const std::string& to_category = "") const;
  [[nodiscard]] std::size_t messages_for(
      const std::string& step, const std::string& from_category = "",
      const std::string& to_category = "") const;
  /// Every step with traffic, in sorted order.
  [[nodiscard]] std::vector<std::string> steps() const;

  /// One traffic row per (step, from, to) link, in deterministic (sorted)
  /// order.  Comparing two runs' entries checks byte-identical per-step
  /// traffic — e.g. the deterministic vs threaded schedules.
  struct Entry {
    std::string step, from, to;
    std::size_t bytes = 0;
    std::size_t messages = 0;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  [[nodiscard]] std::vector<Entry> traffic_entries() const;

  /// Per-step {bytes, messages} totals in the obs-layer shape consumed by
  /// obs::build_trace_json (obs cannot depend on net, so traffic crosses
  /// the boundary as this plain map).
  [[nodiscard]] obs::TrafficByStep by_step() const;

  void clear();

 private:
  struct Key {
    std::string step, from, to;
    auto operator<=>(const Key&) const = default;
  };
  mutable std::mutex mutex_;
  std::map<Key, LinkTotals> traffic_;
};

/// Optional full transcript: one entry per message in send order.  Used by
/// the traffic-analysis tests (message counts and sizes must not depend on
/// the secret votes) and for deterministic-replay checks.
struct TranscriptEntry {
  std::string step, from, to;
  std::size_t bytes = 0;
  friend bool operator==(const TranscriptEntry&,
                         const TranscriptEntry&) = default;
};

/// Point-to-point message queues between named parties, plus the public
/// bulletin (see net/channel.h).  One mutex guards the queues, the
/// transcript, the byte count and the bulletin log, so parties on
/// free-running threads can share one Network.
class Network {
 public:
  /// `recv_timeout` bounds every blocking wait (wait_recv, await_public).
  explicit Network(
      TrafficStats* stats = nullptr,
      std::chrono::milliseconds recv_timeout = std::chrono::seconds(30))
      : stats_(stats), recv_timeout_(recv_timeout) {}

  /// Queues `message` on (from -> to) and records it under `step` (paper
  /// step names, e.g. "Secure Comparison (4)"), or under kUnsetStep when
  /// `step` is empty.
  void send(const std::string& from, const std::string& to,
            MessageWriter message, const std::string& step = {});
  /// Pops the oldest message on (from -> to); throws std::logic_error when
  /// none is pending.
  [[nodiscard]] MessageReader recv(const std::string& to,
                                   const std::string& from);
  /// Blocks until (from -> to) has a message, then pops it.  Throws
  /// ChannelTimeout past the receive deadline and ChannelClosed while the
  /// network is closed.
  [[nodiscard]] MessageReader wait_recv(const std::string& to,
                                        const std::string& from);
  [[nodiscard]] bool has_pending(const std::string& to,
                                 const std::string& from) const;
  /// Total messages still queued anywhere (protocol-completeness check).
  [[nodiscard]] std::size_t pending_total() const;
  /// Total payload bytes ever sent.
  [[nodiscard]] std::size_t bytes_sent() const;

  /// The bulletin: posts append to one ordered log, which readers walk by
  /// index.  await_public blocks until entry `index` exists, failing like
  /// wait_recv.
  void post_public(std::int64_t value);
  [[nodiscard]] bool has_public(std::size_t index) const;
  [[nodiscard]] std::int64_t await_public(std::size_t index);

  /// Makes every blocked and later wait that finds nothing throw
  /// ChannelClosed.  The party runner closes its network when a party
  /// fails, so peers waiting on that party unwind at once.
  void close();

  /// Enables transcript capture (metadata only — no payloads).
  void record_transcript(bool enable);
  [[nodiscard]] std::vector<TranscriptEntry> transcript() const;

 private:
  /// Blocks on `lock` until `ready()` holds; throws at the deadline or on
  /// closure, naming the wait by `what()`.
  template <typename Ready, typename Describe>
  void wait(std::unique_lock<std::mutex>& lock, Ready ready, Describe what);

  mutable std::mutex mutex_;
  std::condition_variable changed_;
  std::map<std::pair<std::string, std::string>,
           std::deque<std::vector<std::uint8_t>>>
      queues_;
  std::vector<std::int64_t> bulletin_;
  TrafficStats* stats_;
  std::chrono::milliseconds recv_timeout_;
  bool closed_ = false;
  bool record_transcript_ = false;
  std::vector<TranscriptEntry> transcript_;
  std::size_t bytes_sent_ = 0;
};

}  // namespace pcl
