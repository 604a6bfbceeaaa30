// In-process simulated network with full cost accounting.
//
// Parties exchange serialized Messages through a Network object.  Every send
// is tagged with the current protocol step, so the per-step communication
// table (paper Table II) and per-step timing table (paper Table I) fall out
// of the same run.  The transport is synchronous and deterministic: a recv
// pops the oldest pending message on the (from, to) link and throws if none
// is pending — protocols are driven so sends always precede their recvs.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/message.h"
#include "obs/export.h"

namespace pcl {

/// Aggregated traffic and timing per protocol step.  Internally locked:
/// writers on the threaded transport race each other and readers (a bench
/// polling totals, a reporting thread), so every accessor takes the mutex.
class TrafficStats {
 public:
  struct LinkTotals {
    std::size_t bytes = 0;
    std::size_t messages = 0;
  };

  void record_send(const std::string& step, const std::string& from,
                   const std::string& to, std::size_t bytes);
  void add_time(const std::string& step, std::chrono::nanoseconds elapsed);

  /// Total bytes sent during `step` over links whose endpoints match the
  /// given categories ("user" matches any party id starting with "user");
  /// empty string matches anything.
  [[nodiscard]] std::size_t bytes_for(const std::string& step,
                                      const std::string& from_category = "",
                                      const std::string& to_category = "") const;
  [[nodiscard]] std::size_t messages_for(
      const std::string& step, const std::string& from_category = "",
      const std::string& to_category = "") const;
  [[nodiscard]] double seconds_for(const std::string& step) const;
  [[nodiscard]] double total_seconds() const;
  [[nodiscard]] std::vector<std::string> steps() const;

  /// One traffic row per (step, from, to) link, in deterministic (sorted)
  /// order.  Comparing two runs' entries checks byte-identical per-step
  /// traffic — e.g. the in-process vs threaded consensus runners.
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
  std::map<std::string, std::chrono::nanoseconds> time_;
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

/// Synchronous point-to-point message queues between named parties.
class Network {
 public:
  explicit Network(TrafficStats* stats = nullptr) : stats_(stats) {}

  /// Sets the step label attached to subsequent sends (paper step names,
  /// e.g. "Secure Comparison (4)").
  void set_step(std::string step) { step_ = std::move(step); }
  [[nodiscard]] const std::string& step() const { return step_; }

  void send(const std::string& from, const std::string& to,
            MessageWriter message);
  [[nodiscard]] MessageReader recv(const std::string& to,
                                   const std::string& from);
  [[nodiscard]] bool has_pending(const std::string& to,
                                 const std::string& from) const;
  /// Total messages still queued anywhere (protocol-completeness check).
  [[nodiscard]] std::size_t pending_total() const;

  /// Enables transcript capture (metadata only — no payloads).
  void record_transcript(bool enable) { record_transcript_ = enable; }
  [[nodiscard]] const std::vector<TranscriptEntry>& transcript() const {
    return transcript_;
  }

 private:
  std::map<std::pair<std::string, std::string>,
           std::deque<std::vector<std::uint8_t>>>
      queues_;
  TrafficStats* stats_;
  std::string step_ = "(unset)";
  bool record_transcript_ = false;
  std::vector<TranscriptEntry> transcript_;
};

}  // namespace pcl
