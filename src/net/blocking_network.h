// Thread-safe blocking network for running protocol parties on real
// threads.
//
// Same directional-link semantics as Network, but recv() blocks until the
// matching message arrives (with a deadline so a protocol bug surfaces as
// an exception instead of a deadlock).  This is the deployment-shaped
// transport: each party runs its own routine on its own thread and the
// interleaving is driven by data availability, exactly as TCP endpoints
// would behave.  mpc/threaded.h holds party routines written against it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/errors.h"
#include "net/message.h"

namespace pcl {

/// Thrown when a blocking recv (or a bulletin await) exceeds its deadline.
/// Derives from ChannelTimeout — the error class shared with the TCP
/// transport — so runners can tell a starved peer (collateral damage) from
/// the root-cause failure with one catch regardless of transport.
class RecvTimeoutError : public ChannelTimeout {
 public:
  using ChannelTimeout::ChannelTimeout;
};

class BlockingNetwork {
 public:
  explicit BlockingNetwork(
      std::chrono::milliseconds recv_timeout = std::chrono::seconds(10))
      : recv_timeout_(recv_timeout) {}

  void send(const std::string& from, const std::string& to,
            MessageWriter message);

  /// Blocks until a message is available on (from -> to); throws
  /// RecvTimeoutError on timeout (protocol deadlock / missing send).
  [[nodiscard]] MessageReader recv(const std::string& to,
                                   const std::string& from);

  /// Total messages currently queued (diagnostics; racy by nature).
  [[nodiscard]] std::size_t pending_total() const;
  /// Total bytes ever sent (for cost spot-checks in threaded runs).
  [[nodiscard]] std::size_t bytes_sent() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::pair<std::string, std::string>,
           std::deque<std::vector<std::uint8_t>>>
      queues_;
  std::size_t bytes_sent_ = 0;
  std::chrono::milliseconds recv_timeout_;
};

}  // namespace pcl
