// SessionClient — drives N sessions against a serving S1/S2 pair.
//
// The client owns the user side of the topology: one persistent socket per
// (user, server) pair plus one control connection per server, all muxed by
// session id exactly as on the daemons.  run() executes whole sessions as
// FIFO worker-pool tasks (the deadlock-freedom contract shared with the
// daemons' pools — see session_manager.h): each task opens the session on
// S2 then S1, runs every user program on its own thread, then collects both
// servers' SESSION_CLOSE verdicts.
//
// A SESSION_REJECT (ChannelBusy on the wire) is retried on the jittered
// dial_backoff schedule until the open budget runs out — busy means "come
// back", not "dead".  A spec with run_users=false opens the session and
// then abandons it (fault injection): the daemons' recv deadlines fail that
// session server-side and the CLOSE verdicts report the typed error, while
// every other session must complete untouched.
//
// Per-session observability mirrors the servers': each session gets its own
// TrafficStats for user-side rows (parity checks against isolated replays)
// and completion latency lands in the client's MetricsRegistry histograms.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/session/event_loop.h"
#include "net/session/session_manager.h"
#include "net/tcp_transport.h"

namespace pcl {

struct SessionClientConfig {
  std::size_t num_users = 0;
  EndpointMap endpoints;  ///< "S1" and "S2" entries
  TcpTimeouts timeouts;
  /// Client-side concurrency: how many whole sessions run at once.
  std::size_t max_in_flight = 4;
  /// Total budget for SESSION_OPEN retries after SESSION_REJECTs.
  std::chrono::milliseconds open_budget{10000};
};

struct SessionSpec {
  SessionInfo info;
  /// false = open on both servers, then run no user program (fault
  /// injection: the servers' recv deadlines fail this session for us).
  bool run_users = true;
};

struct SessionOutcome {
  SessionInfo info;
  bool ok = false;
  std::string status;  ///< "ok" or the first failure description
  /// Released label from S1's CLOSE payload (-1 on the wire = nullopt).
  std::optional<int> label;
  std::string s1_status;
  std::string s2_status;
  /// User-side traffic rows for THIS session only.
  std::shared_ptr<TrafficStats> traffic;
  std::uint64_t latency_ns = 0;
};

class SessionClient {
 public:
  /// Layering: protocol code is injected; tools/pc_party binds
  /// ConsensusProtocol::run_party_session for each user.
  using UserProgram = std::function<void(
      const SessionInfo&, const std::string& user, Channel&)>;

  SessionClient(SessionClientConfig config, UserProgram program);
  ~SessionClient();
  SessionClient(const SessionClient&) = delete;
  SessionClient& operator=(const SessionClient&) = delete;

  /// Dials every per-user and control connection and starts the reactor.
  void connect();

  /// Runs every spec (FIFO, at most max_in_flight concurrently); outcomes
  /// come back in spec order.
  [[nodiscard]] std::vector<SessionOutcome> run(
      const std::vector<SessionSpec>& specs);

  /// Completion-latency histograms ("session" step, kOnline phase).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// Stops the reactor and closes every connection.  Idempotent.
  void close();

 private:
  [[nodiscard]] SessionOutcome run_one(const SessionSpec& spec);
  /// OPEN on `server` ("S1"/"S2"), retrying rejects; throws ChannelBusy
  /// when the budget runs out.
  void open_on(const std::string& server, const SessionInfo& info);

  SessionClientConfig config_;
  UserProgram program_;
  EventLoop loop_;
  SessionMux mux_;
  /// Serializes the per-session S2+S1 open pair so every daemon admits
  /// sessions in one global order — the FIFO deadlock-freedom contract
  /// (session_manager.h) needs aligned queues across daemons.
  std::mutex open_mu_;
  std::thread loop_thread_;
  obs::MetricsRegistry metrics_;
  bool connected_ = false;
  bool closed_ = false;
};

}  // namespace pcl
