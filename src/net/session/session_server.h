// SessionServer — one consensus server role (S1 or S2) as a multi-session
// daemon.
//
// Topology (v1, one S1/S2 pair serving one client process):
//
//   S1 daemon   accepts: the S2 trunk, one persistent socket per user, and
//               the client's control connection ("ctl").  Bulletin host.
//   S2 daemon   dials S1 (the trunk), then accepts users + "ctl".
//   client      dials both daemons once per user plus one control
//               connection each (session_client.h).
//
// Every connection is persistent and carries ALL sessions, session-tagged
// (session_mux.h).  The daemon runs a reactor thread (event_loop.h) that
// owns every read side, a SessionManager that admits/runs/tears down
// sessions on a FIFO worker pool, and — wired by the caller — an admin
// channel for live introspection and the drain-then-exit quit handshake.
//
// Control flow per session s:
//   client SESSION_OPEN(s, seed) on "ctl" -> admit -> SESSION_ACCEPT(s)
//     -> program runs on the pool -> SESSION_CLOSE(s, "ok"|"error", ...)
//   at the cap (or draining)     -> SESSION_REJECT(s, "busy", why)
//
// The client opens each session on S2 BEFORE S1, so by the time S1's
// program can emit trunk frames for s, S2 has registered s — orphan
// parking in the mux covers the residual race, not the common path.
//
// Layering (PC010): this subsystem cannot see src/mpc.  The party program
// is injected as a callback; tools/pc_party binds
// ConsensusProtocol::run_party_session.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/session/event_loop.h"
#include "net/session/session_manager.h"
#include "net/tcp_transport.h"

namespace pcl {

struct SessionServerConfig {
  std::string role;  ///< "S1" or "S2"
  std::size_t num_users = 0;
  EndpointMap endpoints;  ///< must contain "S1" (and "S2" when role is S2)
  TcpTimeouts timeouts;
  SessionManagerConfig manager;
  SessionLimits limits;
};

class SessionServer {
 public:
  using Program = SessionManager::Program;
  using CloseSink = SessionManager::CloseSink;

  /// `artifact_sink` (optional) runs at every session teardown with the
  /// final record and the session's private observability — the per-session
  /// pc-trace/pc-metrics/pc-traffic artifact hook.
  SessionServer(SessionServerConfig config, Program program,
                CloseSink artifact_sink = nullptr);
  ~SessionServer();
  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Performs the connection handshake (dial trunk / accept peers), then
  /// starts the reactor thread.  Pass a pre-bound listener to publish the
  /// port before peers dial (pc_party's fork choreography); an invalid one
  /// means bind from endpoints[role].
  void start(TcpListener listener = {});

  /// Drain-then-exit: stop admitting (new opens get SESSION_REJECT), wait
  /// for every active session to close, then stop the reactor and close
  /// every connection.  Idempotent.
  void drain_and_stop();

  [[nodiscard]] std::vector<SessionRecord> sessions() const {
    return manager_.list();
  }
  /// Teardown-safe aggregate snapshot for the admin "metrics" command.
  [[nodiscard]] obs::JsonValue metrics_json() const {
    return manager_.metrics_json(config_.role);
  }
  /// pc-sessions-v1 document for the admin "sessions" command.
  [[nodiscard]] std::string sessions_json() const;

 private:
  void handle_open(const std::string& conn, Frame frame);
  [[nodiscard]] SessionRoutes routes_for(std::uint32_t session) const;

  SessionServerConfig config_;
  Program program_;
  CloseSink artifact_sink_;
  EventLoop loop_;
  SessionMux mux_;
  SessionManager manager_;
  std::thread loop_thread_;
  bool started_ = false;
  bool stopped_ = false;
};

/// pc-sessions-v1: the session table as JSON (shared by server admin
/// replies and pc_trace --live rendering tests).
[[nodiscard]] std::string build_sessions_json(
    const std::string& role, std::size_t active,
    const std::vector<SessionRecord>& records);

}  // namespace pcl
