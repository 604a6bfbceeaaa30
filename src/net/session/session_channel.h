// SessionChannel — a party's Channel for ONE session over shared sockets.
//
// Party programs (mpc/consensus_batch.h) are written once against Channel;
// this implementation lets the identical program run as session s of a
// multiplexing daemon: sends stamp the session id into the versioned frame
// header and go out over the connection mapped for the peer (worker thread,
// per-socket write mutex); receives block on the mux's (session, conn)
// inbox, where the reactor thread deposits inbound frames.  Bulletin
// semantics match TcpChannel exactly, per session: the host posts to its
// listeners fire-and-forget and reads its own log; listeners read the
// ordered per-connection log through a private cursor.
//
// Traffic accounting records payload bytes only, under the same step labels
// as every other transport — which is what makes a session's per-step
// traffic directly comparable (byte-identical) to an isolated
// run_query_seeded replay of the same seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/session/session_mux.h"
#include "net/transport.h"

namespace pcl {

/// Static wiring of one party inside one session.
struct SessionRoutes {
  std::uint32_t session = 0;
  std::string self;
  /// Peer name -> connection label in the mux ("S2" -> "S2" on a server,
  /// "S1" -> "u3:S1" for user 3 on the client).
  std::map<std::string, std::string> conn_for;
  std::string bulletin_host = "S1";
  /// Peers the host pushes bulletins to (empty for non-hosts).
  std::vector<std::string> bulletin_listeners;
  std::chrono::milliseconds send_deadline{10000};
  std::chrono::milliseconds recv_deadline{30000};
};

class SessionChannel final : public Channel {
 public:
  /// `stats` receives this session's traffic rows; may be null.
  SessionChannel(SessionMux& mux, SessionRoutes routes, TrafficStats* stats);

  [[nodiscard]] const std::string& self() const override {
    return routes_.self;
  }
  void send(const std::string& to, MessageWriter message) override;
  [[nodiscard]] MessageReader recv(const std::string& from) override;
  void set_step(std::string step) override { step_ = std::move(step); }
  [[nodiscard]] const std::string& step() const override { return step_; }
  void add_step_time(const std::string& step,
                     std::chrono::nanoseconds elapsed) override;
  void post_public(std::int64_t value) override;
  [[nodiscard]] std::int64_t await_public() override;

 private:
  [[nodiscard]] const std::string& conn_for(const std::string& peer,
                                            const char* what) const;

  SessionMux& mux_;
  SessionRoutes routes_;
  TrafficStats* stats_;
  std::string step_;
  std::vector<std::int64_t> own_bulletins_;  ///< host-side log
  std::size_t bulletin_cursor_ = 0;
};

}  // namespace pcl
