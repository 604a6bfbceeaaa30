// TcpChannel — the Channel of one protocol execution over real TCP sockets
// (run_parties(PartyTransport::kTcp) and `pc_party --role/--all`).
//
// TcpChannel owns only connection setup and teardown.  It dials and accepts
// its wired peers through the HELLO handshake (tcp_transport.h), attaches
// every peer socket to its own reactor and SessionMux, and serves each
// Channel call through a SessionChannel on session 0 — the receive path the
// serving daemons run.  Its frames carry the one 13-byte header with
// session 0, and traffic accounting records payload bytes only, so payload
// bytes and per-step TrafficStats match every other transport for the
// same seed.
//
// A peer that hangs up fails only the receives from that peer, and only
// once the frames it sent before are read.  Not thread-safe: one party
// program per channel.  Lives in a tcp* file because it builds the TCP
// transport (PC006).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "net/session/event_loop.h"
#include "net/session/session_channel.h"
#include "net/session/session_mux.h"
#include "net/tcp_transport.h"
#include "net/transport.h"

namespace pcl {

/// Who a party talks to and how.  The dial/accept split must be acyclic
/// across the topology (each link has exactly one dialer); for the
/// consensus topology use consensus_tcp_wiring().
struct TcpPartyWiring {
  std::string self;
  /// Peers this party connects to (each needs an `endpoints` entry).
  std::vector<std::string> dial;
  /// Peers expected to dial in (each announces itself with HELLO).
  std::vector<std::string> accept;
  EndpointMap endpoints;
  /// The party whose post_public() realizes the bulletin board.
  std::string bulletin_host = "S1";
  /// Peers the host pushes the BULLETIN frame to (host side only).
  std::vector<std::string> bulletin_listeners;
  TcpTimeouts timeouts;
};

/// The paper's topology: S1 accepts everyone, S2 dials S1 and accepts the
/// users, users dial both servers; S1 is the bulletin host pushing the
/// step-5 verdict to the users.  `endpoints` needs "S1" and "S2" entries.
[[nodiscard]] TcpPartyWiring consensus_tcp_wiring(const std::string& self,
                                                  std::size_t num_users,
                                                  EndpointMap endpoints,
                                                  TcpTimeouts timeouts = {});

class TcpChannel final : public Channel {
 public:
  explicit TcpChannel(TcpPartyWiring wiring, TrafficStats* stats = nullptr);
  ~TcpChannel() override;
  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// Dials, then accepts, per the wiring; binds its own listener from
  /// endpoints[self] when the accept set is non-empty.
  void connect();
  /// Same, but over a caller-supplied (pre-bound or fork-adopted) listener.
  void connect(TcpListener listener);

  /// Graceful teardown: stops and joins the reactor, then closes every peer
  /// socket.  Idempotent; also run by the destructor, so an unwinding party
  /// wakes its peers (they see EOF, not a dead wait).
  void close();

  /// Messages received but never consumed by the party program (bulletin
  /// frames excluded).  A finished protocol leaves 0.
  [[nodiscard]] std::size_t pending_messages() const {
    return mux_.pending_messages(0);
  }
  /// Total protocol payload bytes sent (frame overhead excluded, matching
  /// what TrafficStats records).
  [[nodiscard]] std::size_t bytes_sent() const { return bytes_sent_; }

  [[nodiscard]] const std::string& self() const override {
    return wiring_.self;
  }
  void send(const std::string& to, MessageWriter message) override;
  [[nodiscard]] MessageReader recv(const std::string& from) override {
    return session_.recv(from);
  }
  void set_step(std::string step) override {
    session_.set_step(std::move(step));
  }
  [[nodiscard]] const std::string& step() const override {
    return session_.step();
  }
  void post_public(std::int64_t value) override {
    session_.post_public(value);
  }
  [[nodiscard]] std::int64_t await_public() override {
    return session_.await_public();
  }

 private:
  TcpPartyWiring wiring_;
  EventLoop loop_;
  SessionMux mux_;
  SessionChannel session_;
  std::thread loop_thread_;
  std::size_t bytes_sent_ = 0;
};

}  // namespace pcl
