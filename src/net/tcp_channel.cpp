#include "net/tcp_channel.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "net/errors.h"

namespace pcl {

namespace {

/// Session-0 routes: every wired peer is reached over the connection that
/// carries its name.
[[nodiscard]] SessionRoutes session_zero_routes(const TcpPartyWiring& wiring) {
  SessionRoutes routes;
  routes.session = 0;
  routes.self = wiring.self;
  for (const std::string& peer : wiring.dial) routes.conn_for[peer] = peer;
  for (const std::string& peer : wiring.accept) routes.conn_for[peer] = peer;
  routes.bulletin_host = wiring.bulletin_host;
  routes.bulletin_listeners = wiring.bulletin_listeners;
  routes.send_deadline = wiring.timeouts.send;
  routes.recv_deadline = wiring.timeouts.recv;
  return routes;
}

}  // namespace

TcpPartyWiring consensus_tcp_wiring(const std::string& self,
                                    std::size_t num_users,
                                    EndpointMap endpoints,
                                    TcpTimeouts timeouts) {
  std::vector<std::string> users;
  users.reserve(num_users);
  for (std::size_t u = 0; u < num_users; ++u) {
    users.push_back("user:" + std::to_string(u));
  }
  TcpPartyWiring wiring;
  wiring.self = self;
  wiring.endpoints = std::move(endpoints);
  wiring.bulletin_host = "S1";
  wiring.timeouts = timeouts;
  if (self == "S1") {
    wiring.accept = users;
    wiring.accept.insert(wiring.accept.begin(), "S2");
    wiring.bulletin_listeners = users;
  } else if (self == "S2") {
    wiring.dial = {"S1"};
    wiring.accept = users;
  } else if (std::find(users.begin(), users.end(), self) != users.end()) {
    wiring.dial = {"S1", "S2"};
  } else {
    throw ChannelError("consensus wiring: unknown party '" + self +
                       "' for " + std::to_string(num_users) + " users");
  }
  return wiring;
}

TcpChannel::TcpChannel(TcpPartyWiring wiring, TrafficStats* stats)
    : wiring_(std::move(wiring)),
      session_(mux_, session_zero_routes(wiring_), stats) {}

TcpChannel::~TcpChannel() { close(); }

void TcpChannel::connect() {
  TcpListener listener;
  if (!wiring_.accept.empty()) {
    const TcpEndpoint& own = endpoint_of(wiring_.endpoints, wiring_.self);
    listener = TcpListener::bind(own.host, own.port);
  }
  connect(std::move(listener));
}

void TcpChannel::connect(TcpListener listener) {
  // Dial first: every dial target's listener is either pre-bound by an
  // orchestrator or being bound by a peer whose own dial set never includes
  // us (the dial/accept split is acyclic), so dialing cannot deadlock and
  // dial() retries absorb process start skew.
  std::map<std::string, TcpSocket> peers;
  for (const std::string& peer : wiring_.dial) {
    peers.emplace(peer, dial_peer(endpoint_of(wiring_.endpoints, peer),
                                  wiring_.self, wiring_.timeouts));
  }
  if (!wiring_.accept.empty()) {
    if (!listener.valid()) {
      throw ChannelError("'" + wiring_.self +
                         "' expects inbound connections but has no listener");
    }
    peers.merge(accept_peers(
        listener,
        std::set<std::string>(wiring_.accept.begin(), wiring_.accept.end()),
        wiring_.self, wiring_.timeouts));
  }
  listener.close();
  mux_.register_session(0);
  for (auto& [peer, socket] : peers) {
    // No on_down policy: a dead peer fails only the receives from it, once
    // its queued frames are read (the mux's per-connection close).
    attach_connection(loop_, mux_, peer,
                      std::make_shared<SharedSocket>(std::move(socket)),
                      nullptr);
  }
  loop_thread_ = std::thread([this] { loop_.run(); });
}

void TcpChannel::close() {
  loop_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  mux_.close_sockets();
}

void TcpChannel::send(const std::string& to, MessageWriter message) {
  const std::size_t size = message.size();
  session_.send(to, std::move(message));
  bytes_sent_ += size;
}

}  // namespace pcl
