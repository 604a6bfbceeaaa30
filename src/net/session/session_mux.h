// SessionMux — session-tagged frame routing over shared connections.
//
// One TCP connection can carry MANY concurrent sessions: in serve mode the
// S1<->S2 trunk multiplexes every session's server-to-server traffic, and
// each persistent user connection multiplexes that user's frames for every
// session it participates in; a TcpChannel (tcp_channel.h) runs one session,
// id 0.  The mux is the meeting point between the reactor (event_loop.h),
// which feeds it raw bytes per connection, and the worker threads, which
// block on typed receive calls:
//
//   reactor thread:  recv -> FrameAssembler -> route(conn, frame)
//   worker threads:  recv_message / await_bulletin / recv_control
//
// The mux's waits are the only deadlines in the subsystem.  Each wait is
// bounded by the caller's receive deadline and, for a session registered
// with one, by the session's absolute deadline: once that passes, every
// later wait of the session throws ChannelTimeout naming it, even with a
// frame queued.
//
// Early frames park here and nowhere else.  Within a (session, connection)
// inbox, protocol messages queue in arrival order, bulletin values append
// to an ordered log read through the consumer's own cursor, and neither
// kind can displace the other.  Session-control frames (OPEN/ACCEPT/REJECT/
// CLOSE) ride the same sockets; OPENs go to the registered control handler
// (the server's admission path), the rest queue per (session, connection)
// for recv_control.  A connection that goes down fails the receives from it
// once its queue is drained; failing sessions that wait on OTHER
// connections is the owner's policy (the daemons' fail_connection).
//
// Backpressure is bounded and BLAME-LOCAL: each (session, connection) inbox
// holds at most `inbox_cap` messages and as many control frames;
// overflowing either fails THAT session with ChannelBusy and drops nothing
// belonging to anyone else.  Frames for
// sessions not yet registered park in a bounded orphan buffer (the trunk
// can legally race a SESSION_OPEN) and replay on register_session.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <condition_variable>

#include "net/tcp_transport.h"

namespace pcl {

/// Write side of a connection shared by many sessions.  Workers write whole
/// frames under the per-socket mutex, so frames from concurrent sessions
/// interleave only at frame boundaries.  The READ side belongs to the
/// reactor exclusively; nothing here reads.
class SharedSocket {
 public:
  explicit SharedSocket(TcpSocket socket) : socket_(std::move(socket)) {}

  [[nodiscard]] int fd() const { return socket_.fd(); }
  void write(const Frame& frame, std::chrono::milliseconds deadline);
  void close();

 private:
  std::mutex mu_;
  TcpSocket socket_;
};

struct SessionLimits {
  /// Max queued protocol messages, and separately max queued ACCEPT/REJECT/
  /// CLOSE frames, per (session, connection) inbox; one more of either
  /// fails that session with ChannelBusy.
  std::size_t inbox_cap = 1024;
  /// Max parked frames across ALL unregistered sessions; beyond it the
  /// oldest orphan is dropped (counted, never silently).
  std::size_t orphan_cap = 4096;
};

class SessionMux {
 public:
  /// Receives SESSION_OPEN frames (server admission path).  Runs on the
  /// reactor thread; must not block.
  using ControlHandler = std::function<void(const std::string& conn, Frame)>;

  explicit SessionMux(SessionLimits limits = {});

  void set_control_handler(ControlHandler handler);

  /// Registers a connection's write side under `label` (the peer name on a
  /// server, "u3:S1"-style link names on the client).
  void add_connection(const std::string& label,
                      std::shared_ptr<SharedSocket> socket);
  [[nodiscard]] SharedSocket& connection(const std::string& label);
  /// Closes every registered socket (owner teardown, once the reactor that
  /// reads them has stopped); later writes fail typed.
  void close_sockets();

  /// Creates the session's inboxes and replays any parked orphans for it.
  /// A positive `deadline` bounds every later wait of the session: from
  /// `deadline` after this call on, each throws ChannelTimeout.
  void register_session(std::uint32_t session,
                        std::chrono::milliseconds deadline = {});
  /// Frees the session's inboxes; late frames for it re-park as orphans.
  void unregister_session(std::uint32_t session);

  /// Routes one inbound frame (reactor thread).  kSessionOpen goes to the
  /// control handler; ACCEPT/REJECT/CLOSE queue for recv_control; messages
  /// and bulletins land in the (frame.session, conn) inbox.  Throws
  /// FramingError for a HELLO and for a bulletin payload that is not
  /// exactly one i64, before anything is queued or parked.
  void route(const std::string& conn, Frame frame);

  /// Marks `conn` down for every session (attach_connection calls this on
  /// EOF, a socket error or a framing error): receives from it return what
  /// it already queued, then throw the typed error `rethrow` produces.
  void close_connection(const std::string& conn,
                        std::function<void()> rethrow);

  /// Fails every session with ChannelClosed because `conn` died of `why`:
  /// the daemons' policy, as each of their sessions spans every connection.
  void fail_connection(const std::string& conn, const std::string& why);

  /// Blocking typed receives (worker threads).  Each throws ChannelTimeout
  /// at `deadline` or once the session's own deadline has passed, the
  /// session's typed error if it was failed, and the connection's once
  /// `conn` is closed and has nothing queued.
  [[nodiscard]] std::vector<std::uint8_t> recv_message(
      std::uint32_t session, const std::string& conn,
      std::chrono::milliseconds deadline);
  /// Bulletin value at `index` of the (session, conn) log, waiting for it
  /// to be published if needed.  The caller owns its cursor.
  [[nodiscard]] std::int64_t await_bulletin(std::uint32_t session,
                                            const std::string& conn,
                                            std::size_t index,
                                            std::chrono::milliseconds deadline);
  [[nodiscard]] Frame recv_control(std::uint32_t session,
                                   const std::string& conn,
                                   std::chrono::milliseconds deadline);

  /// Messages routed to `session` but never received (bulletins excluded).
  [[nodiscard]] std::size_t pending_messages(std::uint32_t session) const;
  [[nodiscard]] std::size_t orphans_parked() const;
  [[nodiscard]] std::size_t orphans_dropped() const;

 private:
  struct Inbox {
    std::deque<std::vector<std::uint8_t>> messages;
    std::vector<std::int64_t> bulletins;
    std::deque<Frame> control;
  };
  struct SessionBox {
    std::map<std::string, Inbox> by_conn;  ///< keyed by connection label
    std::function<void()> rethrow;         ///< set once failed
    std::chrono::milliseconds deadline{};  ///< 0 = none
    std::uint64_t deadline_ns = 0;  ///< obs clock; registration + deadline
  };

  [[nodiscard]] SessionBox* find_locked(std::uint32_t session);
  /// Queues a message, bulletin or control frame in box's `conn` inbox; a
  /// message or control frame past inbox_cap fails the session with
  /// ChannelBusy instead.
  void deliver_locked(SessionBox& box, const std::string& conn, Frame frame);
  void replay_orphans_locked(std::uint32_t session, SessionBox& box);

  /// Waits on cv_ until `ready` (called under mu_) returns non-nullopt,
  /// the session fails, `conn` is closed with nothing ready, or `deadline`
  /// passes; throws first if the session's deadline has passed.
  template <typename T, typename Ready>
  T wait_for(std::uint32_t session, const std::string& conn,
             std::chrono::milliseconds deadline, const char* what,
             Ready ready);

  SessionLimits limits_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  ControlHandler control_handler_;
  std::map<std::string, std::shared_ptr<SharedSocket>> connections_;
  std::map<std::uint32_t, SessionBox> sessions_;
  /// conn -> its error, once it is down
  std::map<std::string, std::function<void()>> closed_;
  std::deque<std::pair<std::string, Frame>> orphans_;  ///< (conn, frame)
  std::size_t orphans_dropped_ = 0;
};

class EventLoop;

/// Wires one connection into a reactor: calls mux.add_connection(label,
/// socket), registers the fd with `loop`, drains it nonblockingly through a
/// FrameAssembler on readability, and routes every complete frame into the
/// mux — including the frames that arrive in the same read as EOF.  On EOF,
/// a socket error, or a framing error it removes the fd, closes the
/// connection in the mux, and invokes `on_down(label, what)` (may be null)
/// on the loop thread — the byte stream cannot resynchronize, so the
/// connection is done either way.
void attach_connection(
    EventLoop& loop, SessionMux& mux, const std::string& label,
    std::shared_ptr<SharedSocket> socket,
    std::function<void(const std::string&, const std::string&)> on_down);

}  // namespace pcl
