#include "net/session/session_mux.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <system_error>
#include <utility>

#include "net/errors.h"
#include "net/message.h"
#include "net/session/event_loop.h"
#include "obs/trace.h"

namespace pcl {

namespace {

/// The value a bulletin frame carries; FramingError unless the payload is
/// exactly one i64.
[[nodiscard]] std::int64_t bulletin_value(std::vector<std::uint8_t> payload) {
  MessageReader reader(std::move(payload));
  const std::int64_t value = reader.read_i64();
  if (!reader.exhausted()) {
    throw FramingError("bulletin frame carries trailing bytes");
  }
  return value;
}

}  // namespace

// ---------------------------------------------------------------------------
// SharedSocket

void SharedSocket::write(const Frame& frame,
                         std::chrono::milliseconds deadline) {
  const std::lock_guard<std::mutex> lock(mu_);
  socket_.write_frame(frame, deadline);
}

void SharedSocket::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  socket_.close();
}

// ---------------------------------------------------------------------------
// SessionMux

SessionMux::SessionMux(SessionLimits limits) : limits_(limits) {}

void SessionMux::set_control_handler(ControlHandler handler) {
  const std::lock_guard<std::mutex> lock(mu_);
  control_handler_ = std::move(handler);
}

void SessionMux::add_connection(const std::string& label,
                                std::shared_ptr<SharedSocket> socket) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!connections_.emplace(label, std::move(socket)).second) {
    throw ChannelError("session mux: duplicate connection '" + label + "'");
  }
}

SharedSocket& SessionMux::connection(const std::string& label) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = connections_.find(label);
  if (it == connections_.end()) {
    throw ChannelError("session mux: no connection '" + label + "'");
  }
  return *it->second;
}

SessionMux::SessionBox* SessionMux::find_locked(std::uint32_t session) {
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : &it->second;
}

void SessionMux::register_session(std::uint32_t session,
                                  std::chrono::milliseconds deadline) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = sessions_.try_emplace(session);
  if (!fresh) {
    throw ChannelError("session mux: session " + std::to_string(session) +
                       " already registered");
  }
  if (deadline.count() > 0) {
    it->second.deadline = deadline;
    it->second.deadline_ns = obs::monotonic_time_ns() +
                             static_cast<std::uint64_t>(deadline.count()) *
                                 1'000'000ull;
  }
  replay_orphans_locked(session, it->second);
}

void SessionMux::unregister_session(std::uint32_t session) {
  const std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(session);
}

void SessionMux::deliver_locked(SessionBox& box, const std::string& conn,
                                Frame frame) {
  Inbox& inbox = box.by_conn[conn];
  if (frame.kind == FrameKind::kBulletin) {
    inbox.bulletins.push_back(bulletin_value(std::move(frame.payload)));
    return;
  }
  // ACCEPT / REJECT / CLOSE queue apart from protocol messages under the
  // same cap: a TcpChannel never reads them, so a peer that keeps sending
  // them must fail its session rather than grow the queue.
  const bool message = frame.kind == FrameKind::kMessage;
  const std::size_t queued =
      message ? inbox.messages.size() : inbox.control.size();
  if (queued >= limits_.inbox_cap) {
    const std::string text = "session " + std::to_string(frame.session) +
                             ": inbox for '" + conn + "' overflowed its " +
                             std::to_string(limits_.inbox_cap) +
                             (message ? "-message" : "-control-frame") +
                             " cap";
    box.rethrow = [text] { throw ChannelBusy(text); };  // waiters rethrow
  } else if (message) {
    inbox.messages.push_back(std::move(frame.payload));
  } else {
    inbox.control.push_back(std::move(frame));
  }
}

void SessionMux::replay_orphans_locked(std::uint32_t session,
                                       SessionBox& box) {
  auto keep = orphans_.begin();
  for (auto it = orphans_.begin(); it != orphans_.end(); ++it) {
    if (it->second.session == session) {
      deliver_locked(box, it->first, std::move(it->second));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  orphans_.erase(keep, orphans_.end());
  cv_.notify_all();
}

void SessionMux::route(const std::string& conn, Frame frame) {
  if (frame.kind == FrameKind::kHello) {
    throw FramingError("session mux: HELLO from '" + conn +
                       "' after the handshake");
  }
  // Checked before the frame is queued or parked, so a bad bulletin fails
  // the connection that sent it, not the session that opens later.
  if (frame.kind == FrameKind::kBulletin) (void)bulletin_value(frame.payload);
  if (frame.kind == FrameKind::kSessionOpen) {
    ControlHandler open_handler;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_handler = control_handler_;
    }
    if (!open_handler) {
      throw FramingError("session mux: SESSION_OPEN on '" + conn +
                         "' but no admission handler is installed");
    }
    open_handler(conn, std::move(frame));
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (SessionBox* box = find_locked(frame.session)) {
    deliver_locked(*box, conn, std::move(frame));
    cv_.notify_all();
    return;
  }
  // Park for a session that has not opened here yet (the trunk can legally
  // race the client's SESSION_OPEN).  Bounded: beyond the cap the OLDEST
  // orphan goes — it belongs to the longest-dead or most-backlogged
  // session, never to the frame that just arrived.
  if (orphans_.size() >= limits_.orphan_cap) {
    orphans_.pop_front();
    ++orphans_dropped_;
  }
  orphans_.emplace_back(conn, std::move(frame));
}

void SessionMux::close_sockets() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [label, socket] : connections_) socket->close();
}

void SessionMux::close_connection(const std::string& conn,
                                  std::function<void()> rethrow) {
  const std::lock_guard<std::mutex> lock(mu_);
  closed_.emplace(conn, std::move(rethrow));
  cv_.notify_all();
}

void SessionMux::fail_connection(const std::string& conn,
                                 const std::string& why) {
  const std::string text = "connection to '" + conn + "' died: " + why;
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, box] : sessions_) {
    if (!box.rethrow) box.rethrow = [text] { throw ChannelClosed(text); };
  }
  cv_.notify_all();
}

template <typename T, typename Ready>
T SessionMux::wait_for(std::uint32_t session, const std::string& conn,
                       std::chrono::milliseconds deadline, const char* what,
                       Ready ready) {
  const std::uint64_t deadline_ns =
      obs::monotonic_time_ns() +
      static_cast<std::uint64_t>(deadline.count()) * 1'000'000ull;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    SessionBox* box = find_locked(session);
    if (box == nullptr) {
      throw ChannelClosed("session " + std::to_string(session) +
                          ": torn down while waiting for " + what);
    }
    if (box->rethrow) box->rethrow();
    const std::uint64_t now = obs::monotonic_time_ns();
    if (box->deadline_ns != 0 && now >= box->deadline_ns) {
      throw ChannelTimeout("session " + std::to_string(session) +
                           ": session deadline of " +
                           std::to_string(box->deadline.count()) +
                           "ms passed before " + what);
    }
    std::optional<T> got = ready(*box);
    if (got.has_value()) return *std::move(got);
    const auto closed = closed_.find(conn);
    if (closed != closed_.end()) closed->second();
    if (now >= deadline_ns) {
      throw ChannelTimeout("session " + std::to_string(session) + ": " +
                           what + " timed out after " +
                           std::to_string(deadline.count()) + "ms");
    }
    const std::uint64_t until = box->deadline_ns != 0
                                    ? std::min(deadline_ns, box->deadline_ns)
                                    : deadline_ns;
    cv_.wait_for(lock, std::chrono::nanoseconds(until - now));
  }
}

std::vector<std::uint8_t> SessionMux::recv_message(
    std::uint32_t session, const std::string& conn,
    std::chrono::milliseconds deadline) {
  return wait_for<std::vector<std::uint8_t>>(
      session, conn, deadline, "recv", [&conn](SessionBox& box) {
        auto it = box.by_conn.find(conn);
        std::optional<std::vector<std::uint8_t>> got;
        if (it != box.by_conn.end() && !it->second.messages.empty()) {
          got = std::move(it->second.messages.front());
          it->second.messages.pop_front();
        }
        return got;
      });
}

std::int64_t SessionMux::await_bulletin(std::uint32_t session,
                                        const std::string& conn,
                                        std::size_t index,
                                        std::chrono::milliseconds deadline) {
  return wait_for<std::int64_t>(
      session, conn, deadline, "await_public",
      [&conn, index](SessionBox& box) {
        auto it = box.by_conn.find(conn);
        std::optional<std::int64_t> got;
        if (it != box.by_conn.end() && index < it->second.bulletins.size()) {
          got = it->second.bulletins[index];
        }
        return got;
      });
}

Frame SessionMux::recv_control(std::uint32_t session, const std::string& conn,
                               std::chrono::milliseconds deadline) {
  return wait_for<Frame>(session, conn, deadline, "control frame",
                         [&conn](SessionBox& box) {
                           auto it = box.by_conn.find(conn);
                           std::optional<Frame> got;
                           if (it != box.by_conn.end() &&
                               !it->second.control.empty()) {
                             got = std::move(it->second.control.front());
                             it->second.control.pop_front();
                           }
                           return got;
                         });
}

std::size_t SessionMux::pending_messages(std::uint32_t session) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(session);
  std::size_t total = 0;
  if (it == sessions_.end()) return total;
  for (const auto& [conn, inbox] : it->second.by_conn) {
    total += inbox.messages.size();
  }
  return total;
}

std::size_t SessionMux::orphans_parked() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return orphans_.size();
}

std::size_t SessionMux::orphans_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return orphans_dropped_;
}

void attach_connection(
    EventLoop& loop, SessionMux& mux, const std::string& label,
    std::shared_ptr<SharedSocket> socket,
    std::function<void(const std::string&, const std::string&)> on_down) {
  mux.add_connection(label, socket);
  const int fd = socket->fd();
  auto assembler = std::make_shared<FrameAssembler>();
  loop.add_fd(fd, [&loop, &mux, label, socket, assembler, on_down, fd] {
    std::string why;  // set once the connection is down
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        assembler->feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) {
        why = "'" + label + "' closed the connection";
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        why = "recv from '" + label +
              "' failed: " + std::generic_category().message(errno);
      }
      break;  // drained for now, or down
    }
    // Route before reporting the connection down: a peer's last frames
    // often arrive in the same read as its FIN.  A hang-up is recorded, not
    // thrown, so it costs no stack unwinding.
    std::function<void()> rethrow;
    try {
      while (std::optional<Frame> frame = assembler->next()) {
        mux.route(label, *std::move(frame));
      }
      if (!why.empty()) rethrow = [why] { throw ChannelClosed(why); };
    } catch (const ChannelError& e) {
      why = e.what();
      rethrow = [error = std::current_exception()] {
        std::rethrow_exception(error);
      };
    }
    if (!rethrow) return;
    loop.remove_fd(fd);
    mux.close_connection(label, std::move(rethrow));
    if (on_down) on_down(label, why);
  });
}

}  // namespace pcl
