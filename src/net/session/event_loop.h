// EventLoop — a poll(2) reactor over socket read sides.
//
// Every protocol connection in the tree is read through one of these: a
// session daemon (session_server.h) runs one for its S1<->S2 trunk, user
// sockets and control connection, the session client runs one, and so does
// each TcpChannel (tcp_channel.h).  The loop thread owns the read side of
// every socket (nonblocking recv into per-connection FrameAssemblers, see
// session_mux.h) and never blocks on any single peer, so a stalled session
// cannot starve its neighbors of inbound frames.  Write sides are NOT owned
// here: worker threads write whole frames directly under per-socket mutexes
// (SharedSocket), because protocol sends are small and a frame write that
// briefly blocks one worker is cheaper than an outbound-queue reactor.
//
// The loop keeps no timers: deadlines belong to the waits that need them
// (SessionMux bounds every receive, and a session's own deadline, see
// session_mux.h).  poll blocks until a watched fd or the wake pipe is
// readable, with no timeout, so a change made from another thread must
// write the pipe or the loop would not see it.
//
// Thread contract: run() occupies exactly one thread.  add_fd/remove_fd/
// stop are safe from any thread (each writes the self-pipe after changing
// the loop's state under its mutex); callbacks always execute on the loop
// thread, so handler code needs no further locking against other handlers.
#pragma once

#include <functional>
#include <mutex>
#include <unordered_map>

namespace pcl {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Watches `fd` for readability; `on_readable` runs on the loop thread
  /// every time poll reports data (level-triggered — drain the fd).
  void add_fd(int fd, Callback on_readable);
  void remove_fd(int fd);

  /// Runs the reactor until stop(); call from exactly one thread, once.
  void run();
  /// Requests run() to return after the current dispatch; any thread.  A
  /// stop() that lands before run() starts makes run() return at once.
  void stop();

 private:
  void wake();

  std::mutex mu_;
  std::unordered_map<int, Callback> fds_;
  bool stop_ = false;
  int wake_pipe_[2] = {-1, -1};
};

}  // namespace pcl
