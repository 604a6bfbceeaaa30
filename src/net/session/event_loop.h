// EventLoop — a poll(2) reactor with a hashed timer wheel.
//
// The session server (session_server.h) multiplexes every connection of a
// daemon — the S1<->S2 trunk, one socket per user, and the client's control
// connection — through ONE of these: the loop thread owns the read side of
// every socket (nonblocking recv into per-connection FrameAssemblers, see
// session_mux.h) and never blocks on any single peer, so a stalled session
// cannot starve its neighbors of inbound frames.  Write sides are NOT owned
// here: worker threads write whole frames directly under per-socket mutexes
// (SharedSocket), because protocol sends are small and a frame write that
// briefly blocks one worker is cheaper than an outbound-queue reactor.
//
// Timers live in a single-level hashed wheel (kWheelSlots slots of kTickMs
// each; longer delays carry a rounds counter) — O(1) add/cancel/fire, which
// matters because every admitted session arms a watchdog deadline and a
// busy server churns through them constantly.  Wheel granularity is one
// tick: deadlines fire up to kTickMs late, never early.  That is exactly
// right for watchdogs and wrong for profiling — nothing in here feeds the
// obs latency histograms.
//
// Thread contract: run() occupies exactly one thread.  add_fd/remove_fd/
// add_timer/cancel_timer/post are safe from any thread (a self-pipe wakes
// the poller); callbacks always execute on the loop thread, so handler code
// needs no further locking against other handlers.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include <mutex>

namespace pcl {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  static constexpr std::size_t kWheelSlots = 128;
  static constexpr std::uint64_t kTickMs = 10;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Watches `fd` for readability; `on_readable` runs on the loop thread
  /// every time poll reports data (level-triggered — drain the fd).
  void add_fd(int fd, Callback on_readable);
  void remove_fd(int fd);

  /// Arms a one-shot timer; returns an id for cancel_timer.  Fires on the
  /// loop thread, at wheel granularity (up to one tick late, never early).
  [[nodiscard]] std::uint64_t add_timer(std::chrono::milliseconds delay,
                                        Callback fn);
  /// Cancels an armed timer; a no-op if it already fired or never existed.
  void cancel_timer(std::uint64_t id);

  /// Enqueues `task` to run on the loop thread before the next poll.
  void post(Callback task);

  /// Runs the reactor until stop(); call from exactly one thread, once.
  void run();
  /// Requests run() to return after the current dispatch; any thread.  A
  /// stop() that lands before run() starts makes run() return at once.
  void stop();

 private:
  struct Timer {
    std::uint64_t id;
    std::size_t rounds;  ///< full wheel revolutions left before firing
    Callback fn;
  };

  void wake();
  void advance_wheel_locked(std::vector<Callback>& due);

  std::mutex mu_;
  std::unordered_map<int, Callback> fds_;
  std::deque<Callback> posted_;
  std::vector<std::vector<Timer>> wheel_{kWheelSlots};
  std::unordered_map<std::uint64_t, std::size_t> timer_slot_;
  std::uint64_t next_timer_id_ = 1;
  std::size_t wheel_pos_ = 0;
  std::uint64_t next_tick_ns_ = 0;  ///< obs clock; 0 until run() starts
  bool stop_ = false;
  int wake_pipe_[2] = {-1, -1};
};

}  // namespace pcl
