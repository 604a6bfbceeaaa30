#include "net/session/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

#include "net/errors.h"
#include "obs/trace.h"

namespace pcl {

namespace {

[[nodiscard]] std::string errno_text(int err) {
  return std::generic_category().message(err);
}

}  // namespace

EventLoop::EventLoop() {
  if (::pipe(wake_pipe_) < 0) {
    throw ChannelError("event loop: pipe() failed: " + errno_text(errno));
  }
  for (const int fd : wake_pipe_) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

EventLoop::~EventLoop() {
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void EventLoop::wake() {
  const std::uint8_t byte = 0;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)::write(wake_pipe_[1], &byte, 1);
}

void EventLoop::add_fd(int fd, Callback on_readable) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fds_[fd] = std::move(on_readable);
  }
  wake();
}

void EventLoop::remove_fd(int fd) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fds_.erase(fd);
  }
  wake();
}

std::uint64_t EventLoop::add_timer(std::chrono::milliseconds delay,
                                   Callback fn) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Round up so a timer never fires before its deadline; minimum one tick
  // keeps "fire now" requests from running inside add_timer's caller.
  const std::uint64_t ms = delay.count() < 0
                               ? 0
                               : static_cast<std::uint64_t>(delay.count());
  const std::size_t ticks =
      static_cast<std::size_t>((ms + kTickMs - 1) / kTickMs) + 1;
  const std::size_t slot = (wheel_pos_ + ticks) % kWheelSlots;
  const std::uint64_t id = next_timer_id_++;
  wheel_[slot].push_back(Timer{id, ticks / kWheelSlots, std::move(fn)});
  timer_slot_[id] = slot;
  wake();  // the poll timeout may need shortening
  return id;
}

void EventLoop::cancel_timer(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = timer_slot_.find(id);
  if (it == timer_slot_.end()) return;
  std::vector<Timer>& slot = wheel_[it->second];
  for (std::size_t i = 0; i < slot.size(); ++i) {
    if (slot[i].id == id) {
      slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  timer_slot_.erase(it);
}

void EventLoop::post(Callback task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    posted_.push_back(std::move(task));
  }
  wake();
}

void EventLoop::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake();
}

void EventLoop::advance_wheel_locked(std::vector<Callback>& due) {
  const std::uint64_t now = obs::monotonic_time_ns();
  while (next_tick_ns_ <= now) {
    wheel_pos_ = (wheel_pos_ + 1) % kWheelSlots;
    std::vector<Timer>& slot = wheel_[wheel_pos_];
    for (std::size_t i = 0; i < slot.size();) {
      if (slot[i].rounds == 0) {
        timer_slot_.erase(slot[i].id);
        due.push_back(std::move(slot[i].fn));
        slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        --slot[i].rounds;
        ++i;
      }
    }
    next_tick_ns_ += kTickMs * 1'000'000ull;
  }
}

void EventLoop::run() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    next_tick_ns_ = obs::monotonic_time_ns() + kTickMs * 1'000'000ull;
  }
  std::vector<struct pollfd> polled;
  std::vector<Callback> due;
  std::vector<int> readable;
  for (;;) {
    due.clear();
    readable.clear();
    polled.clear();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      // Posted tasks and due timers are collected under the lock but run
      // outside it, so callbacks may re-enter any EventLoop method.
      for (Callback& task : posted_) due.push_back(std::move(task));
      posted_.clear();
      advance_wheel_locked(due);
      polled.push_back({wake_pipe_[0], POLLIN, 0});
      for (const auto& [fd, cb] : fds_) polled.push_back({fd, POLLIN, 0});
    }
    for (Callback& fn : due) fn();
    const int r = ::poll(polled.data(), polled.size(),
                         static_cast<int>(kTickMs));
    if (r < 0 && errno != EINTR) {
      throw ChannelError("event loop: poll failed: " + errno_text(errno));
    }
    if (r > 0) {
      if ((polled[0].revents & POLLIN) != 0) {
        std::uint8_t drain[64];
        while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
        }
      }
      for (std::size_t i = 1; i < polled.size(); ++i) {
        // POLLHUP/POLLERR surface as readability so the owner's read
        // callback observes EOF and can tear the connection down itself.
        if ((polled[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          readable.push_back(polled[i].fd);
        }
      }
    }
    for (const int fd : readable) {
      Callback cb;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = fds_.find(fd);
        if (it == fds_.end()) continue;  // removed by an earlier callback
        cb = it->second;  // copy: the callback may remove_fd itself
      }
      cb();
    }
  }
}

}  // namespace pcl
