#include "net/session/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "net/errors.h"

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

void EventLoop::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake();
}

void EventLoop::run() {
  std::vector<struct pollfd> polled;
  std::vector<int> readable;
  for (;;) {
    readable.clear();
    polled.clear();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      polled.push_back({wake_pipe_[0], POLLIN, 0});
      for (const auto& [fd, cb] : fds_) polled.push_back({fd, POLLIN, 0});
    }
    // No timeout: stop() and add_fd() write the wake pipe after changing
    // state under mu_, so a change made after the snapshot above still
    // ends this poll, and one made before it is already in the snapshot.
    const int r = ::poll(polled.data(), polled.size(), -1);
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
