#include "net/blocking_network.h"

#include <stdexcept>

namespace pcl {

void BlockingNetwork::send(const std::string& from, const std::string& to,
                           MessageWriter message) {
  std::vector<std::uint8_t> bytes = std::move(message).take();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    bytes_sent_ += bytes.size();
    queues_[{from, to}].push_back(std::move(bytes));
  }
  cv_.notify_all();
}

MessageReader BlockingNetwork::recv(const std::string& to,
                                    const std::string& from) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto& queue = queues_[{from, to}];
  if (!cv_.wait_for(lock, recv_timeout_,
                    [&queue] { return !queue.empty(); })) {
    throw RecvTimeoutError("BlockingNetwork::recv timed out waiting for '" +
                           from + "' -> '" + to + "'");
  }
  std::vector<std::uint8_t> bytes = std::move(queue.front());
  queue.pop_front();
  return MessageReader(std::move(bytes));
}

std::size_t BlockingNetwork::pending_total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [link, queue] : queues_) total += queue.size();
  return total;
}

std::size_t BlockingNetwork::bytes_sent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_sent_;
}

}  // namespace pcl
