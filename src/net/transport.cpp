#include "net/transport.h"

#include <stdexcept>

#include "net/errors.h"

namespace pcl {

namespace {
bool matches_category(const std::string& party, const std::string& category) {
  if (category.empty()) return true;
  return party.rfind(category, 0) == 0;  // prefix match
}
}  // namespace

void TrafficStats::record_send(const std::string& step, const std::string& from,
                               const std::string& to, std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  LinkTotals& totals = traffic_[Key{step, from, to}];
  totals.bytes += bytes;
  totals.messages += 1;
}

std::size_t TrafficStats::bytes_for(const std::string& step,
                                    const std::string& from_category,
                                    const std::string& to_category) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, totals] : traffic_) {
    if (key.step == step && matches_category(key.from, from_category) &&
        matches_category(key.to, to_category)) {
      total += totals.bytes;
    }
  }
  return total;
}

std::size_t TrafficStats::messages_for(const std::string& step,
                                       const std::string& from_category,
                                       const std::string& to_category) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, totals] : traffic_) {
    if (key.step == step && matches_category(key.from, from_category) &&
        matches_category(key.to, to_category)) {
      total += totals.messages;
    }
  }
  return total;
}

std::vector<std::string> TrafficStats::steps() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [key, totals] : traffic_) {
    if (out.empty() || out.back() != key.step) out.push_back(key.step);
  }
  return out;
}

std::vector<TrafficStats::Entry> TrafficStats::traffic_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> out;
  out.reserve(traffic_.size());
  for (const auto& [key, totals] : traffic_) {
    out.push_back({key.step, key.from, key.to, totals.bytes, totals.messages});
  }
  return out;
}

obs::TrafficByStep TrafficStats::by_step() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  obs::TrafficByStep out;
  for (const auto& [key, totals] : traffic_) {
    obs::StepTraffic& step = out[key.step];
    step.bytes += totals.bytes;
    step.messages += totals.messages;
  }
  return out;
}

void TrafficStats::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  traffic_.clear();
}

void Network::send(const std::string& from, const std::string& to,
                   MessageWriter message, const std::string& step) {
  std::vector<std::uint8_t> bytes = std::move(message).take();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::string& label = step.empty() ? kUnsetStep : step;
    if (stats_ != nullptr) stats_->record_send(label, from, to, bytes.size());
    if (record_transcript_) {
      transcript_.push_back({label, from, to, bytes.size()});
    }
    bytes_sent_ += bytes.size();
    queues_[{from, to}].push_back(std::move(bytes));
  }
  changed_.notify_all();
}

MessageReader Network::recv(const std::string& to, const std::string& from) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = queues_.find({from, to});
  if (it == queues_.end() || it->second.empty()) {
    throw std::logic_error("Network::recv: no pending message from '" + from +
                           "' to '" + to + "'");
  }
  std::vector<std::uint8_t> bytes = std::move(it->second.front());
  it->second.pop_front();
  return MessageReader(std::move(bytes));
}

template <typename Ready, typename Describe>
void Network::wait(std::unique_lock<std::mutex>& lock, Ready ready,
                   Describe what) {
  if (!changed_.wait_for(lock, recv_timeout_,
                         [&] { return ready() || closed_; })) {
    throw ChannelTimeout("Network: timed out " + what());
  }
  if (!ready()) throw ChannelClosed("Network: closed while " + what());
}

MessageReader Network::wait_recv(const std::string& to,
                                 const std::string& from) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto& queue = queues_[{from, to}];
  wait(lock, [&queue] { return !queue.empty(); },
       [&] { return "waiting for '" + from + "' -> '" + to + "'"; });
  std::vector<std::uint8_t> bytes = std::move(queue.front());
  queue.pop_front();
  return MessageReader(std::move(bytes));
}

bool Network::has_pending(const std::string& to,
                          const std::string& from) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = queues_.find({from, to});
  return it != queues_.end() && !it->second.empty();
}

std::size_t Network::pending_total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [link, queue] : queues_) total += queue.size();
  return total;
}

std::size_t Network::bytes_sent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_sent_;
}

void Network::post_public(std::int64_t value) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    bulletin_.push_back(value);
  }
  changed_.notify_all();
}

bool Network::has_public(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index < bulletin_.size();
}

std::int64_t Network::await_public(std::size_t index) {
  std::unique_lock<std::mutex> lock(mutex_);
  wait(lock, [&] { return index < bulletin_.size(); },
       [] { return std::string("awaiting the public signal"); });
  return bulletin_[index];
}

void Network::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  changed_.notify_all();
}

void Network::record_transcript(bool enable) {
  const std::lock_guard<std::mutex> lock(mutex_);
  record_transcript_ = enable;
}

std::vector<TranscriptEntry> Network::transcript() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return transcript_;
}

}  // namespace pcl
