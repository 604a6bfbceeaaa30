#include "net/transport.h"

#include <algorithm>
#include <stdexcept>

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

void TrafficStats::add_time(const std::string& step,
                            std::chrono::nanoseconds elapsed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  time_[step] += elapsed;
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

double TrafficStats::seconds_for(const std::string& step) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = time_.find(step);
  if (it == time_.end()) return 0.0;
  return std::chrono::duration<double>(it->second).count();
}

double TrafficStats::total_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::chrono::nanoseconds total{0};
  for (const auto& [step, elapsed] : time_) total += elapsed;
  return std::chrono::duration<double>(total).count();
}

std::vector<std::string> TrafficStats::steps() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [step, elapsed] : time_) out.push_back(step);
  for (const auto& [key, totals] : traffic_) {
    if (std::find(out.begin(), out.end(), key.step) == out.end()) {
      out.push_back(key.step);
    }
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
  time_.clear();
}

void Network::send(const std::string& from, const std::string& to,
                   MessageWriter message) {
  std::vector<std::uint8_t> bytes = std::move(message).take();
  if (stats_ != nullptr) stats_->record_send(step_, from, to, bytes.size());
  if (record_transcript_) {
    transcript_.push_back({step_, from, to, bytes.size()});
  }
  queues_[{from, to}].push_back(std::move(bytes));
}

MessageReader Network::recv(const std::string& to, const std::string& from) {
  const auto it = queues_.find({from, to});
  if (it == queues_.end() || it->second.empty()) {
    throw std::logic_error("Network::recv: no pending message from '" + from +
                           "' to '" + to + "'");
  }
  std::vector<std::uint8_t> bytes = std::move(it->second.front());
  it->second.pop_front();
  return MessageReader(std::move(bytes));
}

bool Network::has_pending(const std::string& to,
                          const std::string& from) const {
  const auto it = queues_.find({from, to});
  return it != queues_.end() && !it->second.empty();
}

std::size_t Network::pending_total() const {
  std::size_t total = 0;
  for (const auto& [link, queue] : queues_) total += queue.size();
  return total;
}

}  // namespace pcl
