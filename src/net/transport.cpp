#include "net/transport.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "net/errors.h"

namespace pcl {

namespace {
bool matches_category(const std::string& party, const std::string& category) {
  if (category.empty()) return true;
  return party.rfind(category, 0) == 0;  // prefix match
}
}  // namespace

std::optional<std::uint32_t> TrafficStats::find_name(
    const std::string& name) const {
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return std::nullopt;
  return static_cast<std::uint32_t>(it - names_.begin());
}

void TrafficStats::intern(const std::string& name) {
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it != names_.end() && *it == name) return;
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  names_.insert(it, name);
  // Every id at or past the new name's moves up by one; the shift keeps
  // the rows' order.
  for (Row& row : rows_) {
    for (std::uint32_t* field : {&row.step, &row.from, &row.to}) {
      if (*field >= id) ++*field;
    }
  }
}

void TrafficStats::record_send(const std::string& step, const std::string& from,
                               const std::string& to, std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Interning renumbers ids, so read them once all three names are in.
  for (const std::string* name : {&step, &from, &to}) intern(*name);
  const Row probe{*find_name(step), *find_name(from), *find_name(to), {}};
  const auto key = [](const Row& row) {
    return std::tie(row.step, row.from, row.to);
  };
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), probe,
      [&](const Row& a, const Row& b) { return key(a) < key(b); });
  if (it == rows_.end() || key(*it) != key(probe)) {
    it = rows_.insert(it, probe);
  }
  it->totals.bytes += bytes;
  it->totals.messages += 1;
}

std::pair<std::size_t, std::size_t> TrafficStats::step_rows(
    const std::string& step) const {
  const std::optional<std::uint32_t> id = find_name(step);
  if (!id.has_value()) return {0, 0};
  const auto [first, last] = std::equal_range(
      rows_.begin(), rows_.end(), Row{*id, 0, 0, {}},
      [](const Row& a, const Row& b) { return a.step < b.step; });
  return {static_cast<std::size_t>(first - rows_.begin()),
          static_cast<std::size_t>(last - rows_.begin())};
}

template <class Field>
std::size_t TrafficStats::sum_for(const std::string& step,
                                  const std::string& from_category,
                                  const std::string& to_category,
                                  Field field) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [first, last] = step_rows(step);
  std::size_t total = 0;
  for (std::size_t i = first; i < last; ++i) {
    const Row& row = rows_[i];
    if (matches_category(names_[row.from], from_category) &&
        matches_category(names_[row.to], to_category)) {
      total += row.totals.*field;
    }
  }
  return total;
}

std::size_t TrafficStats::bytes_for(const std::string& step,
                                    const std::string& from_category,
                                    const std::string& to_category) const {
  return sum_for(step, from_category, to_category, &LinkTotals::bytes);
}

std::size_t TrafficStats::messages_for(const std::string& step,
                                       const std::string& from_category,
                                       const std::string& to_category) const {
  return sum_for(step, from_category, to_category, &LinkTotals::messages);
}

std::vector<std::string> TrafficStats::steps() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i == 0 || rows_[i].step != rows_[i - 1].step) {
      out.push_back(names_[rows_[i].step]);
    }
  }
  return out;
}

std::vector<TrafficStats::Entry> TrafficStats::traffic_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> out;
  out.reserve(rows_.size());
  for (const Row& row : rows_) {
    out.push_back({names_[row.step], names_[row.from], names_[row.to],
                   row.totals.bytes, row.totals.messages});
  }
  return out;
}

obs::TrafficByStep TrafficStats::by_step() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  obs::TrafficByStep out;
  for (const Row& row : rows_) {
    obs::StepTraffic& step = out[names_[row.step]];
    step.bytes += row.totals.bytes;
    step.messages += row.totals.messages;
  }
  return out;
}

void TrafficStats::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  names_.clear();
  rows_.clear();
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
