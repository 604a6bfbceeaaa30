#include "net/channel.h"

#include <stdexcept>

namespace pcl {

namespace {
// BlockingNetwork has no ambient step label of its own; an untagged send
// falls back to Network's default so both transports bucket identically.
const std::string kUnsetStep = "(unset)";
}  // namespace

ChannelStepScope::ChannelStepScope(Channel& chan, std::string step,
                                   Timing timing, obs::Phase phase)
    : chan_(chan),
      step_(std::move(step)),
      previous_step_(chan.step()),
      timing_(timing),
      start_ns_(obs::monotonic_time_ns()),
      phase_scope_(phase),
      span_(step_.c_str()) {
  chan_.set_step(step_);
}

ChannelStepScope::~ChannelStepScope() {
  if (timing_ == Timing::kTimed) {
    chan_.add_step_time(step_, std::chrono::nanoseconds(
                                   obs::monotonic_time_ns() - start_ns_));
  }
  chan_.set_step(previous_step_);
}

NetworkChannel::NetworkChannel(Network& net, std::string self,
                               TrafficStats* timing_stats)
    : net_(net), self_(std::move(self)), timing_stats_(timing_stats) {}

void NetworkChannel::set_wait_hook(
    std::function<void(const std::string& from)> hook) {
  wait_hook_ = std::move(hook);
}

void NetworkChannel::set_public_hooks(std::function<void(std::int64_t)> post,
                                      std::function<std::int64_t()> await) {
  post_hook_ = std::move(post);
  await_hook_ = std::move(await);
}

void NetworkChannel::set_byte_counter(std::size_t* counter) {
  byte_counter_ = counter;
}

void NetworkChannel::send(const std::string& to, MessageWriter message) {
  // An empty channel step inherits the network's ambient label, so sync
  // drivers keep honouring a caller's Network::set_step.
  if (!step_.empty()) net_.set_step(step_);
  if (byte_counter_ != nullptr) *byte_counter_ += message.size();
  net_.send(self_, to, std::move(message));
}

MessageReader NetworkChannel::recv(const std::string& from) {
  if (wait_hook_ && !net_.has_pending(self_, from)) wait_hook_(from);
  return net_.recv(self_, from);
}

void NetworkChannel::add_step_time(const std::string& step,
                                   std::chrono::nanoseconds elapsed) {
  if (timing_stats_ != nullptr) timing_stats_->add_time(step, elapsed);
}

void NetworkChannel::post_public(std::int64_t value) {
  if (!post_hook_) {
    throw std::logic_error("NetworkChannel: no public bulletin attached");
  }
  post_hook_(value);
}

std::int64_t NetworkChannel::await_public() {
  if (!await_hook_) {
    throw std::logic_error("NetworkChannel: no public bulletin attached");
  }
  return await_hook_();
}

BlockingChannel::BlockingChannel(BlockingNetwork& net, std::string self,
                                 TrafficStats* stats)
    : net_(net), self_(std::move(self)), stats_(stats) {}

void BlockingChannel::set_public_hooks(std::function<void(std::int64_t)> post,
                                       std::function<std::int64_t()> await) {
  post_hook_ = std::move(post);
  await_hook_ = std::move(await);
}

void BlockingChannel::send(const std::string& to, MessageWriter message) {
  if (stats_ != nullptr) {
    const std::string& label = step_.empty() ? kUnsetStep : step_;
    stats_->record_send(label, self_, to, message.size());
  }
  net_.send(self_, to, std::move(message));
}

MessageReader BlockingChannel::recv(const std::string& from) {
  return net_.recv(self_, from);
}

void BlockingChannel::add_step_time(const std::string& step,
                                    std::chrono::nanoseconds elapsed) {
  if (stats_ != nullptr) stats_->add_time(step, elapsed);
}

void BlockingChannel::post_public(std::int64_t value) {
  if (!post_hook_) {
    throw std::logic_error("BlockingChannel: no public bulletin attached");
  }
  post_hook_(value);
}

std::int64_t BlockingChannel::await_public() {
  if (!await_hook_) {
    throw std::logic_error("BlockingChannel: no public bulletin attached");
  }
  return await_hook_();
}

}  // namespace pcl
