#include "net/channel.h"

namespace pcl {

ChannelStepScope::ChannelStepScope(Channel& chan, std::string step)
    : chan_(chan),
      step_(std::move(step)),
      previous_step_(chan.step()),
      phase_scope_(obs::Phase::kOnline),
      span_(step_.c_str()) {
  chan_.set_step(step_);
}

ChannelStepScope::~ChannelStepScope() { chan_.set_step(previous_step_); }

NetworkChannel::NetworkChannel(Network& net, std::string self)
    : net_(net), self_(std::move(self)) {}

void NetworkChannel::set_wait_hook(WaitHook hook) {
  wait_hook_ = std::move(hook);
}

void NetworkChannel::send(const std::string& to, MessageWriter message) {
  net_.send(self_, to, std::move(message), step_);
}

MessageReader NetworkChannel::recv(const std::string& from) {
  if (wait_hook_) {
    wait_hook_(from, [&] { return net_.has_pending(self_, from); });
  }
  return net_.wait_recv(self_, from);
}

void NetworkChannel::post_public(std::int64_t value) {
  net_.post_public(value);
}

std::int64_t NetworkChannel::await_public() {
  if (wait_hook_) {
    wait_hook_("public signal",
               [&] { return net_.has_public(public_cursor_); });
  }
  return net_.await_public(public_cursor_++);
}

}  // namespace pcl
