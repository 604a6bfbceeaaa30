#include "net/session/session_channel.h"

#include <utility>

#include "net/errors.h"

namespace pcl {

SessionChannel::SessionChannel(SessionMux& mux, SessionRoutes routes,
                               TrafficStats* stats)
    : mux_(mux), routes_(std::move(routes)), stats_(stats) {}

const std::string& SessionChannel::conn_for(const std::string& peer,
                                            const char* what) const {
  const auto it = routes_.conn_for.find(peer);
  if (it == routes_.conn_for.end()) {
    throw ChannelError(std::string(what) + ": '" + routes_.self +
                       "' has no session link to '" + peer + "'");
  }
  return it->second;
}

void SessionChannel::send(const std::string& to, MessageWriter message) {
  SharedSocket& socket = mux_.connection(conn_for(to, "send"));
  const std::string& label = step_.empty() ? kUnsetStep : step_;
  if (stats_ != nullptr) {
    stats_->record_send(label, routes_.self, to, message.size());
  }
  Frame frame;
  frame.kind = FrameKind::kMessage;
  frame.session = routes_.session;
  frame.step = label;
  frame.payload = std::move(message).take();
  socket.write(frame, routes_.send_deadline);
}

MessageReader SessionChannel::recv(const std::string& from) {
  return MessageReader(mux_.recv_message(
      routes_.session, conn_for(from, "recv"), routes_.recv_deadline));
}

void SessionChannel::post_public(std::int64_t value) {
  if (routes_.self != routes_.bulletin_host) {
    throw std::logic_error("post_public: only the bulletin host ('" +
                           routes_.bulletin_host + "') posts; '" +
                           routes_.self + "' tried to");
  }
  own_bulletins_.push_back(value);
  MessageWriter writer;
  writer.write_i64(value);
  Frame frame;
  frame.kind = FrameKind::kBulletin;
  frame.session = routes_.session;
  frame.step = step_.empty() ? kUnsetStep : step_;
  frame.payload = std::move(writer).take();
  for (const std::string& peer : routes_.bulletin_listeners) {
    try {
      mux_.connection(conn_for(peer, "post_public"))
          .write(frame, routes_.send_deadline);
    } catch (const ChannelError&) {
      // Fire-and-forget, as on every transport: a listener that already
      // finished (or died) must not wedge the verdict for everyone else.
    }
  }
}

std::int64_t SessionChannel::await_public() {
  if (routes_.self == routes_.bulletin_host) {
    if (bulletin_cursor_ < own_bulletins_.size()) {
      return own_bulletins_[bulletin_cursor_++];
    }
    throw std::logic_error(
        "await_public: the bulletin host has nothing to await");
  }
  const std::int64_t value = mux_.await_bulletin(
      routes_.session, conn_for(routes_.bulletin_host, "await_public"),
      bulletin_cursor_, routes_.recv_deadline);
  ++bulletin_cursor_;  // only once the entry is read: a timeout retries it
  return value;
}

}  // namespace pcl
