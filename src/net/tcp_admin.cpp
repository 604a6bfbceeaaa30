#include "net/tcp_admin.h"

#include <cstdlib>
#include <utility>

#include "net/errors.h"

namespace pcl {
namespace {

using namespace std::chrono_literals;

/// Accept-poll granularity: how quickly stop() is noticed.
constexpr std::chrono::milliseconds kAcceptSlice{100};
/// Per-connection I/O deadline; admin exchanges are one small frame each
/// way, so a slow client cannot wedge the server for long.
constexpr std::chrono::milliseconds kIoDeadline{2000};

Frame command_frame(const std::string& step, std::string body) {
  Frame frame;
  frame.kind = FrameKind::kMessage;
  frame.step = step;
  frame.payload.assign(body.begin(), body.end());
  return frame;
}

}  // namespace

TcpEndpoint parse_admin_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    throw ChannelError("admin endpoint is not host:port: \"" + text + "\"");
  }
  const std::string port_text = text.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) {
    throw ChannelError("admin endpoint has a bad port: \"" + text + "\"");
  }
  return TcpEndpoint{text.substr(0, colon),
                     static_cast<std::uint16_t>(port)};
}

AdminServer::AdminServer(const TcpEndpoint& endpoint, Handler handler)
    : handler_(std::move(handler)) {
  TcpListener listener = TcpListener::bind(endpoint.host, endpoint.port);
  port_ = listener.port();
  thread_ = std::thread([this, moved = std::move(listener)]() mutable {
    serve(std::move(moved));
  });
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void AdminServer::serve(TcpListener listener) {
  while (!stop_.load(std::memory_order_acquire)) {
    TcpSocket client;
    try {
      client = listener.accept(kAcceptSlice);
    } catch (const ChannelTimeout&) {
      continue;  // idle slice; re-check the stop flag
    } catch (const ChannelError&) {
      break;  // listener died; nothing to serve on
    }
    try {
      const std::optional<Frame> request = recv_frame(client, kIoDeadline);
      if (!request.has_value() || request->kind != FrameKind::kMessage) {
        continue;
      }
      std::string status = "ok";
      std::string body;
      try {
        body = handler_(request->step);
      } catch (const std::exception& e) {
        status = "error";
        body = e.what();
      }
      // Flag before responding: a client that has read the acknowledgment
      // must observe quit_requested() == true.
      if (request->step == "quit" && status == "ok") {
        quit_.store(true, std::memory_order_release);
      }
      client.write_frame(command_frame(status, std::move(body)), kIoDeadline);
    } catch (const ChannelError&) {
      // A misbehaving or vanished client only costs its own connection.
    }
  }
}

std::string admin_request(const TcpEndpoint& endpoint,
                          const std::string& command,
                          std::chrono::milliseconds budget) {
  TcpSocket socket = TcpSocket::dial(endpoint, budget);
  socket.write_frame(command_frame(command, ""), kIoDeadline);
  const std::optional<Frame> response = recv_frame(socket, budget);
  if (!response.has_value()) {
    throw ChannelClosed("admin server closed before responding");
  }
  std::string body(response->payload.begin(), response->payload.end());
  if (response->step != "ok") {
    throw ChannelError("admin command \"" + command + "\" failed: " + body);
  }
  return body;
}

}  // namespace pcl
