#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "bigint/rng.h"
#include "obs/trace.h"

namespace pcl {

namespace {

[[nodiscard]] std::string errno_text(int err) {
  return std::generic_category().message(err);
}

/// Absolute deadline (obs monotonic clock) for a relative budget.
[[nodiscard]] std::uint64_t deadline_ns_from(std::chrono::milliseconds d) {
  return obs::monotonic_time_ns() +
         static_cast<std::uint64_t>(d.count()) * 1'000'000ull;
}

/// Remaining milliseconds until `deadline_ns`, clamped to [0, INT_MAX] for
/// poll(); rounds up so a positive remainder never degrades to a busy spin.
[[nodiscard]] int remaining_ms(std::uint64_t deadline_ns) {
  const std::uint64_t now = obs::monotonic_time_ns();
  if (now >= deadline_ns) return 0;
  const std::uint64_t ms = (deadline_ns - now + 999'999ull) / 1'000'000ull;
  return ms > static_cast<std::uint64_t>(INT_MAX) ? INT_MAX
                                                  : static_cast<int>(ms);
}

/// Polls `fd` for `events` until the deadline; false on timeout.
[[nodiscard]] bool poll_fd(int fd, short events, std::uint64_t deadline_ns) {
  for (;;) {
    const int budget = remaining_ms(deadline_ns);
    if (budget == 0) return false;
    struct pollfd p{};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1, budget);
    if (r > 0) return true;
    if (r == 0) return false;
    if (errno != EINTR) {
      throw ChannelError("poll failed: " + errno_text(errno));
    }
  }
}

[[nodiscard]] struct sockaddr_in resolve_ipv4(const TcpEndpoint& endpoint) {
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  const std::string host =
      endpoint.host == "localhost" ? std::string("127.0.0.1") : endpoint.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ChannelError("unsupported host '" + endpoint.host +
                       "' (numeric IPv4 or \"localhost\" only)");
  }
  return addr;
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

[[nodiscard]] std::uint32_t get_u32le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

/// The kind byte: the first checkpoint of every decode, so a stream is
/// rejected at the byte that breaks it.
[[nodiscard]] FrameKind check_kind(std::uint8_t raw_kind) {
  if (raw_kind < static_cast<std::uint8_t>(FrameKind::kHello) ||
      raw_kind > static_cast<std::uint8_t>(FrameKind::kSessionClose)) {
    throw FramingError("frame: unknown kind " + std::to_string(raw_kind));
  }
  return static_cast<FrameKind>(raw_kind);
}

struct FrameHeader {
  FrameKind kind;
  std::uint32_t session;
  std::uint32_t step_len;
  std::uint32_t payload_len;
};

/// Validates a whole header; the single length checkpoint every decode goes
/// through.
[[nodiscard]] FrameHeader check_header(const std::uint8_t* p) {
  FrameHeader header;
  header.kind = check_kind(p[0]);
  header.session = get_u32le(p + 1);
  header.step_len = get_u32le(p + 5);
  header.payload_len = get_u32le(p + 9);
  if (header.step_len > kMaxFrameStepBytes) {
    throw FramingError("frame: step length " +
                       std::to_string(header.step_len) + " exceeds the " +
                       std::to_string(kMaxFrameStepBytes) + "-byte cap");
  }
  if (header.payload_len > kMaxFramePayloadBytes) {
    throw FramingError("frame: payload length " +
                       std::to_string(header.payload_len) + " exceeds the " +
                       std::to_string(kMaxFramePayloadBytes) + "-byte cap");
  }
  return header;
}

}  // namespace

// ---------------------------------------------------------------------------
// Endpoints

EndpointMap parse_endpoint_map(const std::string& text) {
  EndpointMap map;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string name, address;
    if (!(fields >> name)) continue;  // blank / comment-only line
    std::string extra;
    if (!(fields >> address) || (fields >> extra)) {
      throw ChannelError("endpoint map line " + std::to_string(line_no) +
                         ": expected \"name host:port\"");
    }
    const std::size_t colon = address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == address.size()) {
      throw ChannelError("endpoint map line " + std::to_string(line_no) +
                         ": address '" + address + "' is not host:port");
    }
    unsigned long port = 0;
    try {
      std::size_t used = 0;
      port = std::stoul(address.substr(colon + 1), &used);
      if (used != address.size() - colon - 1) port = 65536;
    } catch (const std::exception&) {
      port = 65536;
    }
    if (port == 0 || port > 65535) {
      throw ChannelError("endpoint map line " + std::to_string(line_no) +
                         ": bad port in '" + address + "'");
    }
    if (!map.emplace(name, TcpEndpoint{address.substr(0, colon),
                                       static_cast<std::uint16_t>(port)})
             .second) {
      throw ChannelError("endpoint map line " + std::to_string(line_no) +
                         ": duplicate party '" + name + "'");
    }
  }
  return map;
}

std::string format_endpoint_map(const EndpointMap& map) {
  std::string out;
  for (const auto& [name, endpoint] : map) {
    out += name + " " + endpoint.host + ":" + std::to_string(endpoint.port) +
           "\n";
  }
  return out;
}

const TcpEndpoint& endpoint_of(const EndpointMap& endpoints,
                               const std::string& name) {
  const auto it = endpoints.find(name);
  if (it == endpoints.end()) {
    throw ChannelError("endpoint map has no entry for '" + name + "'");
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Frame codec

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.step.size() > kMaxFrameStepBytes) {
    throw FramingError("frame: step label too long (" +
                       std::to_string(frame.step.size()) + " bytes)");
  }
  if (frame.payload.size() > kMaxFramePayloadBytes) {
    throw FramingError("frame: payload too large (" +
                       std::to_string(frame.payload.size()) + " bytes)");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kSessionFrameHeaderBytes + frame.step.size() +
              frame.payload.size());
  out.push_back(static_cast<std::uint8_t>(frame.kind));
  put_u32le(out, frame.session);
  put_u32le(out, static_cast<std::uint32_t>(frame.step.size()));
  put_u32le(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.step.begin(), frame.step.end());
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

Frame decode_frame(const std::vector<std::uint8_t>& bytes) {
  FrameAssembler assembler;
  assembler.feed(bytes.data(), bytes.size());
  std::optional<Frame> frame = assembler.next();
  if (!frame.has_value()) {
    throw FramingError("frame: truncated (" + std::to_string(bytes.size()) +
                       " bytes, " + std::to_string(assembler.needed()) +
                       " more needed)");
  }
  if (assembler.buffered() != 0) {
    throw FramingError("frame: " + std::to_string(assembler.buffered()) +
                       " trailing bytes");
  }
  return *std::move(frame);
}

void FrameAssembler::feed(const std::uint8_t* data, std::size_t n) {
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // steady-state feeds append without shifting.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::size_t FrameAssembler::frame_size() const {
  const std::size_t have = buffered();
  if (have == 0) return 1;
  (void)check_kind(buf_[pos_]);
  if (have < kSessionFrameHeaderBytes) return kSessionFrameHeaderBytes;
  const FrameHeader h = check_header(buf_.data() + pos_);
  return kSessionFrameHeaderBytes + h.step_len + h.payload_len;
}

std::size_t FrameAssembler::needed() const {
  const std::size_t size = frame_size();
  return size > buffered() ? size - buffered() : 0;
}

std::optional<Frame> FrameAssembler::next() {
  const std::size_t size = frame_size();
  if (buffered() < size) return std::nullopt;
  const std::uint8_t* p = buf_.data() + pos_;
  const FrameHeader header = check_header(p);
  const std::uint8_t* step = p + kSessionFrameHeaderBytes;
  const std::uint8_t* payload = step + header.step_len;
  Frame frame;
  frame.kind = header.kind;
  frame.session = header.session;
  frame.step.assign(step, payload);
  frame.payload.assign(payload, payload + header.payload_len);
  pos_ += size;
  return frame;
}

std::chrono::milliseconds dial_backoff(std::size_t attempt,
                                       std::uint64_t jitter_seed) {
  constexpr std::uint64_t kBaseMs = 10;
  constexpr std::uint64_t kCapMs = 500;
  const std::uint64_t full =
      attempt >= 6 ? kCapMs : std::min(kBaseMs << attempt, kCapMs);
  // splitmix64 over (seed, attempt): decorrelates concurrent dialers without
  // any shared RNG state, and a fixed seed replays the schedule in tests.
  const std::uint64_t x = splitmix64(jitter_seed, attempt);
  // Uniform in [full/2, full]: never below half the nominal step (retries
  // stay cheap) and never above the cap (bounded added latency).
  const std::uint64_t half = full / 2;
  return std::chrono::milliseconds(
      static_cast<std::int64_t>(half + x % (half + 1)));
}

// ---------------------------------------------------------------------------
// TcpSocket

TcpSocket::TcpSocket(int fd) : fd_(fd) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw ChannelError("fcntl(O_NONBLOCK) failed: " + errno_text(err));
  }
  const int one = 1;
  // Protocol messages are latency-sensitive request/response pairs;
  // Nagle-induced 40ms stalls would dwarf every crypto op at this scale.
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpSocket::~TcpSocket() { close(); }

TcpSocket::TcpSocket(TcpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void TcpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpSocket TcpSocket::dial(const TcpEndpoint& endpoint,
                          std::chrono::milliseconds budget) {
  const struct sockaddr_in addr = resolve_ipv4(endpoint);
  const std::uint64_t deadline = deadline_ns_from(budget);
  // Seed the jitter from the monotonic clock so concurrent dialers (e.g. a
  // whole user fleet reconnecting to one listener) spread their retries.
  const std::uint64_t jitter_seed = obs::monotonic_time_ns();
  std::size_t attempt = 0;
  int last_err = 0;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw ChannelError("socket() failed: " + errno_text(errno));
    if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return TcpSocket(fd);
    }
    last_err = errno;
    ::close(fd);
    if (remaining_ms(deadline) == 0) break;
    // The listener may simply not be up yet (process start skew); back off
    // exponentially so retries stay cheap without adding seconds of latency.
    std::this_thread::sleep_for(dial_backoff(attempt++, jitter_seed));
  }
  throw ChannelTimeout("dial " + endpoint.host + ":" +
                       std::to_string(endpoint.port) + " timed out after " +
                       std::to_string(budget.count()) +
                       "ms (last error: " + errno_text(last_err) + ")");
}

void TcpSocket::send_all(const std::vector<std::uint8_t>& bytes,
                         std::chrono::milliseconds deadline) {
  const std::uint64_t deadline_ns = deadline_ns_from(deadline);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!poll_fd(fd_, POLLOUT, deadline_ns)) {
        throw ChannelTimeout("send timed out after " +
                             std::to_string(deadline.count()) + "ms");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      throw ChannelClosed("send failed: peer closed the connection");
    }
    throw ChannelError("send failed: " + errno_text(errno));
  }
}

void TcpSocket::write_frame(const Frame& frame,
                            std::chrono::milliseconds deadline) {
  send_all(encode_frame(frame), deadline);
}

std::optional<Frame> recv_frame(const TcpSocket& socket,
                                std::chrono::milliseconds deadline) {
  const std::uint64_t deadline_ns = deadline_ns_from(deadline);
  FrameAssembler assembler;
  std::uint8_t buf[4096];
  for (;;) {
    if (std::optional<Frame> frame = assembler.next()) return frame;
    // Never ask for more than the frame in progress still needs: bytes past
    // it belong to whoever reads the socket next.
    const std::size_t want = std::min(assembler.needed(), sizeof(buf));
    const ssize_t r = ::recv(socket.fd(), buf, want, 0);
    if (r > 0) {
      assembler.feed(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0) {
      if (assembler.buffered() == 0) return std::nullopt;  // clean EOF
      throw ChannelClosed("recv: peer closed the connection mid-frame (" +
                          std::to_string(assembler.buffered()) +
                          " bytes of an unfinished frame)");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_fd(socket.fd(), POLLIN, deadline_ns)) {
        throw ChannelTimeout("recv timed out after " +
                             std::to_string(deadline.count()) + "ms");
      }
      continue;
    }
    if (errno == EINTR) continue;
    throw ChannelClosed("recv failed: " + errno_text(errno));
  }
}

// ---------------------------------------------------------------------------
// TcpListener

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(std::exchange(other.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

[[nodiscard]] std::uint16_t bound_port(int fd) {
  struct sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    throw ChannelError("getsockname failed: " + errno_text(errno));
  }
  return ntohs(addr.sin_port);
}

}  // namespace

TcpListener TcpListener::bind(const std::string& host, std::uint16_t port) {
  const struct sockaddr_in addr = resolve_ipv4(TcpEndpoint{host, port});
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw ChannelError("socket() failed: " + errno_text(errno));
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw ChannelError("bind " + host + ":" + std::to_string(port) +
                       " failed: " + errno_text(err));
  }
  // Backlog must cover a whole topology dialing at once before this party
  // reaches its accept loop (pre-bound listeners, see accept_peers).
  if (::listen(fd, 128) < 0) {
    const int err = errno;
    ::close(fd);
    throw ChannelError("listen failed: " + errno_text(err));
  }
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = bound_port(fd);
  return listener;
}

TcpListener TcpListener::adopt(int fd) {
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = bound_port(fd);
  return listener;
}

TcpSocket TcpListener::accept(std::chrono::milliseconds deadline) {
  const std::uint64_t deadline_ns = deadline_ns_from(deadline);
  for (;;) {
    if (!poll_fd(fd_, POLLIN, deadline_ns)) {
      throw ChannelTimeout("accept timed out after " +
                           std::to_string(deadline.count()) + "ms");
    }
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return TcpSocket(fd);
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      throw ChannelError("accept failed: " + errno_text(errno));
    }
  }
}

// ---------------------------------------------------------------------------
// Handshake

TcpSocket dial_peer(const TcpEndpoint& endpoint, const std::string& self,
                    const TcpTimeouts& timeouts) {
  TcpSocket socket = TcpSocket::dial(endpoint, timeouts.connect);
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.payload.assign(self.begin(), self.end());
  socket.write_frame(hello, timeouts.send);
  return socket;
}

std::map<std::string, TcpSocket> accept_peers(TcpListener& listener,
                                              std::set<std::string> expected,
                                              const std::string& self,
                                              const TcpTimeouts& timeouts) {
  std::map<std::string, TcpSocket> peers;
  while (!expected.empty()) {
    TcpSocket socket = listener.accept(timeouts.accept);
    const std::optional<Frame> hello = recv_frame(socket, timeouts.accept);
    if (!hello.has_value()) {
      throw ChannelClosed("peer closed the connection during handshake");
    }
    if (hello->kind != FrameKind::kHello) {
      throw FramingError("expected HELLO, got frame kind " +
                         std::to_string(static_cast<int>(hello->kind)));
    }
    std::string name(hello->payload.begin(), hello->payload.end());
    if (expected.erase(name) == 0) {
      throw ChannelError("unexpected peer '" + name + "' dialed '" + self +
                         "'");
    }
    peers.emplace(std::move(name), std::move(socket));
  }
  return peers;
}

}  // namespace pcl
