// Real POSIX TCP transport — the frame codec, sockets and handshake that
// every TCP connection in the tree goes through.
//
// The in-process transport (Network, under either of the party runner's
// schedules) models the paper's two-server topology inside one address
// space; these pieces carry the same party programs across genuine process
// boundaries:
//
//   * Frame codec — every unit on the wire is a length-prefixed frame
//     [kind u8 | session u32 | step_len u32 | payload_len u32 | step |
//     payload] carrying the session id and the Channel step tag alongside
//     the serialized MessageWriter payload.  Frames are validated before
//     allocation (FramingError on violation).
//     FrameAssembler is the one decoder of inbound TCP bytes: the reactor
//     (src/net/session/) feeds it nonblocking reads, and recv_frame() drives
//     it for the few blocking reads (the handshake and the admin channel).
//   * TcpSocket / TcpListener — thin RAII wrappers: dial with bounded
//     retry + exponential backoff, poll-based sends and accepts with
//     per-call deadlines (ChannelTimeout).
//   * Handshake — dial_peer() / accept_peers(): each connection opens with
//     a HELLO frame naming the dialer, so the acceptor knows which peer a
//     socket carries.  TcpChannel (tcp_channel.h) and the serving daemons
//     (session_server.h / session_client.h) all connect through this pair.
//
// Construction sites are restricted by lint rule PC006: only src/net/tcp*,
// src/net/session/ and tools/pc_party may instantiate the TCP transport;
// everything else goes through run_parties(PartyTransport::kTcp) or the
// pc_party daemon.
//
// Endpoint maps are text: one "name host:port" per line, '#' comments.
// Hosts are numeric IPv4 (or the literal "localhost"); see PROTOCOL.md
// "Deployment".
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/errors.h"

namespace pcl {

// ---------------------------------------------------------------------------
// Endpoints

struct TcpEndpoint {
  std::string host;
  std::uint16_t port = 0;
  [[nodiscard]] bool operator==(const TcpEndpoint&) const = default;
};

/// Party name -> listening endpoint.  Only parties that ACCEPT connections
/// need an entry (users are pure dialers in the consensus topology).
using EndpointMap = std::map<std::string, TcpEndpoint>;

/// Parses the "name host:port" endpoint-map format; throws ChannelError on
/// malformed lines or duplicate names.
[[nodiscard]] EndpointMap parse_endpoint_map(const std::string& text);

/// Inverse of parse_endpoint_map (stable, sorted by name).
[[nodiscard]] std::string format_endpoint_map(const EndpointMap& map);

/// endpoints[name]; ChannelError naming the party when it has no entry.
[[nodiscard]] const TcpEndpoint& endpoint_of(const EndpointMap& endpoints,
                                             const std::string& name);

// ---------------------------------------------------------------------------
// Frame codec
//
// One header form for every frame, HELLO and session 0 included
// (PROTOCOL.md "Frame format"):
//
//   [kind u8 | session u32 | step_len u32 | payload_len u32 | step | payload]
//
// All integers little-endian.  A TcpChannel's frames carry session 0.

enum class FrameKind : std::uint8_t {
  kHello = 1,     ///< connection opener; payload = dialer's party name
  kMessage = 2,   ///< one MessageWriter payload, tagged with its step
  kBulletin = 3,  ///< public verdict push; payload = i64 value
  // Session-control kinds (src/net/session/).
  kSessionOpen = 4,    ///< open `session`; payload = u64 seed
  kSessionAccept = 5,  ///< admission granted for `session`
  kSessionReject = 6,  ///< admission refused; step = class, payload = why
  kSessionClose = 7,   ///< teardown notice; step = status, payload = detail
};

struct Frame {
  FrameKind kind = FrameKind::kMessage;
  std::uint32_t session = 0;  ///< 0 = a TcpChannel's one session
  std::string step;
  std::vector<std::uint8_t> payload;
};

/// Frame-header limits; a peer claiming more is cut off with FramingError
/// before any allocation.
inline constexpr std::size_t kMaxFrameStepBytes = 256;
inline constexpr std::size_t kMaxFramePayloadBytes =
    std::size_t{64} * 1024 * 1024;
/// The header: kind + u32 session + 2 x u32 length.
inline constexpr std::size_t kSessionFrameHeaderBytes = 13;

/// Serializes a frame (validating the limits above).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Parses a buffer holding exactly one frame (through a FrameAssembler);
/// throws FramingError on bad kind/lengths, truncation, or trailing bytes.
[[nodiscard]] Frame decode_frame(const std::vector<std::uint8_t>& bytes);

/// Incremental frame decoder for a byte stream, and the only frame decoder
/// (decode_frame wraps it): feed() whatever recv returned, then drain next()
/// until it comes back empty.
class FrameAssembler {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// Next complete frame, or nullopt if more bytes are needed.  Throws
  /// FramingError on a malformed header, poisoning the stream — the caller
  /// must tear the connection down (byte streams do not resynchronize).
  [[nodiscard]] std::optional<Frame> next();
  /// Bytes still missing before next() can return the frame in progress
  /// (1 when nothing is buffered, 0 when a frame is complete).  Throws
  /// FramingError exactly where next() would.
  [[nodiscard]] std::size_t needed() const;
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  /// The pending frame's length as far as the buffered bytes tell it: 1
  /// with nothing buffered, the header length until the header is in, then
  /// header plus body.
  [[nodiscard]] std::size_t frame_size() const;

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix, compacted between feeds
};

/// Jittered exponential dial backoff: attempt `attempt` (0-based) sleeps
/// base 10ms << attempt, capped at 500ms, scaled by a deterministic jitter
/// factor in [0.5, 1.0] derived from (jitter_seed, attempt) — so a fleet of
/// reconnecting clients with distinct seeds never thundering-herds one
/// listener, while any given schedule stays reproducible in tests.
[[nodiscard]] std::chrono::milliseconds dial_backoff(std::size_t attempt,
                                                     std::uint64_t jitter_seed);

// ---------------------------------------------------------------------------
// Sockets

struct TcpTimeouts {
  /// Total dial budget per peer (retries with exponential backoff inside).
  std::chrono::milliseconds connect = std::chrono::seconds(10);
  /// Deadline per accepted connection during the handshake.
  std::chrono::milliseconds accept = std::chrono::seconds(10);
  /// Per-recv deadline (ChannelTimeout when exceeded).
  std::chrono::milliseconds recv = std::chrono::seconds(30);
  /// Per-send deadline (a peer that stops draining its socket).
  std::chrono::milliseconds send = std::chrono::seconds(30);
};

/// RAII non-blocking connected socket.  All I/O is poll-driven with
/// deadlines; errors surface as the typed net/errors.h hierarchy.
class TcpSocket {
 public:
  TcpSocket() = default;
  /// Takes ownership of a connected fd (sets non-blocking + TCP_NODELAY).
  explicit TcpSocket(int fd);
  ~TcpSocket();
  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Connects to `endpoint`, retrying with exponential backoff until the
  /// budget runs out (ChannelTimeout).  Lets a dialer start before its
  /// peer's listener is up.
  [[nodiscard]] static TcpSocket dial(const TcpEndpoint& endpoint,
                                      std::chrono::milliseconds budget);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();

  /// Writes all of `bytes` within `deadline` (ChannelTimeout / ChannelError).
  void send_all(const std::vector<std::uint8_t>& bytes,
                std::chrono::milliseconds deadline);

  void write_frame(const Frame& frame, std::chrono::milliseconds deadline);

 private:
  int fd_ = -1;
};

/// Blocking read of one frame through a FrameAssembler, taking from the
/// socket only the bytes that frame still needs: whatever the peer queued
/// behind it (a dialer's first protocol frame behind its HELLO) stays in the
/// socket for the reactor.  nullopt on clean EOF at a frame boundary,
/// ChannelClosed on EOF mid-frame, ChannelTimeout past the deadline,
/// FramingError on an invalid header.
[[nodiscard]] std::optional<Frame> recv_frame(
    const TcpSocket& socket, std::chrono::milliseconds deadline);

/// RAII listening socket.  bind() with port 0 picks an ephemeral port
/// (read it back via port()) so parallel test runs never collide; adopt()
/// wraps a fork-inherited fd, which is how `pc_party --all` guarantees
/// every child's listener exists before any sibling dials.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] static TcpListener bind(const std::string& host,
                                        std::uint16_t port);
  [[nodiscard]] static TcpListener adopt(int fd);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] TcpSocket accept(std::chrono::milliseconds deadline);
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Handshake

/// Dialer side: connects to `endpoint` within timeouts.connect and announces
/// itself as `self` in a HELLO frame.
[[nodiscard]] TcpSocket dial_peer(const TcpEndpoint& endpoint,
                                  const std::string& self,
                                  const TcpTimeouts& timeouts);

/// Acceptor side: accepts until every name in `expected` has dialed in and
/// announced itself, each within timeouts.accept, and returns the sockets by
/// peer name.  A connection that closes first (ChannelClosed), opens with
/// another kind (FramingError) or names a peer outside `expected`
/// (ChannelError) fails the handshake.
[[nodiscard]] std::map<std::string, TcpSocket> accept_peers(
    TcpListener& listener, std::set<std::string> expected,
    const std::string& self, const TcpTimeouts& timeouts);

}  // namespace pcl
