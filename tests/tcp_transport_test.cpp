// TCP transport unit tests: endpoint maps, the frame codec, and a live
// two-party TcpChannel over real loopback sockets — including the typed
// failure surface (ChannelTimeout / ChannelClosed / FramingError), the
// session-0 byte stream pinned against literal bytes, and the
// key-distribution round-trips (key_io + segmentation) across a socket.
#include "net/tcp_transport.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "crypto/key_io.h"
#include "crypto/paillier.h"
#include "net/errors.h"
#include "net/segmentation.h"
#include "net/tcp_channel.h"

namespace pcl {
namespace {

using std::chrono::milliseconds;

TEST(EndpointMap, RoundTripsThroughText) {
  EndpointMap map;
  map["S1"] = TcpEndpoint{"127.0.0.1", 5001};
  map["S2"] = TcpEndpoint{"10.0.0.7", 5002};
  const std::string text = format_endpoint_map(map);
  EXPECT_EQ(parse_endpoint_map(text), map);
}

TEST(EndpointMap, ParsesCommentsAndBlankLines) {
  const EndpointMap map = parse_endpoint_map(
      "# deployment hosts\n"
      "\n"
      "S1 127.0.0.1:4000\n"
      "  S2   localhost:4001  # trailing comment\n");
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at("S1").port, 4000);
  EXPECT_EQ(map.at("S2").host, "localhost");
}

TEST(EndpointMap, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_endpoint_map("S1 127.0.0.1"), ChannelError);
  EXPECT_THROW((void)parse_endpoint_map("S1 127.0.0.1:0"), ChannelError);
  EXPECT_THROW((void)parse_endpoint_map("S1 127.0.0.1:99999"), ChannelError);
  EXPECT_THROW((void)parse_endpoint_map("S1 h:1\nS1 h:2\n"), ChannelError);
  EXPECT_THROW((void)parse_endpoint_map("just-a-name\n"), ChannelError);
}

TEST(FrameCodec, RoundTrips) {
  Frame frame;
  frame.kind = FrameKind::kMessage;
  frame.step = "Secure Sum (2)";
  frame.payload = {1, 2, 3, 250};
  const Frame back = decode_frame(encode_frame(frame));
  EXPECT_EQ(back.kind, frame.kind);
  EXPECT_EQ(back.step, frame.step);
  EXPECT_EQ(back.payload, frame.payload);
}

TEST(FrameCodec, RejectsOversizedStep) {
  Frame frame;
  frame.step = std::string(kMaxFrameStepBytes + 1, 's');
  EXPECT_THROW((void)encode_frame(frame), FramingError);
}

TEST(FrameCodec, TruncationSweepThrowsTyped) {
  Frame frame;
  frame.kind = FrameKind::kBulletin;
  frame.step = "step";
  frame.payload = {9, 8, 7};
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    EXPECT_THROW((void)decode_frame(prefix), FramingError) << "cut=" << cut;
  }
}

TEST(FrameCodec, RejectsTrailingBytesAndBadKind) {
  Frame frame;
  frame.payload = {1};
  std::vector<std::uint8_t> bytes = encode_frame(frame);
  bytes.push_back(0);
  EXPECT_THROW((void)decode_frame(bytes), FramingError);
  bytes.pop_back();
  bytes[0] = 99;  // no such FrameKind
  EXPECT_THROW((void)decode_frame(bytes), FramingError);
}

TEST(FrameCodec, RejectsHugePayloadClaimWithoutAllocating) {
  // Header claims a payload far beyond the cap: the codec must refuse
  // before trusting the length, not attempt the allocation.
  std::vector<std::uint8_t> bytes(kSessionFrameHeaderBytes, 0);
  bytes[0] = 2;                      // kMessage
  bytes[9] = 0xff;                   // payload_len = 0xffffffff
  bytes[10] = 0xff;
  bytes[11] = 0xff;
  bytes[12] = 0xff;
  EXPECT_THROW((void)decode_frame(bytes), FramingError);
}

/// Two live TcpChannels over a real loopback socket: "A" accepts and hosts
/// the bulletin, "B" dials.  `recv` is both parties' receive deadline.
struct ChannelPair {
  TrafficStats stats_a, stats_b;
  std::unique_ptr<TcpChannel> a, b;

  explicit ChannelPair(milliseconds recv = milliseconds(5000)) {
    TcpListener listener = TcpListener::bind("127.0.0.1", 0);
    EndpointMap endpoints;
    endpoints["A"] = TcpEndpoint{"127.0.0.1", listener.port()};
    TcpTimeouts timeouts;
    timeouts.connect = milliseconds(5000);
    timeouts.accept = milliseconds(5000);
    timeouts.recv = recv;
    timeouts.send = milliseconds(5000);

    TcpPartyWiring wa;
    wa.self = "A";
    wa.accept = {"B"};
    wa.endpoints = endpoints;
    wa.bulletin_host = "A";
    wa.bulletin_listeners = {"B"};
    wa.timeouts = timeouts;
    TcpPartyWiring wb;
    wb.self = "B";
    wb.dial = {"A"};
    wb.endpoints = endpoints;
    wb.bulletin_host = "A";
    wb.timeouts = timeouts;

    a = std::make_unique<TcpChannel>(std::move(wa), &stats_a);
    b = std::make_unique<TcpChannel>(std::move(wb), &stats_b);
    std::thread dialer([this] { b->connect(); });
    a->connect(std::move(listener));
    dialer.join();
  }
};

TEST(TcpChannel, SendRecvAcrossRealSocket) {
  ChannelPair pair;
  pair.a->set_step("Secure Sum (2)");
  MessageWriter w;
  w.write_string("hello");
  w.write_i64(-42);
  pair.a->send("B", std::move(w));

  MessageReader r = pair.b->recv("A");
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_i64(), -42);

  // Traffic recorded at the sender, tagged with the sender's step.
  const auto entries = pair.stats_a.traffic_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].step, "Secure Sum (2)");
  EXPECT_EQ(entries[0].from, "A");
  EXPECT_EQ(entries[0].to, "B");
  EXPECT_EQ(entries[0].messages, 1u);
  EXPECT_TRUE(pair.stats_b.traffic_entries().empty());
  EXPECT_EQ(pair.a->bytes_sent(), entries[0].bytes);
}

TEST(TcpChannel, RecvDeadlineSurfacesChannelTimeout) {
  ChannelPair pair(milliseconds(100));
  EXPECT_THROW((void)pair.b->recv("A"), ChannelTimeout);
}

TEST(TcpChannel, PeerCloseSurfacesChannelClosed) {
  ChannelPair pair;
  pair.a->close();
  EXPECT_THROW((void)pair.b->recv("A"), ChannelClosed);
}

TEST(TcpChannel, UnknownPeerRejected) {
  ChannelPair pair;
  MessageWriter w;
  w.write_u8(1);
  EXPECT_THROW(pair.a->send("C", std::move(w)), ChannelError);
  EXPECT_THROW((void)pair.a->recv("C"), ChannelError);
}

TEST(TcpChannel, BulletinBroadcast) {
  ChannelPair pair;
  pair.a->post_public(7);
  EXPECT_EQ(pair.b->await_public(), 7);
  // The host's own await_public returns its posted value.
  EXPECT_EQ(pair.a->await_public(), 7);
}

TEST(TcpChannel, BulletinAndMessagesInterleaveWithoutLoss) {
  // A sends a protocol message and THEN the bulletin; B consumes them in
  // the opposite order.  Neither frame may be dropped: B's session-0 inbox
  // keeps whichever kind arrives early.
  ChannelPair pair;
  MessageWriter w;
  w.write_u64(123);
  pair.a->send("B", std::move(w));
  pair.a->post_public(-5);

  EXPECT_EQ(pair.b->await_public(), -5);  // the message waits its turn
  MessageReader r = pair.b->recv("A");
  EXPECT_EQ(r.read_u64(), 123u);
  EXPECT_EQ(pair.b->pending_messages(), 0u);
}

/// Reads up to `n` bytes from a raw socket, stopping early on EOF or after
/// 2 s without data; the test compares what came back against literals.
std::vector<std::uint8_t> read_raw(const TcpSocket& socket, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::size_t got = 0;
  while (got < n) {
    struct pollfd p{};
    p.fd = socket.fd();
    p.events = POLLIN;
    if (::poll(&p, 1, 2000) <= 0) break;
    const ssize_t r = ::recv(socket.fd(), out.data() + got, n - got, 0);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  out.resize(got);
  return out;
}

TEST(TcpChannel, SessionZeroByteStreamIsPinned) {
  // Raw sockets face a TcpChannel "C" on both sides of its handshake: C
  // dials the raw listener "A" (and hosts the bulletin for it), and accepts
  // the raw dialer "B".  Every byte is checked against the one 13-byte
  // header [kind u8 | session u32le | step_len u32le | payload_len u32le |
  // step | payload], session 0 throughout.
  TcpListener raw_listener = TcpListener::bind("127.0.0.1", 0);
  TcpListener c_listener = TcpListener::bind("127.0.0.1", 0);
  const std::uint16_t c_port = c_listener.port();
  TcpPartyWiring wiring;
  wiring.self = "C";
  wiring.dial = {"A"};
  wiring.accept = {"B"};
  wiring.endpoints["A"] = TcpEndpoint{"127.0.0.1", raw_listener.port()};
  wiring.bulletin_host = "C";
  wiring.bulletin_listeners = {"A"};
  TcpChannel chan(std::move(wiring));
  std::thread connecting([&chan, l = std::move(c_listener)]() mutable {
    chan.connect(std::move(l));
  });

  TcpSocket a = raw_listener.accept(milliseconds(5000));
  const std::vector<std::uint8_t> hello_c = {1, 0, 0, 0, 0, 0, 0,
                                             0, 0, 1, 0, 0, 0, 'C'};
  EXPECT_EQ(read_raw(a, hello_c.size()), hello_c);

  // B's HELLO and its first protocol frame leave in ONE write, so they can
  // share a TCP segment: the channel must deliver the message all the same.
  TcpSocket b = TcpSocket::dial(TcpEndpoint{"127.0.0.1", c_port},
                                milliseconds(5000));
  b.send_all({1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'B',       // HELLO "B"
              2, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 't', 0xab,
              0xcd},                                             // message
             milliseconds(5000));
  connecting.join();
  MessageReader from_b = chan.recv("B");
  EXPECT_EQ(from_b.read_u8(), 0xab);
  EXPECT_EQ(from_b.read_u8(), 0xcd);
  EXPECT_TRUE(from_b.exhausted());

  chan.set_step("s");
  MessageWriter w;
  w.write_u8(7);
  chan.send("A", std::move(w));
  chan.post_public(-2);
  const std::vector<std::uint8_t> message_and_bulletin = {
      2, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 's', 7,        // message
      3, 0, 0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 's',           // bulletin
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};      // i64 -2
  EXPECT_EQ(read_raw(a, message_and_bulletin.size()), message_and_bulletin);

  // Teardown: the raw peer sees a clean EOF, not a hang.
  chan.close();
  EXPECT_TRUE(read_raw(a, 1).empty());
}

TEST(TcpChannel, HelloAfterTheHandshakeSurfacesFramingError) {
  // A raw dialer repeats its HELLO after the handshake: the channel drops
  // that connection, and receives from it fail typed.
  TcpListener listener = TcpListener::bind("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  TcpPartyWiring wiring;
  wiring.self = "A";
  wiring.accept = {"B"};
  TcpChannel chan(std::move(wiring));
  std::thread connecting([&chan, l = std::move(listener)]() mutable {
    chan.connect(std::move(l));
  });
  TcpSocket b = TcpSocket::dial(TcpEndpoint{"127.0.0.1", port},
                                milliseconds(5000));
  const std::vector<std::uint8_t> hello = {1, 0, 0, 0, 0, 0, 0,
                                           0, 0, 1, 0, 0, 0, 'B'};
  b.send_all(hello, milliseconds(5000));
  connecting.join();
  b.send_all(hello, milliseconds(5000));
  EXPECT_THROW((void)chan.recv("B"), FramingError);
}

TEST(TcpChannel, DialWithoutListenerTimesOutTyped) {
  // Nobody is listening and nobody will be: the dial budget must expire
  // with a ChannelTimeout instead of hanging.
  TcpPartyWiring w;
  w.self = "B";
  w.dial = {"A"};
  w.endpoints["A"] = TcpEndpoint{"127.0.0.1", 1};  // reserved port, closed
  w.timeouts.connect = milliseconds(200);
  TcpChannel chan(std::move(w));
  EXPECT_THROW(chan.connect(), ChannelTimeout);
}

TEST(TcpChannel, PaillierKeyDistributionOverSocket) {
  // The deployment setup path: a server ships its Paillier public key over
  // the wire; the peer restores it, encrypts, and ships the ciphertext
  // back through the paper's base-10^18 segmentation codec.
  ChannelPair pair;
  DeterministicRng rng_a(21), rng_b(22);
  const PaillierKeyPair key = generate_paillier_key(64, rng_a);

  MessageWriter w;
  w.write_bytes(serialize_paillier_public_key(key.pk));
  pair.a->send("B", std::move(w));

  MessageReader r = pair.b->recv("A");
  const PaillierPublicKey restored = parse_paillier_public_key(r.read_bytes());
  EXPECT_EQ(restored, key.pk);

  const PaillierCiphertext c = restored.encrypt(BigInt(31337), rng_b);
  MessageWriter back;
  back.write_i64_vector(segment_ciphertext(c.value));
  pair.b->send("A", std::move(back));

  MessageReader r2 = pair.a->recv("B");
  const PaillierCiphertext received{recompose_ciphertext(r2.read_i64_vector())};
  EXPECT_EQ(key.sk.decrypt(received), BigInt(31337));
}

TEST(TcpChannel, DgkKeyDistributionOverSocket) {
  ChannelPair pair;
  DeterministicRng rng_a(31), rng_b(32);
  DgkParams params;
  params.n_bits = 160;
  params.v_bits = 30;
  params.plaintext_bound = 64;
  const DgkKeyPair key = generate_dgk_key(params, rng_a);

  MessageWriter w;
  w.write_bytes(serialize_dgk_public_key(key.pk));
  pair.a->send("B", std::move(w));

  MessageReader r = pair.b->recv("A");
  const DgkPublicKey restored = parse_dgk_public_key(r.read_bytes());
  EXPECT_EQ(restored.n(), key.pk.n());
  EXPECT_EQ(restored.u(), key.pk.u());

  const DgkCiphertext c = restored.encrypt(std::uint64_t{17}, rng_b);
  MessageWriter back;
  back.write_bigint(c.value);
  pair.b->send("A", std::move(back));
  MessageReader r2 = pair.a->recv("B");
  EXPECT_EQ(key.sk.decrypt(DgkCiphertext{r2.read_bigint()}), 17u);
}

}  // namespace
}  // namespace pcl
