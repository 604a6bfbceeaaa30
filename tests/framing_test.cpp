// Malformed-input hardening for the message layer: every truncated,
// corrupted or length-inflated input must surface as a typed FramingError —
// never a crash, a hang, or an attempted giant allocation — on both the
// in-process channel path and the TCP frame codec.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/channel.h"
#include "net/errors.h"
#include "net/message.h"
#include "net/tcp_transport.h"

namespace pcl {
namespace {

/// A representative multi-field message exercising every reader code path.
std::vector<std::uint8_t> sample_message() {
  MessageWriter w;
  w.write_u8(7);
  w.write_u32(1u << 30);
  w.write_i64(-123456789);
  w.write_double(0.5);
  w.write_string("step label");
  w.write_bigint(BigInt(987654321));
  w.write_bigint_vector({BigInt(1), BigInt(-2), BigInt(3)});
  w.write_i64_vector({10, -20, 30});
  w.write_bytes({0xde, 0xad});
  return std::move(w).take();
}

void read_all(MessageReader& r) {
  (void)r.read_u8();
  (void)r.read_u32();
  (void)r.read_i64();
  (void)r.read_double();
  (void)r.read_string();
  (void)r.read_bigint();
  (void)r.read_bigint_vector();
  (void)r.read_i64_vector();
  (void)r.read_bytes();
}

TEST(Framing, EveryTruncationOfAValidMessageThrowsTyped) {
  const std::vector<std::uint8_t> full = sample_message();
  {
    MessageReader ok(full);
    EXPECT_NO_THROW(read_all(ok));
  }
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    MessageReader r(std::vector<std::uint8_t>(full.begin(),
                                              full.begin() + cut));
    EXPECT_THROW(read_all(r), FramingError) << "cut=" << cut;
  }
}

TEST(Framing, HugeVectorLengthClaimRefusedBeforeAllocation) {
  // An 8-byte count claiming ~2^60 elements: the reader must reject it by
  // comparing against the bytes actually present, not allocate.
  MessageWriter w;
  w.write_u64(std::uint64_t{1} << 60);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  {
    MessageReader r(bytes);
    EXPECT_THROW((void)r.read_bigint_vector(), FramingError);
  }
  {
    MessageReader r(bytes);
    EXPECT_THROW((void)r.read_i64_vector(), FramingError);
  }
  {
    MessageReader r(bytes);
    EXPECT_THROW((void)r.read_bytes(), FramingError);
  }
  {
    MessageReader r(bytes);
    EXPECT_THROW((void)r.read_string(), FramingError);
  }
}

TEST(Framing, CountTimesElementSizeOverflowRefused) {
  // A count crafted so count * element_size wraps a 64-bit product must
  // still be refused (the reader divides instead of multiplying).
  MessageWriter w;
  w.write_u64(~std::uint64_t{0});
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  MessageReader r(bytes);
  EXPECT_THROW((void)r.read_i64_vector(), FramingError);
}

TEST(Framing, FramingErrorIsAChannelError) {
  // One catch clause can handle the whole transport failure surface.
  MessageReader r(std::vector<std::uint8_t>{});
  try {
    (void)r.read_u64();
    FAIL() << "expected a throw";
  } catch (const ChannelError& err) {
    EXPECT_NE(std::string(err.what()).find("truncated"), std::string::npos);
  }
}

TEST(Framing, GarbageBytesOverNetworkChannelThrowTyped) {
  // Corrupted payload delivered through a real channel: the receiving
  // party's parse fails with FramingError, not UB.
  Network net;
  NetworkChannel a(net, "A");
  NetworkChannel b(net, "B");
  MessageWriter w;
  w.write_u64(std::uint64_t{1} << 62);  // claims far more than is present
  a.send("B", std::move(w));
  MessageReader r = b.recv("A");
  EXPECT_THROW((void)r.read_bigint_vector(), FramingError);
}

TEST(Framing, BlockingRecvDeadlineIsSharedTimeoutType) {
  // The in-memory channel's receive deadline surfaces as the SAME
  // ChannelTimeout the TCP transport throws, so callers are
  // transport-agnostic.
  Network net(nullptr, std::chrono::milliseconds(50));
  NetworkChannel a(net, "A");
  EXPECT_THROW((void)a.recv("B"), ChannelTimeout);
}

TEST(Framing, CorruptedTcpFrameOverRealSocketThrowsTyped) {
  // Raw garbage written straight into a socket: the assembler-based blocking
  // reader (recv_frame) must reject the header as FramingError.
  TcpListener listener = TcpListener::bind("127.0.0.1", 0);
  TcpSocket client = TcpSocket::dial({"127.0.0.1", listener.port()},
                                     std::chrono::milliseconds(2000));
  TcpSocket server = listener.accept(std::chrono::milliseconds(2000));

  std::vector<std::uint8_t> garbage(kSessionFrameHeaderBytes, 0xee);  // kind
  client.send_all(garbage, std::chrono::milliseconds(2000));
  EXPECT_THROW((void)recv_frame(server, std::chrono::milliseconds(2000)),
               FramingError);
}

TEST(Framing, MidFrameEofOverRealSocketThrowsChannelClosed) {
  TcpListener listener = TcpListener::bind("127.0.0.1", 0);
  TcpSocket client = TcpSocket::dial({"127.0.0.1", listener.port()},
                                     std::chrono::milliseconds(2000));
  TcpSocket server = listener.accept(std::chrono::milliseconds(2000));

  Frame frame;
  frame.step = "s";
  frame.payload = {1, 2, 3, 4};
  std::vector<std::uint8_t> bytes = encode_frame(frame);
  bytes.resize(bytes.size() - 2);  // cut the frame short...
  client.send_all(bytes, std::chrono::milliseconds(2000));
  client.close();  // ...and hang up mid-frame
  EXPECT_THROW((void)recv_frame(server, std::chrono::milliseconds(2000)),
               ChannelClosed);
}

TEST(Framing, CleanEofAtFrameBoundaryIsNotAnError) {
  TcpListener listener = TcpListener::bind("127.0.0.1", 0);
  TcpSocket client = TcpSocket::dial({"127.0.0.1", listener.port()},
                                     std::chrono::milliseconds(2000));
  TcpSocket server = listener.accept(std::chrono::milliseconds(2000));
  client.close();
  EXPECT_FALSE(
      recv_frame(server, std::chrono::milliseconds(2000)).has_value());
}

}  // namespace
}  // namespace pcl
