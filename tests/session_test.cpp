// Tests for the multi-session subsystem (src/net/session/): the frame
// codec, the jittered dial backoff, the poll reactor, session-tagged
// routing with bounded backpressure and session deadlines, admission
// control, and the full server/client topology driven end to end with toy
// party programs.  The REAL consensus protocol over sessions is gated by
// the pc_party --serve-all ctest targets (byte-parity against isolated
// in-process replays); these tests pin down the subsystem's contracts.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "net/channel.h"
#include "net/errors.h"
#include "net/message.h"
#include "net/session/event_loop.h"
#include "net/session/session_client.h"
#include "net/session/session_manager.h"
#include "net/session/session_mux.h"
#include "net/session/session_server.h"
#include "net/tcp_transport.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/json.h"

namespace pcl {
namespace {

// ---------------------------------------------------------------------------
// Frame codec: one 13-byte header [kind | session | step_len | payload_len]
// for every frame; a TcpChannel's frames carry session 0.

Frame make_frame(FrameKind kind, std::uint32_t session,
                 const std::string& step, const std::string& payload) {
  Frame frame;
  frame.kind = kind;
  frame.session = session;
  frame.step = step;
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

TEST(SessionCodec, SessionZeroFramesCarryTheOneHeader) {
  const Frame frame = make_frame(FrameKind::kMessage, 0, "step-a", "payload");
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  ASSERT_EQ(bytes.size(), kSessionFrameHeaderBytes + 6 + 7);
  const std::vector<std::uint8_t> header(
      bytes.begin(), bytes.begin() + kSessionFrameHeaderBytes);
  EXPECT_EQ(header, (std::vector<std::uint8_t>{2, 0, 0, 0, 0, 6, 0, 0, 0, 7,
                                               0, 0, 0}));

  const Frame back = decode_frame(bytes);
  EXPECT_EQ(back.kind, FrameKind::kMessage);
  EXPECT_EQ(back.session, 0u);
  EXPECT_EQ(back.step, "step-a");
  EXPECT_EQ(back.payload, frame.payload);
}

TEST(SessionCodec, SessionTaggedFramesRoundTrip) {
  const Frame frame = make_frame(FrameKind::kMessage, 7, "step-b", "xyz");
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  ASSERT_EQ(bytes.size(), kSessionFrameHeaderBytes + 6 + 3);
  EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(FrameKind::kMessage));
  EXPECT_EQ(bytes[1], 7);

  const Frame back = decode_frame(bytes);
  EXPECT_EQ(back.kind, FrameKind::kMessage);
  EXPECT_EQ(back.session, 7u);
  EXPECT_EQ(back.step, "step-b");
}

TEST(SessionCodec, SessionControlIsAlwaysVersioned) {
  // Control frames carry the session-tagged header like every other kind,
  // session 0 included, with the plain kind byte.
  const Frame frame = make_frame(FrameKind::kSessionOpen, 0, "", "seed");
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  ASSERT_EQ(bytes.size(), kSessionFrameHeaderBytes + 4);
  EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(FrameKind::kSessionOpen));
  EXPECT_EQ(decode_frame(bytes).kind, FrameKind::kSessionOpen);
}

TEST(SessionCodec, FlaggedKindByteIsRejected) {
  // The 0x80 flag that once marked a session-tagged header is no kind: a
  // peer speaking the retired two-header wire is cut off at its first byte.
  std::vector<std::uint8_t> bytes =
      encode_frame(make_frame(FrameKind::kSessionOpen, 3, "", "seed"));
  bytes[0] |= 0x80;
  EXPECT_THROW((void)decode_frame(bytes), FramingError);
  FrameAssembler assembler;
  assembler.feed(bytes.data(), 1);
  EXPECT_THROW((void)assembler.needed(), FramingError);
}

TEST(SessionCodec, EveryKindCarriesTheThirteenByteHeader) {
  for (std::uint8_t k = 1; k <= 7; ++k) {
    const auto kind = static_cast<FrameKind>(k);
    const std::vector<std::uint8_t> bytes =
        encode_frame(make_frame(kind, 0, "st", "pay"));
    ASSERT_EQ(bytes.size(), kSessionFrameHeaderBytes + 2 + 3) << int{k};
    EXPECT_EQ(bytes[0], k);
    FrameAssembler assembler;
    assembler.feed(bytes.data(), 1);
    EXPECT_EQ(assembler.needed(), kSessionFrameHeaderBytes - 1) << int{k};
    EXPECT_EQ(decode_frame(bytes).kind, kind);
  }
}

// ---------------------------------------------------------------------------
// dial_backoff: deterministic per seed, jittered within [full/2, full],
// capped at 500ms.

TEST(DialBackoff, StaysWithinTheJitterWindowAndCaps) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    for (std::size_t attempt = 0; attempt < 12; ++attempt) {
      const auto full = std::min<std::int64_t>(
          attempt >= 6 ? 500 : (std::int64_t{10} << attempt), 500);
      const auto got = dial_backoff(attempt, seed).count();
      EXPECT_GE(got, full / 2) << "attempt " << attempt << " seed " << seed;
      EXPECT_LE(got, full) << "attempt " << attempt << " seed " << seed;
    }
  }
}

TEST(DialBackoff, DeterministicPerSeedAndDecorrelatedAcrossSeeds) {
  bool any_difference = false;
  for (std::size_t attempt = 0; attempt < 12; ++attempt) {
    EXPECT_EQ(dial_backoff(attempt, 7).count(),
              dial_backoff(attempt, 7).count());
    if (dial_backoff(attempt, 7) != dial_backoff(attempt, 8)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "two seeds produced identical schedules";
}

// ---------------------------------------------------------------------------
// FrameAssembler: incremental decode at arbitrary byte boundaries.

TEST(FrameAssembler, DecodesAcrossArbitraryChunks) {
  const std::vector<Frame> frames = {
      make_frame(FrameKind::kMessage, 0, "zero", "one"),
      make_frame(FrameKind::kMessage, 9, "tagged", "two"),
      make_frame(FrameKind::kSessionClose, 3, "ok", "bye"),
  };
  std::vector<std::uint8_t> stream;
  for (const Frame& f : frames) {
    const std::vector<std::uint8_t> bytes = encode_frame(f);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  FrameAssembler assembler;
  std::vector<Frame> got;
  for (const std::uint8_t byte : stream) {  // worst case: one byte at a time
    assembler.feed(&byte, 1);
    while (auto frame = assembler.next()) got.push_back(std::move(*frame));
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(got[i].kind, frames[i].kind);
    EXPECT_EQ(got[i].session, frames[i].session);
    EXPECT_EQ(got[i].step, frames[i].step);
    EXPECT_EQ(got[i].payload, frames[i].payload);
  }
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssembler, NeededCountsDownToTheFrameBoundary) {
  // A blocking reader asks for exactly needed() bytes, so it never takes a
  // byte of the frame behind: 1 for the kind, then the rest of the header,
  // then the body.
  const std::vector<std::uint8_t> bytes =
      encode_frame(make_frame(FrameKind::kMessage, 0, "st", "body"));
  FrameAssembler assembler;
  EXPECT_EQ(assembler.needed(), 1u);
  assembler.feed(bytes.data(), 1);
  EXPECT_EQ(assembler.needed(), kSessionFrameHeaderBytes - 1);
  assembler.feed(bytes.data() + 1, kSessionFrameHeaderBytes - 1);
  EXPECT_EQ(assembler.needed(), 6u);
  EXPECT_FALSE(assembler.next().has_value());
  assembler.feed(bytes.data() + kSessionFrameHeaderBytes, 6);
  EXPECT_EQ(assembler.needed(), 0u);
  ASSERT_TRUE(assembler.next().has_value());
  EXPECT_EQ(assembler.needed(), 1u);
}

TEST(FrameAssembler, MalformedKindPoisonsTheStream) {
  FrameAssembler assembler;
  const std::uint8_t junk = 0x7f;  // out of the known kind range
  assembler.feed(&junk, 1);
  EXPECT_THROW((void)assembler.next(), FramingError);
}

// ---------------------------------------------------------------------------
// EventLoop: fds dispatch on the loop thread, and poll (which has no
// timeout) wakes for every change made from another thread.

TEST(EventLoop, FdReadabilityDispatchesOnTheLoopThread) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  EventLoop loop;
  std::atomic<int> reads{0};
  loop.add_fd(fds[0], [&] {
    char buf[16];
    if (read(fds[0], buf, sizeof buf) > 0) ++reads;
  });
  std::thread runner([&loop] { loop.run(); });
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  for (int i = 0; i < 200 && reads == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  loop.stop();
  runner.join();
  EXPECT_EQ(reads, 1);
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoop, StopBeforeRunIsNotLost) {
  // Owners tear a server down right after start(), sometimes before the
  // loop thread has entered run(); that early stop() must still end it.
  EventLoop loop;
  loop.stop();
  std::atomic<bool> returned{false};
  std::thread runner([&] {
    loop.run();
    returned = true;
  });
  for (int i = 0; i < 200 && !returned; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool stopped = returned.load();
  if (!stopped) loop.stop();  // release the runner so the test can join
  runner.join();
  EXPECT_TRUE(stopped) << "run() lost a stop() made before it started";
}

TEST(EventLoop, StopFromAnotherThreadWakesABlockedPoll) {
  // A rescue pipe lets the test end a loop whose wake was lost, so a
  // regression fails here instead of hanging the suite.
  int rescue[2] = {-1, -1};
  ASSERT_EQ(pipe(rescue), 0);
  EventLoop loop;
  loop.add_fd(rescue[0], [&rescue] {
    char buf[16];
    (void)read(rescue[0], buf, sizeof buf);
  });
  std::atomic<bool> returned{false};
  std::thread runner([&] {
    loop.run();
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // in poll
  loop.stop();
  for (int i = 0; i < 400 && !returned; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool woke = returned.load();
  if (!woke) {
    ASSERT_EQ(write(rescue[1], "x", 1), 1);
  }
  runner.join();
  EXPECT_TRUE(woke) << "stop() did not wake a loop blocked in poll";
  close(rescue[0]);
  close(rescue[1]);
}

TEST(EventLoop, AddFdFromAnotherThreadWakesABlockedPoll) {
  EventLoop loop;
  std::thread runner([&loop] { loop.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // in poll
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_EQ(write(fds[1], "x", 1), 1);  // readable before it is watched
  std::atomic<int> reads{0};
  loop.add_fd(fds[0], [&] {
    char buf[16];
    if (read(fds[0], buf, sizeof buf) > 0) ++reads;
  });
  for (int i = 0; i < 400 && reads == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const int got = reads.load();
  loop.stop();
  runner.join();
  EXPECT_EQ(got, 1) << "add_fd() did not wake a loop blocked in poll";
  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// SessionMux routing: per-session inboxes, orphan parking, bounded
// backpressure with blame-local failure.

TEST(SessionMux, RoutesMessagesPerSessionInArrivalOrder) {
  SessionMux mux;
  mux.register_session(1);
  mux.register_session(2);
  mux.route("S2", make_frame(FrameKind::kMessage, 1, "s", "first"));
  mux.route("S2", make_frame(FrameKind::kMessage, 2, "s", "other"));
  mux.route("S2", make_frame(FrameKind::kMessage, 1, "s", "second"));

  const auto deadline = std::chrono::milliseconds(200);
  const std::vector<std::uint8_t> a = mux.recv_message(1, "S2", deadline);
  const std::vector<std::uint8_t> b = mux.recv_message(1, "S2", deadline);
  EXPECT_EQ(std::string(a.begin(), a.end()), "first");
  EXPECT_EQ(std::string(b.begin(), b.end()), "second");
  const std::vector<std::uint8_t> c = mux.recv_message(2, "S2", deadline);
  EXPECT_EQ(std::string(c.begin(), c.end()), "other");
}

TEST(SessionMux, OrphansParkAndReplayOnRegister) {
  SessionMux mux;
  mux.route("S2", make_frame(FrameKind::kMessage, 5, "s", "early"));
  EXPECT_EQ(mux.orphans_parked(), 1u);
  mux.register_session(5);
  EXPECT_EQ(mux.orphans_parked(), 0u);
  const std::vector<std::uint8_t> m =
      mux.recv_message(5, "S2", std::chrono::milliseconds(200));
  EXPECT_EQ(std::string(m.begin(), m.end()), "early");
}

TEST(SessionMux, OrphanOverflowDropsTheOldest) {
  SessionLimits limits;
  limits.orphan_cap = 3;
  SessionMux mux(limits);
  for (int i = 0; i < 5; ++i) {
    std::string body = "m";
    body += std::to_string(i);
    mux.route("S2", make_frame(FrameKind::kMessage, 9, "s", body));
  }
  EXPECT_EQ(mux.orphans_parked(), 3u);
  EXPECT_EQ(mux.orphans_dropped(), 2u);
  mux.register_session(9);
  // The two OLDEST frames were dropped; the newest three replay in order.
  const std::vector<std::uint8_t> m =
      mux.recv_message(9, "S2", std::chrono::milliseconds(200));
  EXPECT_EQ(std::string(m.begin(), m.end()), "m2");
}

TEST(SessionMux, InboxOverflowFailsOnlyThatSession) {
  SessionLimits limits;
  limits.inbox_cap = 4;
  SessionMux mux(limits);
  mux.register_session(1);
  mux.register_session(2);
  for (int i = 0; i < 5; ++i) {
    mux.route("S2", make_frame(FrameKind::kMessage, 1, "s", "x"));
  }
  mux.route("S2", make_frame(FrameKind::kMessage, 2, "s", "fine"));
  EXPECT_THROW((void)mux.recv_message(1, "S2", std::chrono::milliseconds(200)),
               ChannelBusy);
  // The neighbor session is untouched by session 1's overflow.
  const std::vector<std::uint8_t> ok =
      mux.recv_message(2, "S2", std::chrono::milliseconds(200));
  EXPECT_EQ(std::string(ok.begin(), ok.end()), "fine");
}

TEST(SessionMux, ControlFloodFailsOnlyThatSession) {
  // Control frames nobody reads (a TcpChannel never calls recv_control)
  // are capped like messages: one past the cap fails that session only.
  SessionLimits limits;
  limits.inbox_cap = 4;
  SessionMux mux(limits);
  mux.register_session(1);
  mux.register_session(2);
  for (int i = 0; i < 5; ++i) {
    mux.route("S2", make_frame(FrameKind::kSessionClose, 1, "s", ""));
  }
  mux.route("S2", make_frame(FrameKind::kMessage, 2, "s", "fine"));
  EXPECT_THROW((void)mux.recv_message(1, "S2", std::chrono::milliseconds(200)),
               ChannelBusy);
  const std::vector<std::uint8_t> ok =
      mux.recv_message(2, "S2", std::chrono::milliseconds(200));
  EXPECT_EQ(std::string(ok.begin(), ok.end()), "fine");
}

TEST(SessionMux, BulletinLogIsPerSessionAndCursorIndexed) {
  SessionMux mux;
  mux.register_session(2);
  const auto bulletin = [](std::uint32_t session, std::int64_t value) {
    Frame frame;
    frame.kind = FrameKind::kBulletin;
    frame.session = session;
    MessageWriter writer;
    writer.write_i64(value);
    frame.payload = std::move(writer).take();
    return frame;
  };
  mux.route("S1", bulletin(2, 7));
  mux.route("S1", bulletin(2, 8));
  EXPECT_EQ(mux.await_bulletin(2, "S1", 0, std::chrono::milliseconds(200)), 7);
  EXPECT_EQ(mux.await_bulletin(2, "S1", 1, std::chrono::milliseconds(200)), 8);
  // Re-reading an index is idempotent: the log is a log, not a queue.
  EXPECT_EQ(mux.await_bulletin(2, "S1", 0, std::chrono::milliseconds(200)), 7);
}

TEST(SessionMux, HelloAfterTheHandshakeIsAFramingError) {
  // A HELLO only ever opens a connection.  One arriving later is a framing
  // error for the connection, never a control frame for a session...
  SessionMux mux;
  mux.register_session(0);
  EXPECT_THROW(mux.route("S2", make_frame(FrameKind::kHello, 0, "", "S2")),
               FramingError);
  // ...nor an orphan parked on a daemon, which never registers session 0.
  SessionMux daemon;
  EXPECT_THROW(
      daemon.route("S2", make_frame(FrameKind::kHello, 0, "", "S2")),
      FramingError);
  EXPECT_EQ(daemon.orphans_parked(), 0u);
}

TEST(SessionMux, MalformedBulletinIsRejectedBeforeItParks) {
  // A bulletin payload is exactly one i64.  Short and long ones fail the
  // connection that sent them, whether or not their session is open yet.
  SessionMux mux;
  const Frame short_one = make_frame(FrameKind::kBulletin, 7, "s", "abc");
  const Frame long_one =
      make_frame(FrameKind::kBulletin, 7, "s", std::string(9, 'x'));
  EXPECT_THROW(mux.route("S1", short_one), FramingError);
  EXPECT_THROW(mux.route("S1", long_one), FramingError);
  EXPECT_EQ(mux.orphans_parked(), 0u);
  EXPECT_NO_THROW(mux.register_session(7));
  // Once the session is open, a bad bulletin leaves its log untouched.
  EXPECT_THROW(mux.route("S1", long_one), FramingError);
  MessageWriter writer;
  writer.write_i64(-3);
  const std::vector<std::uint8_t> good = std::move(writer).take();
  mux.route("S1", make_frame(FrameKind::kBulletin, 7, "s",
                             std::string(good.begin(), good.end())));
  EXPECT_EQ(mux.await_bulletin(7, "S1", 0, std::chrono::milliseconds(200)),
            -3);
}

TEST(SessionMux, ClosedConnectionDrainsItsQueueThenThrowsChannelClosed) {
  SessionMux mux;
  mux.register_session(1);
  mux.route("u0", make_frame(FrameKind::kMessage, 1, "s", "last words"));
  mux.close_connection(
      "u0", [] { throw ChannelClosed("'u0' closed the connection"); });
  const std::vector<std::uint8_t> last =
      mux.recv_message(1, "u0", std::chrono::milliseconds(200));
  EXPECT_EQ(std::string(last.begin(), last.end()), "last words");
  // Past its queue the connection fails at once, not at the deadline.
  const std::uint64_t t0 = obs::monotonic_time_ns();
  EXPECT_THROW((void)mux.recv_message(1, "u0", std::chrono::seconds(5)),
               ChannelClosed);
  EXPECT_THROW(
      (void)mux.await_bulletin(1, "u0", 0, std::chrono::seconds(5)),
      ChannelClosed);
  EXPECT_LT(obs::monotonic_time_ns() - t0, 1'000'000'000ull);
  // The session's other connections carry on.
  mux.route("S2", make_frame(FrameKind::kMessage, 1, "s", "step 7"));
  const std::vector<std::uint8_t> next =
      mux.recv_message(1, "S2", std::chrono::milliseconds(200));
  EXPECT_EQ(std::string(next.begin(), next.end()), "step 7");
}

TEST(SessionMux, FrameArrivingWithEofIsRoutedBeforeTheConnectionDrops) {
  // The peer writes its last frame and closes before the reactor first
  // reads, so the frame and the FIN come back from the same drain.
  TcpListener listener = TcpListener::bind("127.0.0.1", 0);
  TcpSocket peer = TcpSocket::dial(TcpEndpoint{"127.0.0.1", listener.port()},
                                   std::chrono::milliseconds(2000));
  auto ours = std::make_shared<SharedSocket>(
      listener.accept(std::chrono::milliseconds(2000)));
  peer.write_frame(make_frame(FrameKind::kMessage, 1, "s", "last"),
                   std::chrono::milliseconds(2000));
  peer.close();

  SessionMux mux;
  mux.register_session(1);
  EventLoop loop;
  std::atomic<bool> down{false};
  attach_connection(loop, mux, "peer", ours,
                    [&down](const std::string&, const std::string&) {
                      down = true;
                    });
  std::thread runner([&loop] { loop.run(); });
  std::vector<std::uint8_t> got;
  EXPECT_NO_THROW(
      got = mux.recv_message(1, "peer", std::chrono::milliseconds(1000)));
  loop.stop();
  runner.join();
  EXPECT_EQ(std::string(got.begin(), got.end()), "last");
  EXPECT_TRUE(down);
}

// ---------------------------------------------------------------------------
// Session deadlines: the mux bounds every wait of a session registered with
// one.

/// The ChannelTimeout text `wait` throws; "" if it throws nothing.
template <typename Wait>
std::string timeout_text(Wait wait) {
  try {
    wait();
  } catch (const ChannelTimeout& e) {
    return e.what();
  }
  return "";
}

TEST(SessionMux, SessionDeadlineWakesABlockedReceiverTyped) {
  SessionMux mux;
  mux.register_session(3, std::chrono::milliseconds(50));
  const std::uint64_t t0 = obs::monotonic_time_ns();
  EXPECT_THROW((void)mux.recv_message(3, "S2", std::chrono::seconds(5)),
               ChannelTimeout);
  const std::uint64_t waited_ms = (obs::monotonic_time_ns() - t0) / 1'000'000;
  EXPECT_GE(waited_ms, 50u);
  EXPECT_LT(waited_ms, 1000u);  // the 5 s receive deadline never fired
}

TEST(SessionMux, SessionPastItsDeadlineFailsEvenWithAFrameQueued) {
  SessionMux mux;
  mux.register_session(4, std::chrono::milliseconds(50));
  mux.route("S2", make_frame(FrameKind::kMessage, 4, "s", "queued"));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const std::string recv_text = timeout_text(
      [&] { (void)mux.recv_message(4, "S2", std::chrono::seconds(5)); });
  EXPECT_NE(recv_text.find("session deadline of 50ms"), std::string::npos)
      << recv_text;
  const std::string await_text = timeout_text([&] {
    (void)mux.await_bulletin(4, "S1", 0, std::chrono::seconds(5));
  });
  EXPECT_NE(await_text.find("session deadline of 50ms"), std::string::npos)
      << await_text;
  EXPECT_EQ(mux.pending_messages(4), 1u);  // the frame was never handed out
}

TEST(SessionMux, NoSessionDeadlineLeavesWaitsToTheirOwnDeadline) {
  SessionMux mux;
  mux.register_session(5);
  mux.register_session(6, std::chrono::milliseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  for (const std::uint32_t session : {5u, 6u}) {
    mux.route("S2", make_frame(FrameKind::kMessage, session, "s", "late"));
    const std::vector<std::uint8_t> got =
        mux.recv_message(session, "S2", std::chrono::milliseconds(200));
    EXPECT_EQ(std::string(got.begin(), got.end()), "late");
    const std::string text = timeout_text([&] {
      (void)mux.recv_message(session, "S2", std::chrono::milliseconds(30));
    });
    EXPECT_NE(text.find("recv timed out after 30ms"), std::string::npos)
        << text;
  }
}

TEST(SessionManager, SessionDeadlineFailsOnlyTheSessionStillWaiting) {
  // Session 1 waits for a frame that never comes; its neighbor on the same
  // mux gets its frame and completes.  The 5 s receive deadline never
  // fires: the 200 ms session deadline ends session 1.
  SessionMux mux;
  SessionManagerConfig config;
  config.workers = 2;
  config.session_deadline = std::chrono::milliseconds(200);
  SessionManager manager(config, mux);
  std::mutex mu;
  std::map<std::uint32_t, SessionRecord> closed;
  const auto program = [](const SessionInfo&,
                          Channel& chan) -> std::optional<int> {
    MessageReader r = chan.recv("S2");
    return static_cast<int>(r.read_u8());
  };
  for (const std::uint32_t id : {1u, 2u}) {
    manager.admit(SessionInfo{id, id});
    SessionRoutes routes;
    routes.session = id;
    routes.self = "S1";
    routes.conn_for["S2"] = "S2";
    routes.recv_deadline = std::chrono::seconds(5);
    manager.launch(SessionInfo{id, id}, routes, program,
                   [&](const SessionRecord& record, SessionObs&) {
                     const std::lock_guard<std::mutex> lock(mu);
                     closed[record.info.id] = record;
                   });
  }
  MessageWriter w;
  w.write_u8(9);
  const std::vector<std::uint8_t> payload = std::move(w).take();
  mux.route("S2", make_frame(FrameKind::kMessage, 2, "s",
                             std::string(payload.begin(), payload.end())));
  manager.await_idle();
  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[2].status, "ok");
  EXPECT_EQ(closed[2].label, 9);
  const SessionRecord& late = closed[1];
  EXPECT_EQ(late.state, SessionState::kFailed);
  EXPECT_EQ(late.status.rfind("error:ChannelTimeout", 0), 0u) << late.status;
  EXPECT_NE(late.status.find("session deadline of 200ms"), std::string::npos)
      << late.status;
  const std::uint64_t ran_ms = (late.closed_ns - late.opened_ns) / 1'000'000;
  EXPECT_GE(ran_ms, 200u);
  EXPECT_LT(ran_ms, 2000u);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(SessionManager, AdmissionCapRejectsWithChannelBusy) {
  SessionMux mux;
  SessionManagerConfig config;
  config.max_sessions = 2;
  config.workers = 1;
  SessionManager manager(config, mux);
  manager.admit(SessionInfo{1, 11});
  manager.admit(SessionInfo{2, 22});
  EXPECT_THROW(manager.admit(SessionInfo{3, 33}), ChannelBusy);
  EXPECT_THROW(manager.admit(SessionInfo{1, 11}), ChannelError);  // duplicate
  EXPECT_EQ(manager.active(), 2u);
}

TEST(SessionManager, DrainingRefusesNewSessions) {
  SessionMux mux;
  SessionManager manager(SessionManagerConfig{}, mux);
  manager.begin_drain();
  EXPECT_THROW(manager.admit(SessionInfo{1, 1}), ChannelBusy);
}

// ---------------------------------------------------------------------------
// pc-sessions-v1 building + validation round trip.

TEST(SessionsJson, BuildsAValidDocument) {
  SessionRecord done;
  done.info = SessionInfo{1, 7};
  done.state = SessionState::kDone;
  done.status = "ok";
  done.label = 3;
  done.opened_ns = 100;
  done.closed_ns = 2'100'000;
  SessionRecord failed;
  failed.info = SessionInfo{2, 8};
  failed.state = SessionState::kFailed;
  failed.status = "error:ChannelTimeout: session deadline";
  failed.opened_ns = 200;
  failed.closed_ns = 5'000'000;
  const std::string text = build_sessions_json("S1", 0, {done, failed});
  const obs::JsonValue doc = obs::JsonValue::parse(text);
  EXPECT_TRUE(obs::validate_sessions_json(doc).empty())
      << "problems in: " << text;
}

TEST(SessionsJson, StatusTextRoundTripsUnchanged) {
  // Error text is free-form: a newline or a quote must survive the admin
  // reply byte for byte.
  SessionRecord failed;
  failed.info = SessionInfo{3, 9};
  failed.state = SessionState::kFailed;
  failed.status = "error:FramingError: \"S2\" sent\nline two\t\\";
  failed.opened_ns = 100;
  failed.closed_ns = 1'000'100;
  const obs::JsonValue doc =
      obs::JsonValue::parse(build_sessions_json("S2", 0, {failed}));
  EXPECT_TRUE(obs::validate_sessions_json(doc).empty());
  const obs::JsonValue& row = doc.find("sessions")->as_array().at(0);
  EXPECT_EQ(row.find("status")->as_string(), failed.status);
  EXPECT_EQ(doc.find("source")->as_string(), "S2");
  EXPECT_EQ(row.find("id")->as_number(), 3.0);
  EXPECT_EQ(row.find("elapsed_ms")->as_number(), 1.0);
  EXPECT_TRUE(row.find("label")->is_null());
}

TEST(SessionsJson, ValidatorCrossChecksActiveAgainstRunningRows) {
  SessionRecord running;
  running.info = SessionInfo{1, 7};
  running.state = SessionState::kRunning;
  running.status = "running";
  running.opened_ns = obs::monotonic_time_ns();
  // Claim 0 active while one row is running: must be flagged.
  const std::string text = build_sessions_json("S1", 0, {running});
  const obs::JsonValue doc = obs::JsonValue::parse(text);
  EXPECT_FALSE(obs::validate_sessions_json(doc).empty());
}

// ---------------------------------------------------------------------------
// End to end: two session daemons + a client in one process, toy party
// programs, interleaved sessions.  Protocol-level byte parity is gated by
// the pc_party --serve-all ctest targets; here the contract under test is
// the topology itself: admission, muxed delivery, bulletins, teardown, and
// that a session's traffic depends only on its seed (never its id or its
// neighbors).

struct TestCluster {
  EndpointMap endpoints;
  std::unique_ptr<SessionServer> s1;
  std::unique_ptr<SessionServer> s2;
  std::unique_ptr<SessionClient> client;

  ~TestCluster() { stop(); }

  void stop() {
    if (client) client->close();
    if (s1) s1->drain_and_stop();
    if (s2) s2->drain_and_stop();
  }
};

/// Toy programs: every user sends its seed-derived value to both servers;
/// S2 forwards its sum to S1; S1 posts the total on the bulletin and
/// releases total % 5.  Deterministic per seed, independent of session id.
SessionManager::Program toy_server_program(const std::string& role,
                                           std::size_t users) {
  return [role, users](const SessionInfo&,
                       Channel& chan) -> std::optional<int> {
    std::int64_t sum = 0;
    for (std::size_t u = 0; u < users; ++u) {
      std::string user = "user:";
      user += std::to_string(u);
      MessageReader r = chan.recv(user);
      sum += static_cast<std::int64_t>(r.read_u64());
    }
    if (role == "S2") {
      MessageWriter w;
      w.write_i64(sum);
      chan.send("S1", std::move(w));
      return std::nullopt;
    }
    MessageReader from_s2 = chan.recv("S2");
    const std::int64_t total = sum + from_s2.read_i64();
    chan.post_public(total % 5);
    return static_cast<int>(total % 5);
  };
}

SessionClient::UserProgram toy_user_program() {
  return [](const SessionInfo& info, const std::string& user, Channel& chan) {
    const std::uint64_t value = info.seed * 31 + user.back();
    for (const char* server : {"S1", "S2"}) {
      MessageWriter w;
      w.write_u64(value);
      chan.send(server, std::move(w));
    }
    (void)chan.await_public();  // the released verdict reaches every user
  };
}

std::unique_ptr<TestCluster> make_cluster(std::size_t users,
                                          std::size_t max_sessions,
                                          std::size_t workers, long recv_ms,
                                          std::size_t max_in_flight) {
  auto cluster = std::make_unique<TestCluster>();
  TcpListener s1_listener = TcpListener::bind("127.0.0.1", 0);
  TcpListener s2_listener = TcpListener::bind("127.0.0.1", 0);
  cluster->endpoints["S1"] = TcpEndpoint{"127.0.0.1", s1_listener.port()};
  cluster->endpoints["S2"] = TcpEndpoint{"127.0.0.1", s2_listener.port()};
  TcpTimeouts timeouts;
  timeouts.connect = std::chrono::milliseconds(5000);
  timeouts.accept = std::chrono::milliseconds(5000);
  timeouts.recv = std::chrono::milliseconds(recv_ms);
  timeouts.send = std::chrono::milliseconds(5000);

  const auto server_config = [&](const std::string& role) {
    SessionServerConfig config;
    config.role = role;
    config.num_users = users;
    config.endpoints = cluster->endpoints;
    config.timeouts = timeouts;
    config.manager.max_sessions = max_sessions;
    config.manager.workers = workers;
    return config;
  };
  cluster->s1 = std::make_unique<SessionServer>(
      server_config("S1"), toy_server_program("S1", users));
  cluster->s2 = std::make_unique<SessionServer>(
      server_config("S2"), toy_server_program("S2", users));
  // Both handshakes block until every peer dials in, so they (and the
  // client's connect) have to overlap.
  std::thread s1_start([&cluster, l = std::move(s1_listener)]() mutable {
    cluster->s1->start(std::move(l));
  });
  std::thread s2_start([&cluster, l = std::move(s2_listener)]() mutable {
    cluster->s2->start(std::move(l));
  });

  SessionClientConfig ccfg;
  ccfg.num_users = users;
  ccfg.endpoints = cluster->endpoints;
  ccfg.timeouts = timeouts;
  ccfg.max_in_flight = max_in_flight;
  cluster->client = std::make_unique<SessionClient>(ccfg, toy_user_program());
  cluster->client->connect();
  s1_start.join();
  s2_start.join();
  return cluster;
}

TEST(SessionEndToEnd, InterleavedSessionsMatchSameSeedNeighbors) {
  const auto cluster = make_cluster(/*users=*/2, /*max_sessions=*/8,
                                    /*workers=*/2, /*recv_ms=*/5000,
                                    /*max_in_flight=*/4);
  // Sessions 1 and 6 share a seed: their labels and their per-session
  // traffic tables must be identical however the 8 are interleaved.
  std::vector<SessionSpec> specs;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    SessionSpec spec;
    spec.info.id = i;
    spec.info.seed = (i == 6) ? 101 : 100 + i;
    specs.push_back(spec);
  }
  const std::vector<SessionOutcome> outcomes = cluster->client->run(specs);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (const SessionOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << "session " << outcome.info.id << ": "
                            << outcome.status;
    ASSERT_TRUE(outcome.label.has_value());
  }
  EXPECT_EQ(outcomes[0].label, outcomes[5].label);  // same seed, same label
  const std::vector<TrafficStats::Entry> t1 =
      outcomes[0].traffic->traffic_entries();
  const std::vector<TrafficStats::Entry> t6 =
      outcomes[5].traffic->traffic_entries();
  ASSERT_EQ(t1.size(), t6.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_TRUE(t1[i] == t6[i]) << "row " << i << " differs";
  }
  // The daemons agree the whole batch closed cleanly.
  for (const SessionRecord& record : cluster->s1->sessions()) {
    EXPECT_EQ(record.status, "ok") << "session " << record.info.id;
  }
  cluster->stop();
}

TEST(SessionEndToEnd, AbandonedSessionFailsTypedWithoutDisturbingOthers) {
  const auto cluster = make_cluster(/*users=*/2, /*max_sessions=*/8,
                                    /*workers=*/2, /*recv_ms=*/500,
                                    /*max_in_flight=*/3);
  std::vector<SessionSpec> specs;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    SessionSpec spec;
    spec.info.id = i;
    spec.info.seed = 200 + i;
    spec.run_users = (i != 2);  // abandon session 2 after opening it
    specs.push_back(spec);
  }
  const std::vector<SessionOutcome> outcomes = cluster->client->run(specs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].status;
  EXPECT_TRUE(outcomes[2].ok) << outcomes[2].status;
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].status.rfind("error", 0), 0u)
      << "untyped failure: " << outcomes[1].status;
  // The daemons' records blame exactly session 2, with a typed status.
  for (const SessionRecord& record : cluster->s1->sessions()) {
    if (record.info.id == 2) {
      EXPECT_EQ(record.state, SessionState::kFailed);
      EXPECT_NE(record.status.find("ChannelTimeout"), std::string::npos)
          << record.status;
    } else {
      EXPECT_EQ(record.status, "ok") << "session " << record.info.id;
    }
  }
  cluster->stop();
}

TEST(SessionEndToEnd, AdmissionCapSurfacesAsBusyRetriesThatEventuallyWin) {
  // One session at a time server-side, four in flight client-side: every
  // extra open is SESSION_REJECTed busy and retried on the jittered
  // schedule until the cap frees up.  All sessions must still complete.
  const auto cluster = make_cluster(/*users=*/2, /*max_sessions=*/1,
                                    /*workers=*/1, /*recv_ms=*/5000,
                                    /*max_in_flight=*/4);
  std::vector<SessionSpec> specs;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    SessionSpec spec;
    spec.info.id = i;
    spec.info.seed = 300 + i;
    specs.push_back(spec);
  }
  const std::vector<SessionOutcome> outcomes = cluster->client->run(specs);
  for (const SessionOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << "session " << outcome.info.id << ": "
                            << outcome.status;
  }
  cluster->stop();
}

}  // namespace
}  // namespace pcl
