// Tests for the multi-session subsystem (src/net/session/): the versioned
// frame codec, the jittered dial backoff, the poll reactor and its timer
// wheel, session-tagged routing with bounded backpressure, admission
// control, and the full server/client topology driven end to end with toy
// party programs.  The REAL consensus protocol over sessions is gated by
// the pc_party --serve-all ctest targets (byte-parity against isolated
// in-process replays); these tests pin down the subsystem's contracts.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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
// Frame codec: the PR 4 wire format is "session 0"; session-tagged frames
// extend the header, session-control frames are always versioned.

Frame make_frame(FrameKind kind, std::uint32_t session,
                 const std::string& step, const std::string& payload) {
  Frame frame;
  frame.kind = kind;
  frame.session = session;
  frame.step = step;
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

TEST(SessionCodec, LegacyFramesKeepTheNineByteHeader) {
  const Frame frame = make_frame(FrameKind::kMessage, 0, "step-a", "payload");
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 6 + 7);
  EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(FrameKind::kMessage));
  EXPECT_EQ(bytes[0] & kSessionFlag, 0);  // byte-identical to PR 4

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
  EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(FrameKind::kMessage) |
                          kSessionFlag);

  const Frame back = decode_frame(bytes);
  EXPECT_EQ(back.kind, FrameKind::kMessage);
  EXPECT_EQ(back.session, 7u);
  EXPECT_EQ(back.step, "step-b");
}

TEST(SessionCodec, SessionControlIsAlwaysVersioned) {
  // Even "session 0" control frames carry the versioned header: a PR 4 peer
  // must reject them as unknown rather than misparse them.
  const Frame frame = make_frame(FrameKind::kSessionOpen, 0, "", "seed");
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  EXPECT_EQ(bytes[0] & kSessionFlag, kSessionFlag);
  EXPECT_EQ(decode_frame(bytes).kind, FrameKind::kSessionOpen);
}

TEST(SessionCodec, SessionControlWithoutFlagIsRejected) {
  // Handcraft a legacy 9-byte header with a session-control kind: invalid.
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes, 0);
  bytes[0] = static_cast<std::uint8_t>(FrameKind::kSessionOpen);
  EXPECT_THROW((void)decode_frame(bytes), FramingError);
  EXPECT_THROW((void)frame_header_size(bytes[0]), FramingError);
}

TEST(SessionCodec, HeaderSizeFollowsTheFlag) {
  EXPECT_EQ(frame_header_size(static_cast<std::uint8_t>(FrameKind::kMessage)),
            kFrameHeaderBytes);
  EXPECT_EQ(frame_header_size(static_cast<std::uint8_t>(FrameKind::kMessage) |
                              kSessionFlag),
            kSessionFrameHeaderBytes);
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
      make_frame(FrameKind::kMessage, 0, "legacy", "one"),
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

TEST(FrameAssembler, MalformedKindPoisonsTheStream) {
  FrameAssembler assembler;
  const std::uint8_t junk = 0x7f;  // out of the known kind range
  assembler.feed(&junk, 1);
  EXPECT_THROW((void)assembler.next(), FramingError);
}

// ---------------------------------------------------------------------------
// EventLoop: timers fire late-never-early, cancel works, fds dispatch.

TEST(EventLoop, TimerFiresNoEarlierThanItsDelay) {
  EventLoop loop;
  std::thread runner([&loop] { loop.run(); });
  std::atomic<std::uint64_t> fired_at{0};
  const auto t0 = std::chrono::steady_clock::now();
  (void)loop.add_timer(std::chrono::milliseconds(50), [&] {
    fired_at = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  });
  for (int i = 0; i < 500 && fired_at == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  loop.stop();
  runner.join();
  ASSERT_NE(fired_at, 0u) << "timer never fired";
  EXPECT_GE(fired_at.load(), 50u);
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  std::thread runner([&loop] { loop.run(); });
  std::atomic<int> fired{0};
  const std::uint64_t id =
      loop.add_timer(std::chrono::milliseconds(60), [&] { ++fired; });
  loop.cancel_timer(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  loop.stop();
  runner.join();
  EXPECT_EQ(fired, 0);
}

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

TEST(SessionMux, FailSessionWakesBlockedReceiversTyped) {
  SessionMux mux;
  mux.register_session(3);
  std::thread failer([&mux] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    mux.fail_session(3, [] { throw ChannelTimeout("session 3 watchdog"); });
  });
  EXPECT_THROW((void)mux.recv_message(3, "S2", std::chrono::seconds(5)),
               ChannelTimeout);
  failer.join();
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(SessionManager, AdmissionCapRejectsWithChannelBusy) {
  SessionMux mux;
  SessionManagerConfig config;
  config.max_sessions = 2;
  config.workers = 1;
  SessionManager manager(config, mux, nullptr);
  manager.admit(SessionInfo{1, 11});
  manager.admit(SessionInfo{2, 22});
  EXPECT_THROW(manager.admit(SessionInfo{3, 33}), ChannelBusy);
  EXPECT_THROW(manager.admit(SessionInfo{1, 11}), ChannelError);  // duplicate
  EXPECT_EQ(manager.active(), 2u);
}

TEST(SessionManager, DrainingRefusesNewSessions) {
  SessionMux mux;
  SessionManager manager(SessionManagerConfig{}, mux, nullptr);
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
  failed.status = "error:ChannelTimeout: watchdog";
  failed.opened_ns = 200;
  failed.closed_ns = 5'000'000;
  const std::string text = build_sessions_json("S1", 0, {done, failed});
  const obs::JsonValue doc = obs::JsonValue::parse(text);
  EXPECT_TRUE(obs::validate_sessions_json(doc).empty())
      << "problems in: " << text;
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
