// Channel-layer tests: party programs over NetworkChannel, the party
// runner's deterministic and threaded schedules, their one failure rule,
// and the public bulletin.  The cross-schedule contract — same parties,
// same seeds, same per-step traffic — is exercised here on a toy protocol;
// the full consensus query's version lives in consensus_threaded_test.cpp.
#include "net/channel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bigint/rng.h"
#include "net/errors.h"
#include "net/party_runner.h"
#include "obs/clock.h"

namespace pcl {
namespace {

MessageWriter payload(std::size_t bytes) {
  MessageWriter w;
  for (std::size_t i = 0; i < bytes; ++i) {
    w.write_u8(static_cast<std::uint8_t>(i));
  }
  return w;
}

TEST(PartyRunner, PingPongWithStepTags) {
  TrafficStats stats;
  const Party parties[] = {
      {"S1",
       [](Channel& chan) {
         ChannelStepScope scope(chan, "ping");
         chan.send("S2", payload(10));
         EXPECT_EQ(chan.recv("S2").read_u8(), 0u);
       }},
      {"S2",
       [](Channel& chan) {
         // S2 receives first: the runner must yield its baton until S1's
         // message lands instead of throwing recv-on-empty.
         (void)chan.recv("S1");
         ChannelStepScope scope(chan, "pong");
         chan.send("S1", payload(20));
       }},
  };
  PartyRunOptions options;
  options.stats = &stats;
  const PartyRunReport report = run_parties(parties, options);
  EXPECT_EQ(stats.bytes_for("ping", "S1", "S2"), 10u);
  EXPECT_EQ(stats.bytes_for("pong", "S2", "S1"), 20u);
  EXPECT_EQ(report.undelivered, 0u);
}

TEST(PartyRunner, SchedulingIsDeterministic) {
  // Three users race to send; the baton policy (lowest-index runnable) must
  // produce the identical transcript on every run.
  const auto transcript_of = [] {
    std::vector<Party> parties;
    parties.push_back({"S1", [](Channel& chan) {
                         for (int u = 0; u < 3; ++u) {
                           (void)chan.recv("user:" + std::to_string(u));
                         }
                       }});
    for (int u = 0; u < 3; ++u) {
      parties.push_back({"user:" + std::to_string(u), [u](Channel& chan) {
                           chan.send("S1", payload(5 + static_cast<std::size_t>(
                                                           u)));
                         }});
    }
    PartyRunOptions options;
    options.record_transcript = true;
    return run_parties(parties, options).transcript;
  };
  const auto a = transcript_of();
  const auto b = transcript_of();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(PartyRunner, ThreadedAndDeterministicTrafficAgree) {
  // Toy two-round protocol with per-party seeded RNGs: the per-step traffic
  // must be byte-identical across transports.  Message sizes are drawn from
  // each party's own Rng so the comparison has teeth.
  const auto run_with = [](PartyTransport transport, std::uint64_t seed) {
    TrafficStats stats;
    const Party parties[] = {
        {"S1",
         [seed](Channel& chan) {
           DeterministicRng rng(derive_party_seed(seed, 0));
           ChannelStepScope scope(chan, "round 1");
           chan.send("S2", payload(1 + rng.next_u64() % 100));
           ChannelStepScope scope2(chan, "round 2");
           (void)chan.recv("S2");
         }},
        {"S2",
         [seed](Channel& chan) {
           DeterministicRng rng(derive_party_seed(seed, 1));
           (void)chan.recv("S1");
           ChannelStepScope scope(chan, "round 2");
           chan.send("S1", payload(1 + rng.next_u64() % 100));
         }},
    };
    PartyRunOptions options;
    options.transport = transport;
    options.stats = &stats;
    (void)run_parties(parties, options);
    return stats.traffic_entries();
  };
  const auto deterministic =
      run_with(PartyTransport::kDeterministic, 42);
  const auto threaded = run_with(PartyTransport::kThreaded, 42);
  EXPECT_EQ(deterministic, threaded);
  EXPECT_FALSE(deterministic.empty());
  // Different seed, different payload bytes (sanity check the comparison
  // has teeth).
  EXPECT_NE(run_with(PartyTransport::kDeterministic, 43), deterministic);
}

TEST(PartyRunner, DeadlockIsDiagnosed) {
  const Party parties[] = {
      {"S1", [](Channel& chan) { (void)chan.recv("S2"); }},
      {"S2", [](Channel& chan) { (void)chan.recv("S1"); }},
  };
  try {
    (void)run_parties(parties, PartyRunOptions{});
    FAIL() << "cyclic waiting must be reported";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("S1 awaits S2"), std::string::npos) << what;
    EXPECT_NE(what.find("S2 awaits S1"), std::string::npos) << what;
  }
}

TEST(PartyRunner, PartyErrorPropagatesAndUnwindsPeers) {
  bool s2_finished = false;
  const Party parties[] = {
      {"S1",
       [](Channel&) { throw std::runtime_error("party failure"); }},
      {"S2",
       [&](Channel& chan) {
         (void)chan.recv("S1");
         s2_finished = true;
       }},
  };
  EXPECT_THROW((void)run_parties(parties, PartyRunOptions{}),
               std::runtime_error);
  // The blocked peer was unwound, not left running or completed.
  EXPECT_FALSE(s2_finished);
}

TEST(PartyRunner, PublicBulletinReachesEveryAwaiter) {
  std::int64_t seen_a = -1, seen_b = -1;
  const Party parties[] = {
      {"S1", [](Channel& chan) { chan.post_public(7); }},
      {"user:0", [&](Channel& chan) { seen_a = chan.await_public(); }},
      {"user:1", [&](Channel& chan) { seen_b = chan.await_public(); }},
  };
  (void)run_parties(parties, PartyRunOptions{});
  EXPECT_EQ(seen_a, 7);
  EXPECT_EQ(seen_b, 7);
}

TEST(PartyRunner, PublicBulletinIsAnOrderedLog) {
  // Multi-post: the bulletin is an ordered log, and every consumer walks it
  // through its own cursor (lane-batched runs post one verdict per query).
  std::vector<std::int64_t> seen_a, seen_b;
  const Party parties[] = {
      {"S1",
       [](Channel& chan) {
         chan.post_public(1);
         chan.post_public(2);
         chan.post_public(3);
       }},
      {"user:0",
       [&](Channel& chan) {
         for (int i = 0; i < 3; ++i) seen_a.push_back(chan.await_public());
       }},
      {"user:1",
       [&](Channel& chan) {
         for (int i = 0; i < 3; ++i) seen_b.push_back(chan.await_public());
       }},
  };
  (void)run_parties(parties, PartyRunOptions{});
  const std::vector<std::int64_t> want = {1, 2, 3};
  EXPECT_EQ(seen_a, want);
  EXPECT_EQ(seen_b, want);
}

TEST(PartyRunner, ThreadedBulletinIsAnOrderedLog) {
  std::vector<std::int64_t> seen;
  const Party parties[] = {
      {"S1",
       [](Channel& chan) {
         chan.post_public(10);
         chan.post_public(20);
       }},
      {"user:0",
       [&](Channel& chan) {
         seen.push_back(chan.await_public());
         seen.push_back(chan.await_public());
       }},
  };
  PartyRunOptions options;
  options.transport = PartyTransport::kThreaded;
  (void)run_parties(parties, options);
  const std::vector<std::int64_t> want = {10, 20};
  EXPECT_EQ(seen, want);
}

TEST(NetworkChannel, StepLessSendRecordsUnset) {
  // A send made outside any step is recorded as "(unset)", the label every
  // transport gives it, so a step-less send reads the same everywhere.
  TrafficStats stats;
  Network net(&stats);
  net.record_transcript(true);
  NetworkChannel chan(net, "S1");
  chan.send("S2", payload(4));
  EXPECT_EQ(stats.bytes_for("(unset)", "S1", "S2"), 4u);
  EXPECT_EQ(net.transcript().front().step, "(unset)");
  {
    ChannelStepScope scope(chan, "explicit");
    chan.send("S2", payload(8));
  }
  EXPECT_EQ(stats.bytes_for("explicit", "S1", "S2"), 8u);
}

TEST(PartyRunner, ThreadedRecvTimeoutPrefersRootCause) {
  // S2 dies with a real error; S1 then starves.  The runner must surface
  // S2's failure, not S1's secondary unwind.
  const Party parties[] = {
      {"S1", [](Channel& chan) { (void)chan.recv("S2"); }},
      {"S2", [](Channel&) { throw std::invalid_argument("root cause"); }},
  };
  PartyRunOptions options;
  options.transport = PartyTransport::kThreaded;
  options.recv_timeout = std::chrono::milliseconds(100);
  try {
    (void)run_parties(parties, options);
    FAIL() << "the failing party's error must propagate";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "root cause");
  }
}

TEST(PartyRunner, ThreadedFailureUnwindsBlockedPeerAtOnce) {
  // S2 fails while S1 is blocked on it.  S1 must unwind at once, without
  // sitting out its 5 s deadline into a ChannelTimeout, and the run must
  // report S2's error.
  bool s1_timed_out = false;
  const Party parties[] = {
      {"S1",
       [&](Channel& chan) {
         try {
           (void)chan.recv("S2");
         } catch (const ChannelTimeout&) {
           s1_timed_out = true;
           throw;
         }
       }},
      {"S2",
       [](Channel&) {
         // Let S1 reach its recv first.
         std::this_thread::sleep_for(std::chrono::milliseconds(20));
         throw std::invalid_argument("root cause");
       }},
  };
  PartyRunOptions options;
  options.transport = PartyTransport::kThreaded;
  options.recv_timeout = std::chrono::seconds(5);
  const std::uint64_t start_ns = obs::monotonic_time_ns();
  try {
    (void)run_parties(parties, options);
    FAIL() << "the failing party's error must propagate";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "root cause");
  }
  EXPECT_FALSE(s1_timed_out);
  EXPECT_LT(obs::monotonic_time_ns() - start_ns, 2'500'000'000u);
}

TEST(PartyRunner, ThreadedAwaitTimesOutWhenNobodyPosts) {
  const Party parties[] = {
      {"user:0", [](Channel& chan) { (void)chan.await_public(); }},
  };
  PartyRunOptions options;
  options.transport = PartyTransport::kThreaded;
  options.recv_timeout = std::chrono::milliseconds(50);
  EXPECT_THROW((void)run_parties(parties, options), ChannelTimeout);
}

TEST(PartyRunner, DerivePartySeedSeparatesStreams) {
  EXPECT_NE(derive_party_seed(1, 0), derive_party_seed(1, 1));
  EXPECT_NE(derive_party_seed(1, 0), derive_party_seed(2, 0));
  EXPECT_EQ(derive_party_seed(7, 3), derive_party_seed(7, 3));
}

TEST(PartyRunner, ReportCountsUndeliveredMessages) {
  const Party parties[] = {
      {"S1", [](Channel& chan) { chan.send("S2", payload(3)); }},
      {"S2", [](Channel&) {}},
  };
  PartyRunOptions options;
  const PartyRunReport report = run_parties(parties, options);
  EXPECT_EQ(report.undelivered, 1u);
  EXPECT_EQ(report.bytes_sent, 3u);
}

}  // namespace
}  // namespace pcl
