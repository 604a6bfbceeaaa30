#include "net/transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "net/errors.h"

namespace pcl {
namespace {

MessageWriter make_message(std::size_t payload_bytes) {
  MessageWriter w;
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    w.write_u8(static_cast<std::uint8_t>(i));
  }
  return w;
}

TEST(Network, SendRecvFifoOrder) {
  Network net;
  MessageWriter m1;
  m1.write_u32(1);
  MessageWriter m2;
  m2.write_u32(2);
  net.send("S1", "S2", std::move(m1));
  net.send("S1", "S2", std::move(m2));
  EXPECT_EQ(net.recv("S2", "S1").read_u32(), 1u);
  EXPECT_EQ(net.recv("S2", "S1").read_u32(), 2u);
}

TEST(Network, RecvWithoutSendThrows) {
  Network net;
  EXPECT_THROW((void)net.recv("S2", "S1"), std::logic_error);
}

TEST(Network, LinksAreDirectional) {
  Network net;
  net.send("S1", "S2", make_message(4));
  EXPECT_TRUE(net.has_pending("S2", "S1"));
  EXPECT_FALSE(net.has_pending("S1", "S2"));
  EXPECT_THROW((void)net.recv("S1", "S2"), std::logic_error);
}

TEST(Network, PendingTotal) {
  Network net;
  EXPECT_EQ(net.pending_total(), 0u);
  net.send("user:0", "S1", make_message(1));
  net.send("user:1", "S1", make_message(1));
  net.send("S1", "S2", make_message(1));
  EXPECT_EQ(net.pending_total(), 3u);
  (void)net.recv("S1", "user:0");
  EXPECT_EQ(net.pending_total(), 2u);
}

TEST(Network, WaitRecvBlocksUntilSend) {
  Network net;
  std::int64_t received = 0;
  std::thread reader([&] {
    MessageReader msg = net.wait_recv("B", "A");
    received = msg.read_i64();
  });
  // Give the reader a chance to block first.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  MessageWriter w;
  w.write_i64(4242);
  net.send("A", "B", std::move(w));
  reader.join();
  EXPECT_EQ(received, 4242);
  EXPECT_EQ(net.pending_total(), 0u);
}

TEST(Network, WaitRecvTimesOutOnMissingSend) {
  Network net(nullptr, std::chrono::milliseconds(50));
  EXPECT_THROW((void)net.wait_recv("B", "A"), ChannelTimeout);
}

TEST(Network, WaitRecvIsFifoPerLink) {
  Network net;
  for (std::int64_t i = 0; i < 5; ++i) {
    MessageWriter w;
    w.write_i64(i);
    net.send("A", "B", std::move(w));
  }
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(net.wait_recv("B", "A").read_i64(), i);
  }
}

TEST(TrafficStats, BytesPerStepAndCategory) {
  TrafficStats stats;
  Network net(&stats);
  net.send("user:0", "S1", make_message(100), "Secure Sum (2)");
  net.send("user:1", "S2", make_message(50), "Secure Sum (2)");
  net.send("S1", "S2", make_message(200), "Blind-and-Permute (3)");
  net.send("S2", "S1", make_message(300), "Blind-and-Permute (3)");

  EXPECT_EQ(stats.bytes_for("Secure Sum (2)"), 150u);
  EXPECT_EQ(stats.bytes_for("Secure Sum (2)", "user"), 150u);
  EXPECT_EQ(stats.bytes_for("Secure Sum (2)", "user", "S1"), 100u);
  EXPECT_EQ(stats.bytes_for("Secure Sum (2)", "S"), 0u);
  EXPECT_EQ(stats.bytes_for("Blind-and-Permute (3)", "S", "S"), 500u);
  EXPECT_EQ(stats.messages_for("Blind-and-Permute (3)"), 2u);
  EXPECT_EQ(stats.bytes_for("no such step"), 0u);
}

TEST(TrafficStats, StepsListsEachTrafficStepOnce) {
  TrafficStats stats;
  Network net(&stats);
  net.send("a", "b", make_message(1), "step B");
  net.send("b", "a", make_message(1), "step A");
  net.send("a", "c", make_message(1), "step B");
  EXPECT_EQ(stats.steps(), (std::vector<std::string>{"step A", "step B"}));
}

TEST(TrafficStats, ClearResets) {
  TrafficStats stats;
  Network net(&stats);
  net.send("a", "b", make_message(10), "s");
  stats.clear();
  EXPECT_EQ(stats.bytes_for("s"), 0u);
  EXPECT_TRUE(stats.steps().empty());
}

TEST(Network, RecvErrorNamesBothEndpoints) {
  // A protocol desync is debugged from this message alone, so it must name
  // the exact link: who was expected to have sent, and who was receiving.
  Network net;
  net.send("S1", "S2", make_message(4));  // only link with traffic
  try {
    (void)net.recv("S1", "S2");
    FAIL() << "recv on an empty link must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'S2'"), std::string::npos) << what;
    EXPECT_NE(what.find("'S1'"), std::string::npos) << what;
  }
}

TEST(TrafficStats, EmptyCategoryMatchesEveryParty) {
  TrafficStats stats;
  Network net(&stats);
  net.send("user:0", "S1", make_message(10), "s");
  net.send("user:12", "S1", make_message(20), "s");
  net.send("S2", "S1", make_message(40), "s");
  EXPECT_EQ(stats.bytes_for("s"), 70u);
  EXPECT_EQ(stats.bytes_for("s", "", ""), 70u);
  EXPECT_EQ(stats.messages_for("s"), 3u);
}

TEST(TrafficStats, ExactPartyIdIsItsOwnCategory) {
  TrafficStats stats;
  Network net(&stats);
  net.send("user:0", "S1", make_message(10), "s");
  net.send("user:12", "S1", make_message(20), "s");
  EXPECT_EQ(stats.bytes_for("s", "user:0"), 10u);
  EXPECT_EQ(stats.messages_for("s", "user:0"), 1u);
  // Matching is by prefix, so "user:1" also covers "user:12" — callers
  // wanting one party must pass an id no other id extends.
  EXPECT_EQ(stats.bytes_for("s", "user:1"), 20u);
}

TEST(TrafficStats, UserPrefixAggregatesAllUsers) {
  TrafficStats stats;
  Network net(&stats);
  net.send("user:0", "S1", make_message(10), "s");
  net.send("user:12", "S2", make_message(20), "s");
  net.send("S2", "S1", make_message(40), "s");
  EXPECT_EQ(stats.bytes_for("s", "user"), 30u);
  EXPECT_EQ(stats.messages_for("s", "user"), 2u);
  EXPECT_EQ(stats.bytes_for("s", "user", "S1"), 10u);
  EXPECT_EQ(stats.bytes_for("s", "S2"), 40u);
  EXPECT_EQ(stats.bytes_for("s", "nobody"), 0u);
}

TEST(TrafficStats, TrafficEntriesAreDeterministicAndComparable) {
  // traffic_entries() underpins the cross-transport byte-identity checks:
  // same sends in a different arrival order must compare equal.
  TrafficStats a, b;
  a.record_send("s", "S1", "S2", 10);
  a.record_send("s", "user:0", "S1", 20);
  b.record_send("s", "user:0", "S1", 20);
  b.record_send("s", "S1", "S2", 10);
  EXPECT_EQ(a.traffic_entries(), b.traffic_entries());
  ASSERT_EQ(a.traffic_entries().size(), 2u);
  b.record_send("s", "S1", "S2", 1);
  EXPECT_NE(a.traffic_entries(), b.traffic_entries());
}

TEST(TrafficStats, ByStepAggregatesAcrossLinks) {
  TrafficStats stats;
  stats.record_send("Secure Sum (2)", "user:0", "S1", 100);
  stats.record_send("Secure Sum (2)", "user:1", "S2", 50);
  stats.record_send("Blind-and-Permute (3)", "S1", "S2", 200);
  const obs::TrafficByStep by_step = stats.by_step();
  ASSERT_EQ(by_step.size(), 2u);
  EXPECT_EQ(by_step.at("Secure Sum (2)").bytes, 150u);
  EXPECT_EQ(by_step.at("Secure Sum (2)").messages, 2u);
  EXPECT_EQ(by_step.at("Blind-and-Permute (3)").bytes, 200u);
  EXPECT_EQ(by_step.at("Blind-and-Permute (3)").messages, 1u);
}

TEST(TrafficStats, ConcurrentWritersAndReadersAreRaceFree) {
  // Regression: traffic used to rely on the caller's external lock, which
  // readers (a bench polling totals during a threaded run) didn't take.
  // TrafficStats now locks internally; under the tsan preset this test is
  // the proof.  Assertions pin the totals so a silent lost-update regression
  // also fails on non-tsan configurations.
  TrafficStats stats;
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      const std::string self = "P" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        stats.record_send("step", self, "S1", 3);
      }
    });
  }
  threads.emplace_back([&stats] {  // concurrent reader
    for (int i = 0; i < kIters; ++i) {
      (void)stats.bytes_for("step");
      (void)stats.steps();
      (void)stats.traffic_entries();
      (void)stats.by_step();
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(stats.bytes_for("step"),
            static_cast<std::size_t>(kThreads * kIters * 3));
  EXPECT_EQ(stats.messages_for("step"),
            static_cast<std::size_t>(kThreads * kIters));
}

}  // namespace
}  // namespace pcl
