// Alg. 5 over real loopback TCP sockets (ConsensusTransport::kTcp): same
// label and byte-identical per-step traffic as the deterministic in-process
// reference for the same seed, plus the typed failure surface when a party
// dies or starves mid-protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "mpc/consensus.h"
#include "net/errors.h"
#include "net/message.h"
#include "net/party_runner.h"

namespace pcl {
namespace {

ConsensusConfig small_config() {
  ConsensusConfig cfg;
  cfg.num_classes = 4;
  cfg.num_users = 5;
  cfg.threshold_fraction = 0.6;
  cfg.sigma1 = 1.0;
  cfg.sigma2 = 0.5;
  cfg.share_bits = 30;
  cfg.compare_bits = 44;
  cfg.dgk_params.n_bits = 160;
  cfg.dgk_params.v_bits = 30;
  cfg.dgk_params.plaintext_bound = 160;
  return cfg;
}

std::vector<std::vector<double>> one_hot_votes(const std::vector<int>& picks,
                                               std::size_t classes) {
  std::vector<std::vector<double>> votes;
  for (const int p : picks) {
    std::vector<double> v(classes, 0.0);
    v[static_cast<std::size_t>(p)] = 1.0;
    votes.push_back(std::move(v));
  }
  return votes;
}

TEST(ConsensusTcp, TrafficBytesIdenticalToInProcess) {
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(small_config(), keygen);
  const auto votes = one_hot_votes({2, 2, 2, 2, 2}, 4);
  const std::uint64_t seed = 1234;

  const auto in_process =
      protocol.run_query_seeded(votes, seed, ConsensusTransport::kInProcess);
  const auto reference = protocol.stats().traffic_entries();
  ASSERT_FALSE(reference.empty());

  protocol.stats().clear();
  const auto tcp =
      protocol.run_query_seeded(votes, seed, ConsensusTransport::kTcp);

  EXPECT_EQ(in_process.label, tcp.label);
  EXPECT_EQ(protocol.stats().traffic_entries(), reference);
}

TEST(ConsensusTcp, RejectedQueryParity) {
  // Votes split 2/1/1/1: max true count 2 < T = 3, so with zero injected
  // noise the threshold test fails and both transports release the paper's
  // bot — with byte-identical traffic (the ⊥ path is shorter but must
  // still match step for step).
  DeterministicRng keygen(13);
  ConsensusProtocol protocol(small_config(), keygen);
  const auto votes = one_hot_votes({0, 1, 2, 3, 0}, 4);
  const std::vector<double> release(4, 0.0);
  const std::uint64_t seed = 4321;

  const auto in_process = protocol.run_query_with_noise_seeded(
      votes, 0.0, release, seed, ConsensusTransport::kInProcess);
  EXPECT_FALSE(in_process.label.has_value());
  const auto reference = protocol.stats().traffic_entries();
  ASSERT_FALSE(reference.empty());

  protocol.stats().clear();
  const auto tcp = protocol.run_query_with_noise_seeded(
      votes, 0.0, release, seed, ConsensusTransport::kTcp);
  EXPECT_FALSE(tcp.label.has_value());
  EXPECT_EQ(protocol.stats().traffic_entries(), reference);
}

TEST(ConsensusTcp, SeededRepeatIsDeterministic) {
  DeterministicRng keygen(7);
  ConsensusProtocol protocol(small_config(), keygen);
  const auto votes = one_hot_votes({1, 1, 1, 3, 1}, 4);

  const auto first =
      protocol.run_query_seeded(votes, 99, ConsensusTransport::kTcp);
  const auto entries = protocol.stats().traffic_entries();
  protocol.stats().clear();
  const auto second =
      protocol.run_query_seeded(votes, 99, ConsensusTransport::kTcp);
  EXPECT_EQ(first.label, second.label);
  EXPECT_EQ(protocol.stats().traffic_entries(), entries);
}

TEST(ConsensusTcp, DeadPeerSurfacesChannelClosedNotHang) {
  // "B" dies right after connecting; "A" is left waiting on a message that
  // will never come.  The runner must surface the typed root cause within
  // the recv deadline instead of hanging.
  const std::vector<Party> parties = {
      Party{"A", [](Channel& chan) { (void)chan.recv("B"); }},
      Party{"B", [](Channel&) { /* exits immediately */ }},
  };
  PartyRunOptions options;
  options.transport = PartyTransport::kTcp;
  options.recv_timeout = std::chrono::milliseconds(2000);
  EXPECT_THROW((void)run_parties(parties, options), ChannelClosed);
}

TEST(ConsensusTcp, HangupFailsOnlyTheReceivesFromThatPeer) {
  // "C" sends its last message and exits at once, so its FIN can follow
  // the message in the same read.  "A" still reads the message; only a
  // receive from "C" past it fails, and A<->B traffic afterwards is
  // untouched — as for a user that leaves after step 6 while S1 and S2
  // run steps 7-9.
  std::atomic<bool> closed_seen{false};
  std::atomic<std::uint64_t> from_c{0};
  std::atomic<std::uint64_t> from_b{0};
  const auto send_u64 = [](Channel& chan, const std::string& to,
                           std::uint64_t v) {
    MessageWriter w;
    w.write_u64(v);
    chan.send(to, std::move(w));
  };
  const std::vector<Party> parties = {
      Party{"A",
            [&](Channel& chan) {
              from_c = chan.recv("C").read_u64();
              try {
                (void)chan.recv("C");
              } catch (const ChannelClosed&) {
                closed_seen = true;
              }
              send_u64(chan, "B", 1);
              from_b = chan.recv("B").read_u64();
            }},
      Party{"B",
            [&](Channel& chan) {
              (void)chan.recv("A");
              send_u64(chan, "A", 2);
            }},
      Party{"C", [&](Channel& chan) { send_u64(chan, "A", 3); }},
  };
  PartyRunOptions options;
  options.transport = PartyTransport::kTcp;
  options.recv_timeout = std::chrono::milliseconds(5000);
  EXPECT_NO_THROW((void)run_parties(parties, options));
  EXPECT_EQ(from_c, 3u);
  EXPECT_TRUE(closed_seen);
  EXPECT_EQ(from_b, 2u);
}

TEST(ConsensusTcp, StarvedPartySurfacesChannelTimeout) {
  // "B" stays alive (socket open) but never sends: "A"'s recv must give up
  // with ChannelTimeout at its deadline — the wedged-peer case, distinct
  // from the dead-peer EOF above.
  const std::vector<Party> parties = {
      Party{"A", [](Channel& chan) { (void)chan.recv("B"); }},
      Party{"B", [](Channel&) {
              std::this_thread::sleep_for(std::chrono::milliseconds(800));
            }},
  };
  PartyRunOptions options;
  options.transport = PartyTransport::kTcp;
  options.recv_timeout = std::chrono::milliseconds(300);
  EXPECT_THROW((void)run_parties(parties, options), ChannelTimeout);
}

}  // namespace
}  // namespace pcl
