// Pinned Alg. 5 wire: the exact frames a seeded single query puts on the
// wire, as the deployment path (ConsensusProtocol::run_party_seeded, one
// party per runner slot — what pc_party and the serving daemons run) sends
// them.  A Channel decorator folds every frame's sender, receiver, step tag
// and payload bytes, plus every bulletin post, into a per-party FNV-1a
// digest; the digests of all parties combine into one value per query.
//
// The pinned values are the paper-shaped wire of Table II.  Any change to a
// single byte, a step tag or the order of one party's frames fails here, so
// a refactor of the party programs cannot move the single-query wire
// without updating these pins on purpose.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "crypto/precompute_service.h"
#include "mpc/consensus.h"
#include "net/party_runner.h"

namespace pcl {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
}

void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  fnv_mix(h, le, sizeof le);
}

void fnv_mix_str(std::uint64_t& h, const std::string& s) {
  fnv_mix_u64(h, s.size());
  fnv_mix(h, reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// Forwards everything to the party's real channel and hashes what this
/// party sends, in its own program order (so the digest does not depend on
/// how the transport interleaves parties).
class DigestChannel final : public Channel {
 public:
  explicit DigestChannel(Channel& inner) : inner_(inner) {}

  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  [[nodiscard]] const std::string& self() const override {
    return inner_.self();
  }
  void send(const std::string& to, MessageWriter message) override {
    const std::vector<std::uint8_t> bytes = std::move(message).take();
    fnv_mix_str(digest_, inner_.self());
    fnv_mix_str(digest_, to);
    fnv_mix_str(digest_, inner_.step());
    fnv_mix_u64(digest_, bytes.size());
    fnv_mix(digest_, bytes.data(), bytes.size());
    MessageWriter copy;
    for (const std::uint8_t b : bytes) copy.write_u8(b);
    inner_.send(to, std::move(copy));
  }
  [[nodiscard]] MessageReader recv(const std::string& from) override {
    return inner_.recv(from);
  }
  void set_step(std::string step) override { inner_.set_step(std::move(step)); }
  [[nodiscard]] const std::string& step() const override {
    return inner_.step();
  }
  void add_step_time(const std::string& step,
                     std::chrono::nanoseconds elapsed) override {
    inner_.add_step_time(step, elapsed);
  }
  void post_public(std::int64_t value) override {
    fnv_mix_str(digest_, "post");
    fnv_mix_u64(digest_, static_cast<std::uint64_t>(value));
    inner_.post_public(value);
  }
  [[nodiscard]] std::int64_t await_public() override {
    return inner_.await_public();
  }

 private:
  Channel& inner_;
  std::uint64_t digest_ = kFnvOffset;
};

struct WireRun {
  std::uint64_t digest = kFnvOffset;
  std::optional<int> label;
};

/// Runs every party of one seeded query through run_party_seeded, each
/// behind its own DigestChannel, and combines the per-party digests in
/// party order (S1, S2, user:0, ...).
WireRun run_wire(const ConsensusProtocol& protocol,
                 const std::vector<std::vector<double>>& votes,
                 std::uint64_t seed) {
  std::vector<std::string> names = {"S1", "S2"};
  for (std::size_t u = 0; u < protocol.config().num_users; ++u) {
    names.push_back("user:" + std::to_string(u));
  }
  std::vector<std::uint64_t> digests(names.size(), kFnvOffset);
  std::vector<std::optional<int>> labels(names.size());
  std::vector<Party> parties;
  for (std::size_t i = 0; i < names.size(); ++i) {
    parties.push_back({names[i], [&, i](Channel& chan) {
                         DigestChannel digest_chan(chan);
                         labels[i] = protocol.run_party_seeded(
                             names[i], votes, seed, digest_chan);
                         digests[i] = digest_chan.digest();
                       }});
  }
  const PartyRunReport report = run_parties(parties, PartyRunOptions{});
  EXPECT_EQ(report.undelivered, 0u);
  EXPECT_EQ(labels[0], labels[1]) << "servers disagree";

  WireRun run;
  run.label = labels[0];
  for (std::size_t i = 0; i < names.size(); ++i) {
    fnv_mix_str(run.digest, names[i]);
    fnv_mix_u64(run.digest, digests[i]);
  }
  return run;
}

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

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(ConsensusWire, ReleasedQueryWireIsPinned) {
  DeterministicRng keygen(7);
  const ConsensusProtocol protocol(small_config(), keygen);
  const WireRun run =
      run_wire(protocol, one_hot_votes({2, 2, 2, 2, 2}, 4), 20200706);
  EXPECT_EQ(run.label, std::optional<int>(2));
  EXPECT_EQ(hex(run.digest), hex(0xab3c5988772cbca2ull));
}

TEST(ConsensusWire, BottomQueryWireIsPinned) {
  DeterministicRng keygen(7);
  const ConsensusProtocol protocol(small_config(), keygen);
  const WireRun run =
      run_wire(protocol, one_hot_votes({0, 1, 2, 3, 0}, 4), 20200706);
  EXPECT_EQ(run.label, std::nullopt);
  EXPECT_EQ(hex(run.digest), hex(0x4f6042f67d3c3a8bull));
}

TEST(ConsensusWire, PackedTournamentPooledWireIsPinned) {
  // Packed secure sum (several labels per ciphertext at 128-bit Paillier),
  // the K-1 tournament argmax, and every party drawing its randomizers from
  // PrecomputeService streams.
  PrecomputeService svc;
  ConsensusConfig cfg = small_config();
  cfg.paillier_bits = 128;
  cfg.pack_secure_sum = true;
  cfg.argmax_strategy = ArgmaxStrategy::kTournament;
  cfg.precompute = &svc;
  DeterministicRng keygen(13);
  const ConsensusProtocol protocol(cfg, keygen);
  const WireRun run =
      run_wire(protocol, one_hot_votes({1, 1, 1, 1, 3}, 4), 31337);
  EXPECT_EQ(run.label, std::optional<int>(1));
  EXPECT_EQ(hex(run.digest), hex(0x9988fa325250e163ull));
}

}  // namespace
}  // namespace pcl
