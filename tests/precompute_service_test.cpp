// Precompute service (crypto/precompute_service.h): the load-bearing
// property is that pool warmth changes WHERE work happens, never WHAT
// bytes come out — a warm, cold or half-warm stream of the same (key,
// seed) yields bit-identical ciphertexts.
#include "crypto/precompute_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mpc/lane_pool.h"

namespace pcl {
namespace {

class PrecomputeServiceTest : public ::testing::Test {
 protected:
  PrecomputeServiceTest() : rng_(424) {
    paillier_ = generate_paillier_key(64, rng_);
    dgk_ = generate_dgk_key({160, 30, 160}, rng_);
  }
  DeterministicRng rng_;
  PaillierKeyPair paillier_;
  DgkKeyPair dgk_;
};

TEST_F(PrecomputeServiceTest, WarmColdAndHalfWarmPaillierStreamsAgree) {
  PaillierPowerStream warm(paillier_.pk, 5);
  PaillierPowerStream cold(paillier_.pk, 5);
  PaillierPowerStream half(paillier_.pk, 5);
  warm.generate(8);
  half.generate(3);
  for (std::int64_t m = -4; m < 4; ++m) {
    const PaillierCiphertext a = warm.encrypt(BigInt(m));
    const PaillierCiphertext b = cold.encrypt(BigInt(m));
    const PaillierCiphertext c = half.encrypt(BigInt(m));
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.value, c.value);
    EXPECT_EQ(paillier_.sk.decrypt(a), BigInt(m));
  }
  EXPECT_EQ(warm.stats().hits, 8u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(cold.stats().hits, 0u);
  EXPECT_EQ(cold.stats().misses, 8u);
  EXPECT_EQ(half.stats().hits, 3u);
  EXPECT_EQ(half.stats().misses, 5u);
}

TEST_F(PrecomputeServiceTest, PaillierStreamCiphertextsAreProbabilistic) {
  // Every draw takes a fresh randomizer, warm or cold: 16 encryptions of
  // one plaintext are pairwise distinct.
  PaillierPowerStream warm(paillier_.pk, 3);
  PaillierPowerStream cold(paillier_.pk, 4);
  warm.generate(16);
  for (PaillierPowerStream* stream : {&warm, &cold}) {
    std::set<std::string> seen;
    for (int i = 0; i < 16; ++i) {
      seen.insert(stream->encrypt(BigInt(7)).value.to_string(16));
    }
    EXPECT_EQ(seen.size(), 16u);
  }
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(cold.stats().misses, 16u);
}

TEST_F(PrecomputeServiceTest, PaillierStreamInlineDrawsAreDistinctFromWarm) {
  // Past its warm powers a stream keeps drawing from the same Rng, so the
  // inline fall-through never replays a precomputed randomizer.
  PaillierPowerStream stream(paillier_.pk, 11);
  stream.generate(3);
  std::set<std::string> seen;
  for (int i = 0; i < 6; ++i) {
    seen.insert(stream.encrypt(BigInt(5)).value.to_string(16));
  }
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(stream.stats().hits, 3u);
  EXPECT_EQ(stream.stats().misses, 3u);
}

TEST_F(PrecomputeServiceTest, PaillierStreamCiphertextsAddHomomorphically) {
  PaillierPowerStream stream(paillier_.pk, 5);
  stream.generate(1);  // one warm draw, one inline
  const PaillierCiphertext c1 = stream.encrypt(BigInt(1000));
  const PaillierCiphertext c2 = stream.encrypt(BigInt(-400));
  EXPECT_EQ(paillier_.sk.decrypt(paillier_.pk.add(c1, c2)), BigInt(600));
}

TEST_F(PrecomputeServiceTest, StreamsGeneratedOnTheLanePoolMatchSerial) {
  // One generator per stream is what lets offline generation fan out: W
  // streams filled concurrently on the shared lane pool hold exactly the
  // powers the same streams hold when filled one after another.
  const std::size_t streams = LanePool::shared().thread_count() + 2;
  const std::size_t per_stream = 12;
  std::vector<std::unique_ptr<PaillierPowerStream>> concurrent, serial;
  for (std::size_t w = 0; w < streams; ++w) {
    concurrent.push_back(
        std::make_unique<PaillierPowerStream>(paillier_.pk, 100 + w));
    serial.push_back(
        std::make_unique<PaillierPowerStream>(paillier_.pk, 100 + w));
  }
  LanePool::shared().run(streams, [&](std::size_t w) {
    concurrent[w]->generate(per_stream);
  });
  for (const auto& stream : serial) stream->generate(per_stream);
  for (std::size_t w = 0; w < streams; ++w) {
    for (std::size_t i = 0; i < per_stream; ++i) {
      const BigInt m(static_cast<std::int64_t>(w * per_stream + i) - 30);
      const PaillierCiphertext a = concurrent[w]->encrypt(m);
      EXPECT_EQ(a.value, serial[w]->encrypt(m).value) << w << ":" << i;
      EXPECT_EQ(paillier_.sk.decrypt(a), m);
    }
    EXPECT_EQ(concurrent[w]->stats().hits, per_stream);
    EXPECT_EQ(concurrent[w]->stats().misses, 0u);
  }
}

TEST_F(PrecomputeServiceTest, WarmColdDgkStreamsAgree) {
  DgkPowerStream warm(dgk_.pk, 9);
  DgkPowerStream cold(dgk_.pk, 9);
  warm.generate(4);
  for (std::uint64_t m = 0; m < 6; ++m) {
    const DgkCiphertext a = warm.encrypt(m);
    const DgkCiphertext b = cold.encrypt(m);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(dgk_.sk.decrypt(a), m);
  }
  EXPECT_EQ(warm.stats().hits, 4u);
  EXPECT_EQ(warm.stats().misses, 2u);
  EXPECT_EQ(cold.stats().misses, 6u);
}

TEST_F(PrecomputeServiceTest, ReleaseDropsReadyPowersAndCountsThem) {
  // A finished query's leftovers go; the counters stay, and a later draw
  // continues from the stream's Rng past the released powers.
  DgkPowerStream stream(dgk_.pk, 9);
  DgkPowerStream reference(dgk_.pk, 9);
  stream.generate(5);
  reference.generate(6);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(stream.draw_power(), reference.draw_power());
  }
  stream.release();
  PrecomputeStats stats = stream.stats();
  EXPECT_EQ(stats.ready, 0u);
  EXPECT_EQ(stats.released, 3u);
  EXPECT_EQ(stats.generated, stats.hits + stats.ready + stats.released);
  for (int i = 0; i < 3; ++i) (void)reference.draw_power();
  EXPECT_EQ(stream.draw_power(), reference.draw_power());
  stats = stream.stats();
  EXPECT_EQ(stats.misses, 1u);
  stream.release();  // nothing ready: a no-op
  EXPECT_EQ(stream.stats().released, 3u);

  PrecomputeService service;
  service.paillier_powers(paillier_.pk, 1).generate(4);
  service.dgk_powers(dgk_.pk, 2).generate(2);
  service.paillier_powers(paillier_.pk, 1).release();
  service.dgk_powers(dgk_.pk, 2).release();
  EXPECT_EQ(service.totals().released, 6u);
  EXPECT_EQ(service.totals().ready, 0u);
}

TEST_F(PrecomputeServiceTest, RegistryRendezvousOnKeyAndSeed) {
  PrecomputeService svc;
  PaillierPowerStream& s1 = svc.paillier_powers(paillier_.pk, 7);
  PaillierPowerStream& s2 = svc.paillier_powers(paillier_.pk, 7);
  EXPECT_EQ(&s1, &s2);  // same identity -> same stream
  PaillierPowerStream& other = svc.paillier_powers(paillier_.pk, 8);
  EXPECT_NE(&s1, &other);
}

}  // namespace
}  // namespace pcl
