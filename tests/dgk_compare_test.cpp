// Secure comparison protocol tests: exhaustive small ranges, signed and
// boundary sweeps, and the plaintext oracle property x >= y.  Every
// comparison runs the four message-slot halves in protocol order, as the
// lane programs do, handing each message straight to the peer's half.
#include "mpc/dgk_compare.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/party_runner.h"

namespace pcl {
namespace {

class DgkCompareTest : public ::testing::Test {
 protected:
  DgkCompareTest() : rng_(12345) {
    DgkParams params;
    params.n_bits = 160;
    params.v_bits = 30;
    params.plaintext_bound = 200;  // u > 3*ell+4 for ell up to 62
    key_ = generate_dgk_key(params, rng_);
  }

  /// S1 holds x and draws from derive_party_seed(seed, 0); S2 holds y and
  /// the private key and draws from derive_party_seed(seed, 1).  Both
  /// sides must learn the same bit, and every message must be consumed.
  bool compare(std::int64_t x, std::int64_t y, std::size_t ell) {
    const DgkCompareContext ctx(key_.pk, key_.sk, ell);
    const std::uint64_t seed = rng_.next_u64();
    DeterministicRng s1_rng(derive_party_seed(seed, 0));
    DeterministicRng s2_rng(derive_party_seed(seed, 1));
    MessageReader e_bits(dgk_compare_s2_bits(ctx, y, s2_rng).take());
    MessageReader blinded(
        dgk_compare_s1_blind(key_.pk, ell, x, e_bits, s1_rng).take());
    MessageWriter reply;
    const bool s2_result = dgk_compare_s2_decide(ctx, blinded, reply);
    MessageReader bit(std::move(reply).take());
    const bool s1_result = dgk_compare_read_bit(bit);
    EXPECT_EQ(s1_result, s2_result);
    EXPECT_TRUE(e_bits.exhausted() && blinded.exhausted() && bit.exhausted());
    return s2_result;
  }

  DeterministicRng rng_;
  DgkKeyPair key_;
};

TEST_F(DgkCompareTest, ExhaustiveSmallRange) {
  for (std::int64_t x = -8; x < 8; ++x) {
    for (std::int64_t y = -8; y < 8; ++y) {
      EXPECT_EQ(compare(x, y, 5), x >= y) << x << " vs " << y;
    }
  }
}

TEST_F(DgkCompareTest, EqualValues) {
  for (const std::int64_t v : {0ll, 1ll, -1ll, 1000ll, -1000ll, 123456ll}) {
    EXPECT_TRUE(compare(v, v, 22)) << v;
  }
}

TEST_F(DgkCompareTest, AdjacentValues) {
  for (const std::int64_t v : {-100ll, -1ll, 0ll, 1ll, 99ll, 1ll << 20}) {
    EXPECT_TRUE(compare(v + 1, v, 24));
    EXPECT_FALSE(compare(v, v + 1, 24));
  }
}

TEST_F(DgkCompareTest, BoundaryOfDomain) {
  const std::size_t ell = 10;
  const std::int64_t half = 1 << (ell - 1);
  EXPECT_TRUE(compare(half - 1, -half, ell));
  EXPECT_FALSE(compare(-half, half - 1, ell));
  EXPECT_TRUE(compare(-half, -half, ell));
  EXPECT_THROW((void)compare(half, 0, ell), std::out_of_range);
  EXPECT_THROW((void)compare(0, -half - 1, ell), std::out_of_range);
}

TEST_F(DgkCompareTest, RandomSweepWideWidth) {
  DeterministicRng vals(777);
  for (int i = 0; i < 60; ++i) {
    const std::int64_t x = vals.uniform_in(BigInt(-(1ll << 50)),
                                           BigInt(1ll << 50)).to_int64();
    const std::int64_t y = vals.uniform_in(BigInt(-(1ll << 50)),
                                           BigInt(1ll << 50)).to_int64();
    EXPECT_EQ(compare(x, y, 52), x >= y) << x << " vs " << y;
  }
}

TEST_F(DgkCompareTest, ContextValidation) {
  EXPECT_THROW((void)DgkCompareContext(key_.pk, key_.sk, 0),
               std::invalid_argument);
  EXPECT_THROW((void)DgkCompareContext(key_.pk, key_.sk, 63),
               std::invalid_argument);
  // u ~ 211 here, so ell = 62 gives 3*62+4 = 190 < u: fine; a tiny-u key
  // must be rejected for wide ell.
  DeterministicRng rng(9);
  DgkParams tiny;
  tiny.n_bits = 160;
  tiny.v_bits = 30;
  tiny.plaintext_bound = 16;  // u = 17
  const DgkKeyPair small_key = generate_dgk_key(tiny, rng);
  EXPECT_THROW((void)DgkCompareContext(small_key.pk, small_key.sk, 8),
               std::invalid_argument);
  EXPECT_NO_THROW((void)DgkCompareContext(small_key.pk, small_key.sk, 4));
}

TEST_F(DgkCompareTest, CommunicationIsTwoCiphertextRounds) {
  // S2 -> S1: ell bit ciphertexts; S1 -> S2: ell blinded ciphertexts;
  // S2 -> S1: the one-byte result.
  const std::size_t ell = 16;
  const DgkCompareContext ctx(key_.pk, key_.sk, ell);
  DeterministicRng s1_rng(derive_party_seed(7, 0));
  DeterministicRng s2_rng(derive_party_seed(7, 1));
  const auto ciphertext_count = [](const std::vector<std::uint8_t>& bytes) {
    MessageReader r(bytes);
    const std::size_t n = r.read_bigint_vector().size();
    EXPECT_TRUE(r.exhausted());
    return n;
  };

  const std::vector<std::uint8_t> bits =
      dgk_compare_s2_bits(ctx, 5, s2_rng).take();
  EXPECT_EQ(ciphertext_count(bits), ell);
  MessageReader e_bits(bits);
  const std::vector<std::uint8_t> blinded =
      dgk_compare_s1_blind(key_.pk, ell, 3, e_bits, s1_rng).take();
  EXPECT_EQ(ciphertext_count(blinded), ell);
  // Each ciphertext is ~n/8 bytes.
  EXPECT_GT(blinded.size(), ell * 12u);
  MessageReader blinded_in(blinded);
  MessageWriter reply;
  EXPECT_FALSE(dgk_compare_s2_decide(ctx, blinded_in, reply));
  EXPECT_EQ(reply.size(), 1u);
}

TEST_F(DgkCompareTest, DecideRejectsOversizedCount) {
  // A count of 2^62 cannot be backed by the message: rejected as framing
  // before anything is allocated.
  const DgkCompareContext ctx(key_.pk, key_.sk, 8);
  MessageWriter w;
  w.write_u64(std::uint64_t{1} << 62);
  MessageReader blinded(std::move(w).take());
  MessageWriter reply;
  EXPECT_THROW((void)dgk_compare_s2_decide(ctx, blinded, reply), FramingError);
  EXPECT_EQ(reply.size(), 0u);
}

TEST_F(DgkCompareTest, DecideRejectsEmptySequence) {
  // An empty sequence contains no zero, so accepting it would decide
  // x >= y without testing anything.  S2 requires exactly ell.
  const DgkCompareContext ctx(key_.pk, key_.sk, 8);
  MessageWriter w;
  w.write_u64(0);
  MessageReader blinded(std::move(w).take());
  MessageWriter reply;
  EXPECT_THROW((void)dgk_compare_s2_decide(ctx, blinded, reply), FramingError);
  EXPECT_EQ(reply.size(), 0u);
}

TEST_F(DgkCompareTest, BlindRejectsWrongBitCount) {
  // S1 likewise takes exactly ell bit ciphertexts from S2.
  const DgkCompareContext narrow(key_.pk, key_.sk, 8);
  DeterministicRng rng(3);
  MessageReader e_bits(dgk_compare_s2_bits(narrow, 1, rng).take());
  EXPECT_THROW((void)dgk_compare_s1_blind(key_.pk, 9, 1, e_bits, rng),
               FramingError);
}

}  // namespace
}  // namespace pcl
