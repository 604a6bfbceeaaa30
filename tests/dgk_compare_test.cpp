// Secure comparison protocol tests: exhaustive small ranges, signed and
// boundary sweeps, and the plaintext oracle property x >= y.  Every
// comparison runs the four message-slot halves in protocol order, as the
// lane programs do, handing each message straight to the peer's half.
#include "mpc/dgk_compare.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mpc/lane_pool.h"
#include "mpc/permutation.h"
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

// A ciphertext outside [1, n) is rejected where it comes off the wire, on
// each side: 0 and n are the two edges.  Each case replaces one element of
// an honest message and expects a FramingError naming the slot and index.

/// `count` honest-looking ciphertexts, element `bad` replaced by `value`.
MessageReader batch_with(const DgkPublicKey& pk, std::size_t count,
                         std::size_t bad, const BigInt& value) {
  DeterministicRng rng(9);
  MessageWriter w;
  w.write_u64(count);
  for (std::size_t i = 0; i < count; ++i) {
    w.write_bigint(i == bad ? value
                            : pk.encrypt(std::uint64_t{i % 2}, rng).value);
  }
  return MessageReader(std::move(w).take());
}

void expect_framing_error(const std::function<void()>& op,
                          const std::string& slot, std::size_t index) {
  try {
    op();
    ADD_FAILURE() << "no FramingError for ciphertext " << index;
  } catch (const FramingError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(slot), std::string::npos) << what;
    EXPECT_NE(what.find("ciphertext " + std::to_string(index)),
              std::string::npos)
        << what;
  }
}

TEST_F(DgkCompareTest, BlindRejectsBitCiphertextZero) {
  DeterministicRng rng(4);
  MessageReader e_bits = batch_with(key_.pk, 8, 3, BigInt(0));
  expect_framing_error(
      [&] { (void)dgk_compare_s1_blind(key_.pk, 8, 1, e_bits, rng); },
      "slot 1", 3);
}

TEST_F(DgkCompareTest, BlindRejectsBitCiphertextEqualToN) {
  DeterministicRng rng(4);
  MessageReader e_bits = batch_with(key_.pk, 8, 7, key_.pk.n());
  expect_framing_error(
      [&] { (void)dgk_compare_s1_blind(key_.pk, 8, 1, e_bits, rng); },
      "slot 1", 7);
}

TEST_F(DgkCompareTest, DecideRejectsBlindedCiphertextZero) {
  const DgkCompareContext ctx(key_.pk, key_.sk, 8);
  MessageReader blinded = batch_with(key_.pk, 8, 0, BigInt(0));
  MessageWriter reply;
  expect_framing_error(
      [&] { (void)dgk_compare_s2_decide(ctx, blinded, reply); }, "slot 2", 0);
  EXPECT_EQ(reply.size(), 0u);
}

TEST_F(DgkCompareTest, DecideRejectsBlindedCiphertextEqualToN) {
  const DgkCompareContext ctx(key_.pk, key_.sk, 8);
  MessageReader blinded = batch_with(key_.pk, 8, 5, key_.pk.n());
  MessageWriter reply;
  expect_framing_error(
      [&] { (void)dgk_compare_s2_decide(ctx, blinded, reply); }, "slot 2", 5);
  EXPECT_EQ(reply.size(), 0u);
}

// --- Fan-out at deployment widths ------------------------------------------
// From kElementFanOutMinBits on, both sides draw first and exponentiate on
// the shared LanePool.  The bytes must be those of the bit-by-bit loop the
// halves ran before the split, for the same Rng and stream draws.

/// The bit-by-bit S2 slot: each bit drawn and encrypted in turn.
std::vector<std::uint8_t> serial_s2_bits(const DgkPublicKey& pk,
                                         std::uint64_t e, std::size_t ell,
                                         Rng& rng, DgkPowerStream* bank) {
  MessageWriter msg;
  msg.write_u64(ell);
  for (std::size_t i = 0; i < ell; ++i) {
    const std::uint64_t bit = (e >> i) & 1u;
    msg.write_bigint(bank != nullptr ? bank->encrypt(BigInt(bit)).value
                                     : pk.encrypt(bit, rng).value);
  }
  return std::move(msg).take();
}

/// The bit-by-bit S1 slot: per bit, MSB to LSB, encrypt, negate, fold in
/// 3W, blind, then advance W.
std::vector<std::uint8_t> serial_s1_blind(const DgkPublicKey& pk,
                                          std::uint64_t d,
                                          const std::vector<BigInt>& e_bits,
                                          Rng& rng, DgkPowerStream* bank) {
  const auto encrypt = [&](std::uint64_t m) {
    return bank != nullptr ? bank->encrypt(BigInt(m)) : pk.encrypt(m, rng);
  };
  const std::size_t width = e_bits.size();
  const DgkCiphertext enc_one = encrypt(1);
  DgkCiphertext w_sum = encrypt(0);
  std::vector<DgkCiphertext> c_seq;
  for (std::size_t idx = width; idx-- > 0;) {
    const std::uint64_t d_bit = (d >> idx) & 1u;
    const DgkCiphertext e_bit{e_bits[idx]};
    DgkCiphertext c = pk.add(encrypt(1 + d_bit), pk.negate(e_bit));
    c = pk.add(c, pk.scalar_mul(w_sum, BigInt(3)));
    c_seq.push_back(pk.blind_multiplicative(c, rng));
    w_sum = pk.add(w_sum,
                   d_bit == 0 ? e_bit : pk.add(enc_one, pk.negate(e_bit)));
  }
  const Permutation shuffle = Permutation::random(width, rng);
  MessageWriter msg;
  msg.write_u64(width);
  for (const DgkCiphertext& c : shuffle.apply(c_seq)) msg.write_bigint(c.value);
  return std::move(msg).take();
}

/// One DGK key over the fan-out threshold, built once for the suite: two
/// bits over it, because keygen fixes the lengths of p and q, not of n.
const DgkKeyPair& wide_key() {
  static const DgkKeyPair key = [] {
    DeterministicRng rng(2020);
    DgkParams params;
    params.n_bits = kElementFanOutMinBits + 2;
    params.v_bits = 160;
    params.plaintext_bound = 160;
    return generate_dgk_key(params, rng);
  }();
  return key;
}

/// Runs S2's and S1's slots of one 52-bit comparison both ways, from the
/// same seeds, and expects the same bytes and the same Rng positions after.
/// With `streams`, each party draws from its own DGK stream, warm for S2
/// and cold for S1.
void expect_serial_bytes(std::uint64_t seed, bool streams) {
  const std::size_t ell = 52;
  const DgkPublicKey& pk = wide_key().pk;
  ASSERT_GE(pk.n().bit_length(), kElementFanOutMinBits);
  const DgkCompareContext ctx(pk, wide_key().sk, ell);
  DeterministicRng values(seed);
  const std::int64_t half = std::int64_t{1} << (ell - 1);
  const std::int64_t x =
      values.uniform_in(BigInt(-half), BigInt(half - 1)).to_int64();
  const std::int64_t y =
      values.uniform_in(BigInt(-half), BigInt(half - 1)).to_int64();

  DeterministicRng s2_rng(derive_party_seed(seed, 1));
  DeterministicRng s2_ref_rng(derive_party_seed(seed, 1));
  DgkPowerStream s2_bank(pk, derive_party_seed(seed, 3));
  DgkPowerStream s2_ref_bank(pk, derive_party_seed(seed, 3));
  if (streams) {
    s2_bank.generate(ell);
    s2_ref_bank.generate(ell);
  }
  const std::vector<std::uint8_t> bits =
      dgk_compare_s2_bits(ctx, y, s2_rng, streams ? &s2_bank : nullptr)
          .take();
  EXPECT_EQ(bits, serial_s2_bits(pk, static_cast<std::uint64_t>(y + half),
                                 ell, s2_ref_rng,
                                 streams ? &s2_ref_bank : nullptr));
  EXPECT_EQ(s2_rng.next_u64(), s2_ref_rng.next_u64());

  DeterministicRng s1_rng(derive_party_seed(seed, 0));
  DeterministicRng s1_ref_rng(derive_party_seed(seed, 0));
  DgkPowerStream s1_bank(pk, derive_party_seed(seed, 2));
  DgkPowerStream s1_ref_bank(pk, derive_party_seed(seed, 2));
  MessageReader e_bits(bits);
  const std::vector<std::uint8_t> blinded =
      dgk_compare_s1_blind(pk, ell, x, e_bits, s1_rng,
                           streams ? &s1_bank : nullptr)
          .take();
  MessageReader e_bits_again(bits);
  EXPECT_EQ(blinded,
            serial_s1_blind(pk, static_cast<std::uint64_t>(x + half),
                            e_bits_again.read_bigint_vector(), s1_ref_rng,
                            streams ? &s1_ref_bank : nullptr));
  EXPECT_EQ(s1_rng.next_u64(), s1_ref_rng.next_u64());
  EXPECT_EQ(s1_bank.stats().misses, s1_ref_bank.stats().misses);

  MessageReader blinded_in(blinded);
  MessageWriter reply;
  EXPECT_EQ(dgk_compare_s2_decide(ctx, blinded_in, reply), x >= y);
}

TEST(DgkCompareFanOut, FreshRandomnessMatchesBitByBitLoop) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    expect_serial_bytes(seed, false);
  }
}

TEST(DgkCompareFanOut, StreamPowersMatchBitByBitLoop) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    expect_serial_bytes(seed, true);
  }
}

}  // namespace
}  // namespace pcl
