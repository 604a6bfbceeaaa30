// Blind-and-Permute (Alg. 2) and Restoration (Alg. 3) tests.
#include "mpc/blind_permute.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "mpc/he_util.h"

namespace pcl {
namespace {

MessageReader deliver(MessageWriter message) {
  return MessageReader(std::move(message).take());
}

/// Both servers' roles, run through the message slots in protocol order as
/// the lane programs run them, each message handed straight to the peer.
struct ServerPair {
  ServerPair(const ServerPaillierKeys& keys, std::size_t k,
             std::size_t mask_bits, Rng& s1_rng, Rng& s2_rng)
      : s1(keys.s1, keys.s2.pk, k, mask_bits, s1_rng),
        s2(keys.s2, keys.s1.pk, k, mask_bits, s2_rng) {}

  struct Output {
    std::vector<std::int64_t> s1_seq;  ///< pi(a + r), known to S1 only
    std::vector<std::int64_t> s2_seq;  ///< pi(b ± r), known to S2 only
  };

  /// Alg. 2's six slots on one sequence pair.
  Output run(const std::vector<PaillierCiphertext>& s1_holds,
             const std::vector<PaillierCiphertext>& s2_holds,
             BlindPermuteMaskMode mode) {
    Output out;
    MessageReader masked = deliver(s1.round_open(s1_holds, mode));
    MessageReader permuted = deliver(s2.round_permute(masked, s2_holds));
    MessageReader enc_mask = deliver(s1.round_permute(permuted, out.s1_seq));
    MessageReader blinded = deliver(s2.round_blind(enc_mask, s2_holds, mode));
    MessageReader sealed = deliver(s1.round_close(blinded));
    out.s2_seq = s2.round_output(sealed);
    return out;
  }

  /// Alg. 3's slots 1-6: S1's slot-6 reply, the one-hot masked with r2.
  MessageReader restore_to_slot6(std::size_t permuted_index) {
    MessageReader onehot = deliver(s2.restore_open(permuted_index));
    MessageReader masked = deliver(s1.restore_mask(onehot));
    MessageReader revealed = deliver(s2.restore_reveal(masked));
    MessageReader stripped = deliver(s1.restore_strip(revealed));
    MessageReader remasked = deliver(s2.restore_unpermute(stripped));
    return deliver(s1.restore_decrypt(remasked));
  }

  /// Alg. 3's eight slots: both servers must learn the same index.
  std::size_t restore(std::size_t permuted_index) {
    MessageReader decrypted = restore_to_slot6(permuted_index);
    std::size_t s2_index = 0;
    MessageReader index = deliver(s2.restore_finish(decrypted, s2_index));
    const std::size_t s1_index = s1.restore_index(index);
    EXPECT_EQ(s1_index, s2_index);
    return s1_index;
  }

  /// Test oracle: the composed permutation, which neither server knows.
  [[nodiscard]] Permutation composed() const {
    return s1.pi().compose_after(s2.pi());
  }

  BlindPermuteS1 s1;
  BlindPermuteS2 s2;
};

class BlindPermuteTest : public ::testing::Test {
 protected:
  BlindPermuteTest() : rng_(424242) {
    keys_ = generate_server_paillier_keys(64, rng_);
  }

  /// Encrypts the complementary share vectors as the servers would hold
  /// them after secure sum: S1 holds E_pk2[a], S2 holds E_pk1[b].
  std::pair<std::vector<PaillierCiphertext>, std::vector<PaillierCiphertext>>
  encrypt_pair(const std::vector<std::int64_t>& a,
               const std::vector<std::int64_t>& b) {
    return {encrypt_vector(keys_.s2.pk, a, rng_),
            encrypt_vector(keys_.s1.pk, b, rng_)};
  }

  /// Runs Restoration (k = 4) to S1's slot-6 reply, lets `edit` change its
  /// values, and hands the result to S2's restore_finish.  `edit` gets the
  /// position of the masked 1, which the composed permutation gives away.
  template <typename Edit>
  void restore_finish_after(Edit edit) {
    const auto [ea, eb] = encrypt_pair({1, 2, 3, 4}, {5, 6, 7, 8});
    ServerPair servers(keys_, 4, 30, rng_, rng_);
    (void)servers.run(ea, eb, BlindPermuteMaskMode::kOppositeSign);
    MessageReader honest = servers.restore_to_slot6(1);
    std::vector<std::int64_t> values = honest.read_i64_vector();
    edit(values, servers.composed()[1]);
    MessageWriter reply;
    reply.write_i64_vector(values);
    MessageReader msg = deliver(std::move(reply));
    std::size_t index = 0;
    (void)servers.s2.restore_finish(msg, index);
  }

  DeterministicRng rng_;
  ServerPaillierKeys keys_;
};

TEST_F(BlindPermuteTest, OppositeSignMasksCancelInReconstruction) {
  const std::vector<std::int64_t> a = {100, -200, 300, 4, -5};
  const std::vector<std::int64_t> b = {7, 70, -700, 7000, 70000};
  const auto [ea, eb] = encrypt_pair(a, b);

  ServerPair servers(keys_, a.size(), 30, rng_, rng_);
  const auto out = servers.run(ea, eb, BlindPermuteMaskMode::kOppositeSign);

  // (a+r)_i + (b-r)_i == c_i: the permuted reconstruction must be a
  // permutation of the original sums.
  std::vector<std::int64_t> reconstructed(a.size());
  std::vector<std::int64_t> expected(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    reconstructed[i] = out.s1_seq[i] + out.s2_seq[i];
    expected[i] = a[i] + b[i];
  }
  const Permutation pi = servers.composed();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(reconstructed[i], expected[pi[i]]);
  }
}

TEST_F(BlindPermuteTest, SameSignMasksCancelInCrossServerDifference) {
  const std::vector<std::int64_t> x = {11, 22, 33, 44};
  const std::vector<std::int64_t> y = {5, -6, 7, -8};
  const auto [ex, ey] = encrypt_pair(x, y);

  ServerPair servers(keys_, x.size(), 30, rng_, rng_);
  const auto out = servers.run(ex, ey, BlindPermuteMaskMode::kSameSign);
  // (x+r)_i - (y+r)_i == x_i - y_i at every permuted position.
  const Permutation pi = servers.composed();
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(out.s1_seq[i] - out.s2_seq[i], x[pi[i]] - y[pi[i]]);
  }
}

TEST_F(BlindPermuteTest, SequencePairsShareOnePermutation) {
  // The votes sequence and the threshold sequence must be aligned: run the
  // same session on two pairs and verify the permutation is identical.
  const std::vector<std::int64_t> a1 = {1, 2, 3, 4, 5, 6};
  const std::vector<std::int64_t> b1 = {10, 20, 30, 40, 50, 60};
  const std::vector<std::int64_t> a2 = {-1, -2, -3, -4, -5, -6};
  const std::vector<std::int64_t> b2 = {0, 0, 0, 0, 0, 0};
  const auto [ea1, eb1] = encrypt_pair(a1, b1);
  const auto [ea2, eb2] = encrypt_pair(a2, b2);

  ServerPair servers(keys_, 6, 30, rng_, rng_);
  const auto out1 = servers.run(ea1, eb1, BlindPermuteMaskMode::kOppositeSign);
  const auto out2 = servers.run(ea2, eb2, BlindPermuteMaskMode::kOppositeSign);
  const Permutation pi = servers.composed();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out1.s1_seq[i] + out1.s2_seq[i], a1[pi[i]] + b1[pi[i]]);
    EXPECT_EQ(out2.s1_seq[i] + out2.s2_seq[i], a2[pi[i]] + b2[pi[i]]);
  }
}

TEST_F(BlindPermuteTest, MasksActuallyDistortIndividualSequences) {
  // Neither server's output alone should equal the permuted input: the
  // additive masks must be present (hiding), only the combination cancels.
  const std::vector<std::int64_t> a = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::vector<std::int64_t> b = {0, 0, 0, 0, 0, 0, 0, 0};
  const auto [ea, eb] = encrypt_pair(a, b);
  ServerPair servers(keys_, 8, 30, rng_, rng_);
  const auto out = servers.run(ea, eb, BlindPermuteMaskMode::kOppositeSign);
  // With all-zero inputs the outputs are +r and -r: non-zero with
  // overwhelming probability, and exact negations of each other.
  bool any_nonzero = false;
  for (std::size_t i = 0; i < 8; ++i) {
    any_nonzero = any_nonzero || out.s1_seq[i] != 0;
    EXPECT_EQ(out.s1_seq[i], -out.s2_seq[i]);
  }
  EXPECT_TRUE(any_nonzero);
}

TEST_F(BlindPermuteTest, RestorationRecoversOriginalIndex) {
  const std::size_t k = 10;
  std::vector<std::int64_t> a(k), b(k);
  for (std::size_t i = 0; i < k; ++i) {
    a[i] = static_cast<std::int64_t>(i) * 100;
    b[i] = static_cast<std::int64_t>(i);
  }
  const auto [ea, eb] = encrypt_pair(a, b);
  ServerPair servers(keys_, k, 30, rng_, rng_);
  (void)servers.run(ea, eb, BlindPermuteMaskMode::kOppositeSign);
  const Permutation pi = servers.composed();
  for (std::size_t pos = 0; pos < k; ++pos) {
    EXPECT_EQ(servers.restore(pos), pi[pos]);
  }
}

TEST_F(BlindPermuteTest, RestoreValidatesIndex) {
  ServerPair servers(keys_, 4, 30, rng_, rng_);
  EXPECT_THROW((void)servers.restore(4), std::invalid_argument);
}

TEST_F(BlindPermuteTest, RestoreIndexRejectsIndexAtK) {
  // Slot 7 releases S2's index as the label: S1 accepts only [0, k).
  BlindPermuteS1 s1(keys_.s1, keys_.s2.pk, 4, 30, rng_);
  MessageWriter at_k;
  at_k.write_u64(4);
  MessageReader bad = deliver(std::move(at_k));
  EXPECT_THROW((void)s1.restore_index(bad), FramingError);
  MessageWriter last;
  last.write_u64(3);
  MessageReader good = deliver(std::move(last));
  EXPECT_EQ(s1.restore_index(good), 3u);
}

TEST_F(BlindPermuteTest, RestoreFinishAcceptsTheHonestReply) {
  EXPECT_NO_THROW(restore_finish_after([](std::vector<std::int64_t>&,
                                          std::size_t) {}));
}

TEST_F(BlindPermuteTest, RestoreFinishRejectsAnAllZeroReply) {
  EXPECT_THROW(restore_finish_after([](std::vector<std::int64_t>& v,
                                       std::size_t one) { v[one] -= 1; }),
               FramingError);
}

TEST_F(BlindPermuteTest, RestoreFinishRejectsAReplyWithTwoOnes) {
  EXPECT_THROW(restore_finish_after([](std::vector<std::int64_t>& v,
                                       std::size_t one) {
                 v[(one + 1) % v.size()] += 1;
               }),
               FramingError);
}

TEST_F(BlindPermuteTest, RestoreFinishRejectsAReplyHoldingATwo) {
  EXPECT_THROW(restore_finish_after([](std::vector<std::int64_t>& v,
                                       std::size_t one) { v[one] += 1; }),
               FramingError);
}

TEST_F(BlindPermuteTest, PeerSequenceOfWrongLengthIsFramingError) {
  // k = 4 fixes every slot's length; S2 must not decrypt and return a
  // shorter sequence, nor S1 index past a short one.
  ServerPair servers(keys_, 4, 30, rng_, rng_);
  const std::vector<std::int64_t> three = {1, 2, 3};
  MessageWriter short_cts;
  write_ciphertext_vector(short_cts, encrypt_vector(keys_.s2.pk, three, rng_));
  const std::vector<std::uint8_t> bytes = std::move(short_cts).take();
  MessageReader sealed(bytes);
  EXPECT_THROW((void)servers.s2.round_output(sealed), FramingError);
  MessageReader masked(bytes);
  EXPECT_THROW((void)servers.s2.restore_reveal(masked), FramingError);
  MessageWriter short_values;
  short_values.write_i64_vector(three);
  MessageReader revealed = deliver(std::move(short_values));
  EXPECT_THROW((void)servers.s1.restore_strip(revealed), FramingError);
}

TEST_F(BlindPermuteTest, LengthMismatchRejected) {
  const auto [ea, eb] = encrypt_pair({1, 2, 3}, {4, 5, 6});
  ServerPair servers(keys_, 4, 30, rng_, rng_);
  EXPECT_THROW((void)servers.run(ea, eb, BlindPermuteMaskMode::kSameSign),
               std::invalid_argument);
  EXPECT_THROW(ServerPair(keys_, 0, 30, rng_, rng_), std::invalid_argument);
}

// A Paillier ciphertext outside [1, n²) is rejected where it comes off the
// wire, also in the slots a server only folds homomorphically and never
// decrypts: S2's slot 3 (S1's encrypted r1) and S1's Restoration slot 1
// (S2's one-hot).  0 and n² are the two edges.

/// Four ciphertexts under `pk`, element `bad` replaced by `value`.
MessageReader ciphertexts_with(const PaillierPublicKey& pk, std::size_t bad,
                               const BigInt& value, Rng& rng) {
  std::vector<PaillierCiphertext> cts =
      encrypt_vector(pk, std::vector<std::int64_t>{1, 2, 3, 4}, rng);
  cts[bad].value = value;
  MessageWriter w;
  write_ciphertext_vector(w, cts);
  return deliver(std::move(w));
}

template <typename Op>
void expect_range_error(Op op, const std::string& slot, std::size_t index) {
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

TEST_F(BlindPermuteTest, S2RejectsEncryptedMaskOutsideRange) {
  const auto [ea, eb] = encrypt_pair({1, 2, 3, 4}, {5, 6, 7, 8});
  for (const BigInt& bad : {BigInt(0), keys_.s1.pk.n_squared()}) {
    ServerPair servers(keys_, 4, 30, rng_, rng_);
    const BlindPermuteMaskMode mode = BlindPermuteMaskMode::kOppositeSign;
    MessageReader masked = deliver(servers.s1.round_open(ea, mode));
    MessageReader permuted = deliver(servers.s2.round_permute(masked, eb));
    std::vector<std::int64_t> s1_seq;
    (void)servers.s1.round_permute(permuted, s1_seq);
    MessageReader enc_mask = ciphertexts_with(keys_.s1.pk, 2, bad, rng_);
    expect_range_error(
        [&] { (void)servers.s2.round_blind(enc_mask, eb, mode); },
        "Blind-and-Permute slot 3", 2);
  }
}

TEST_F(BlindPermuteTest, S1RejectsRestorationOneHotOutsideRange) {
  for (const BigInt& bad : {BigInt(0), keys_.s2.pk.n_squared()}) {
    ServerPair servers(keys_, 4, 30, rng_, rng_);
    MessageReader onehot = ciphertexts_with(keys_.s2.pk, 3, bad, rng_);
    expect_range_error([&] { (void)servers.s1.restore_mask(onehot); },
                       "Restoration slot 1", 3);
  }
}

TEST_F(BlindPermuteTest, PermutationIsNontrivialAcrossSessions) {
  // Statistical: across many sessions of size 6, the composed permutation
  // should not always be the identity.
  int identity_count = 0;
  for (int trial = 0; trial < 20; ++trial) {
    ServerPair servers(keys_, 6, 30, rng_, rng_);
    const Permutation pi = servers.composed();
    bool is_identity = true;
    for (std::size_t i = 0; i < 6; ++i) is_identity &= pi[i] == i;
    identity_count += is_identity ? 1 : 0;
  }
  EXPECT_LT(identity_count, 3);
}

}  // namespace
}  // namespace pcl
