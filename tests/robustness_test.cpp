// Failure injection: malformed wire data, protocol desynchronization and
// out-of-contract inputs must surface as typed exceptions, never as silent
// corruption.
#include <gtest/gtest.h>

#include "crypto/dgk.h"
#include "mpc/blind_permute.h"
#include "mpc/consensus.h"
#include "mpc/dgk_compare.h"
#include "mpc/he_util.h"
#include "mpc/secure_sum.h"

namespace pcl {
namespace {

TEST(Robustness, TruncatedCiphertextVectorMessage) {
  DeterministicRng rng(1);
  const PaillierKeyPair key = generate_paillier_key(64, rng);
  MessageWriter w;
  w.write_u64(5);  // claims five ciphertexts
  w.write_bigint(key.pk.encrypt(BigInt(1), rng).value);  // delivers one
  MessageReader r(std::move(w).take());
  EXPECT_THROW((void)read_ciphertext_vector(r), FramingError);
}

TEST(Robustness, GarbageBytesAsMessage) {
  MessageReader r(std::vector<std::uint8_t>{0xde, 0xad});
  EXPECT_THROW((void)r.read_u64(), FramingError);
  EXPECT_THROW((void)r.read_bigint(), FramingError);
  EXPECT_THROW((void)r.read_bigint_vector(), FramingError);
}

TEST(Robustness, NetworkDesyncDetected) {
  // Receiving from the wrong peer or before a send must throw, not block
  // or return stale data.
  Network net;
  MessageWriter w;
  w.write_u8(1);
  net.send("S1", "S2", std::move(w));
  EXPECT_THROW((void)net.recv("S2", "user:0"), std::logic_error);
  EXPECT_THROW((void)net.recv("S1", "S2"), std::logic_error);
  (void)net.recv("S2", "S1");  // correct link drains fine
  EXPECT_THROW((void)net.recv("S2", "S1"), std::logic_error);
}

TEST(Robustness, TamperedPaillierCiphertextFailsDecryption) {
  DeterministicRng rng(2);
  const PaillierKeyPair key = generate_paillier_key(64, rng);
  PaillierCiphertext c = key.pk.encrypt(BigInt(42), rng);
  // Out-of-range tampering is rejected outright.
  c.value = key.pk.n_squared() + BigInt(5);
  EXPECT_THROW((void)key.sk.decrypt(c), std::invalid_argument);
}

TEST(Robustness, TamperedDgkCiphertextYieldsInvalidPlaintext) {
  DeterministicRng rng(3);
  DgkParams params;
  params.n_bits = 160;
  params.v_bits = 30;
  params.plaintext_bound = 64;
  const DgkKeyPair key = generate_dgk_key(params, rng);
  // A random group element is (w.h.p.) not a valid encryption: the
  // decryption table lookup fails loudly.
  DgkCiphertext bogus{rng.uniform_in(BigInt(2), key.pk.n() - BigInt(1))};
  EXPECT_THROW((void)key.sk.decrypt(bogus), std::invalid_argument);
}

TEST(Robustness, CompareBitWidthContractEnforced) {
  DeterministicRng rng(4);
  DgkParams params;
  params.n_bits = 160;
  params.v_bits = 30;
  params.plaintext_bound = 200;
  const DgkKeyPair key = generate_dgk_key(params, rng);
  const DgkCompareContext ctx(key.pk, key.sk, 10);
  Network net;
  EXPECT_THROW((void)dgk_compare_geq(net, ctx, 512, 0, 1), std::out_of_range);
  // A failed comparison must not leave stale traffic that would desync the
  // next protocol round.
  EXPECT_THROW((void)dgk_compare_geq(net, ctx, 0, -513, 2), std::out_of_range);
  EXPECT_EQ(net.pending_total(), 0u);
}

TEST(Robustness, SecureSumRejectsForeignCiphertextSizes) {
  DeterministicRng rng(5);
  ServerPaillierKeys keys = generate_server_paillier_keys(64, rng);
  Network net;
  // Ragged user submissions are rejected before any aggregation happens.
  EXPECT_THROW(
      (void)secure_sum(net, keys, {{1, 2}, {3}}, {{1, 2}, {3, 4}}, 1),
      std::invalid_argument);
}

TEST(Robustness, ConsensusRejectsVotesOutOfRangeMidBatch) {
  DeterministicRng rng(6);
  ConsensusConfig config;
  config.num_classes = 3;
  config.num_users = 3;
  config.share_bits = 30;
  config.compare_bits = 44;
  config.dgk_params.n_bits = 160;
  config.dgk_params.v_bits = 30;
  config.dgk_params.plaintext_bound = 160;
  ConsensusProtocol protocol(config, rng);
  std::vector<std::vector<double>> votes = {
      {1, 0, 0}, {0, 1, 0}, {0, 0, -0.5}};
  EXPECT_THROW((void)protocol.run_query(votes, rng), std::invalid_argument);
  votes[2][2] = 2.0;
  EXPECT_THROW((void)protocol.run_query(votes, rng), std::invalid_argument);
  // The protocol object stays usable after rejected input.
  votes[2][2] = 1.0;
  EXPECT_NO_THROW((void)protocol.run_query(votes, rng));
}

TEST(Robustness, BlindPermuteRejectsMismatchedKeyMaterial) {
  DeterministicRng rng(7);
  // 128-bit keys: garbage decryptions overflow the int64 plaintext
  // contract with overwhelming probability, so the mismatch is caught.
  ServerPaillierKeys keys = generate_server_paillier_keys(128, rng);
  ServerPaillierKeys other = generate_server_paillier_keys(128, rng);
  Network net;
  BlindPermuteSession session(net, keys, 3, 20, rng, rng);
  // Ciphertexts produced under the wrong keys decrypt to garbage that
  // overflows the int64 plaintext contract (probability ~1) or throws —
  // either way the session must not silently succeed with wrong values.
  const std::vector<std::int64_t> vals = {1, 2, 3};
  const auto wrong_a = encrypt_vector(other.s2.pk, vals, rng);
  const auto wrong_b = encrypt_vector(other.s1.pk, vals, rng);
  EXPECT_ANY_THROW((void)session.run(
      wrong_a, wrong_b, BlindPermuteSession::MaskMode::kOppositeSign));
}

TEST(Robustness, SegmentedTransportMatchesDirectBigint) {
  // Sanity that framing errors cannot be confused with value corruption:
  // a valid round trip is bit-exact.
  DeterministicRng rng(8);
  const PaillierKeyPair key = generate_paillier_key(64, rng);
  const PaillierCiphertext c = key.pk.encrypt(BigInt(-777), rng);
  MessageWriter w;
  w.write_bigint(c.value);
  MessageReader r(std::move(w).take());
  EXPECT_EQ(r.read_bigint(), c.value);
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace pcl
