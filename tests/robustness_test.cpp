// Failure injection: malformed wire data, protocol desynchronization and
// out-of-contract inputs must surface as typed exceptions, never as silent
// corruption.
#include <gtest/gtest.h>

#include <string>

#include "crypto/dgk.h"
#include "mpc/blind_permute.h"
#include "mpc/consensus.h"
#include "mpc/consensus_batch.h"
#include "mpc/dgk_compare.h"
#include "mpc/he_util.h"
#include "net/party_runner.h"

namespace pcl {
namespace {

TEST(Robustness, TruncatedCiphertextVectorMessage) {
  DeterministicRng rng(1);
  const PaillierKeyPair key = generate_paillier_key(64, rng);
  MessageWriter w;
  w.write_u64(5);  // claims five ciphertexts
  w.write_bigint(key.pk.encrypt(BigInt(1), rng).value);  // delivers one
  MessageReader r(std::move(w).take());
  EXPECT_THROW((void)read_ciphertext_vector(r, key.pk, 5, "test slot"),
               FramingError);
}

TEST(Robustness, CiphertextVectorCountBeyondMessage) {
  // A count of 2^62 is rejected as framing before anything is allocated,
  // and so is a well-formed vector of a length the geometry does not fix.
  DeterministicRng rng(1);
  const PaillierKeyPair key = generate_paillier_key(64, rng);
  MessageWriter w;
  w.write_u64(std::uint64_t{1} << 62);
  MessageReader r(std::move(w).take());
  EXPECT_THROW((void)read_ciphertext_vector(r, key.pk, 3, "test slot"),
               FramingError);
  const std::vector<std::int64_t> values = {1, 2};
  MessageWriter two;
  write_ciphertext_vector(two, encrypt_vector(key.pk, values, rng));
  MessageReader r2(std::move(two).take());
  EXPECT_THROW((void)read_ciphertext_vector(r2, key.pk, 3, "test slot"),
               FramingError);
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
  // S1's x out of range fails at S1's slot, S2's y at S2's first slot.
  MessageReader e_bits(dgk_compare_s2_bits(ctx, 0, rng).take());
  EXPECT_THROW((void)dgk_compare_s1_blind(key.pk, 10, 512, e_bits, rng),
               std::out_of_range);
  EXPECT_THROW((void)dgk_compare_s2_bits(ctx, -513, rng), std::out_of_range);
}

TEST(Robustness, SecureSumRejectsSubmissionOfWrongWidth) {
  // The public geometry fixes each user's share vector at K ciphertexts:
  // S1 rejects a shorter one as framing where it comes off the wire
  // instead of folding it into the aggregate.
  DeterministicRng rng(9);
  const ServerPaillierKeys keys = generate_server_paillier_keys(64, rng);
  DgkParams dgk_params;
  dgk_params.n_bits = 160;
  dgk_params.v_bits = 30;
  dgk_params.plaintext_bound = 160;
  const DgkKeyPair dgk = generate_dgk_key(dgk_params, rng);
  ConsensusQueryParams params;
  params.num_classes = 3;
  params.num_users = 1;
  params.share_bits = 20;
  params.compare_bits = 30;
  ConsensusS1BatchProgram s1(params, keys.s1, keys.s2.pk, dgk.pk, {1});
  const std::vector<std::int64_t> two = {1, 2};
  const Party parties[] = {
      {"S1", [&](Channel& chan) { (void)s1.run(chan); }},
      {"user:0",
       [&](Channel& chan) {
         MessageWriter w;
         write_ciphertext_vector(w, encrypt_vector(keys.s2.pk, two, rng));
         chan.send("S1", std::move(w));
       }},
  };
  EXPECT_THROW((void)run_parties(parties, PartyRunOptions{}), FramingError);
}

TEST(Robustness, SecureSumRejectsShareCiphertextOutsideRange) {
  // S1 only multiplies the users' shares into its aggregate, so a share of
  // 0 or n² would surface later, at S2's decryption.  S1 rejects it as
  // framing where it comes off the wire.
  DeterministicRng rng(9);
  const ServerPaillierKeys keys = generate_server_paillier_keys(64, rng);
  DgkParams dgk_params;
  dgk_params.n_bits = 160;
  dgk_params.v_bits = 30;
  dgk_params.plaintext_bound = 160;
  const DgkKeyPair dgk = generate_dgk_key(dgk_params, rng);
  ConsensusQueryParams params;
  params.num_classes = 3;
  params.num_users = 1;
  params.share_bits = 20;
  params.compare_bits = 30;
  for (const BigInt& bad : {BigInt(0), keys.s2.pk.n_squared()}) {
    ConsensusS1BatchProgram s1(params, keys.s1, keys.s2.pk, dgk.pk, {1});
    const std::vector<std::int64_t> three = {1, 2, 3};
    const Party parties[] = {
        {"S1", [&](Channel& chan) { (void)s1.run(chan); }},
        {"user:0",
         [&](Channel& chan) {
           std::vector<PaillierCiphertext> shares =
               encrypt_vector(keys.s2.pk, three, rng);
           shares[1].value = bad;
           MessageWriter w;
           write_ciphertext_vector(w, shares);
           chan.send("S1", std::move(w));
         }},
    };
    try {
      (void)run_parties(parties, PartyRunOptions{});
      ADD_FAILURE() << "no FramingError";
    } catch (const FramingError& e) {
      EXPECT_NE(std::string(e.what()).find("secure sum (user:0's shares)"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("ciphertext 1"), std::string::npos)
          << e.what();
    }
  }
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
  BlindPermuteS1 s1(keys.s1, keys.s2.pk, 3, 20, rng);
  BlindPermuteS2 s2(keys.s2, keys.s1.pk, 3, 20, rng);
  // Ciphertexts produced under the wrong keys decrypt to garbage that
  // overflows the int64 plaintext contract (probability ~1) or throws —
  // either way Alg. 2's slots must not silently succeed with wrong values.
  const std::vector<std::int64_t> vals = {1, 2, 3};
  const auto wrong_a = encrypt_vector(other.s2.pk, vals, rng);
  const auto wrong_b = encrypt_vector(other.s1.pk, vals, rng);
  const auto mode = BlindPermuteMaskMode::kOppositeSign;
  const auto deliver = [](MessageWriter m) {
    return MessageReader(std::move(m).take());
  };
  const auto alg2 = [&] {
    std::vector<std::int64_t> s1_seq;
    MessageReader masked = deliver(s1.round_open(wrong_a, mode));
    MessageReader permuted = deliver(s2.round_permute(masked, wrong_b));
    MessageReader enc_mask = deliver(s1.round_permute(permuted, s1_seq));
    MessageReader blinded = deliver(s2.round_blind(enc_mask, wrong_b, mode));
    MessageReader sealed = deliver(s1.round_close(blinded));
    (void)s2.round_output(sealed);
  };
  EXPECT_ANY_THROW(alg2());
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
