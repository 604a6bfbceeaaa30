#include "mpc/blind_permute.h"

#include <stdexcept>
#include <string>

#include "core/secrecy.h"
#include "mpc/he_util.h"
#include "obs/trace.h"

namespace pcl {

namespace {

std::vector<std::int64_t> random_mask_vector(std::size_t k,
                                             std::size_t mask_bits,
                                             Rng& rng) {
  const std::int64_t bound = std::int64_t{1} << mask_bits;
  std::vector<std::int64_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(rng.uniform_in(BigInt(-bound), BigInt(bound)).to_int64());
  }
  return out;
}

std::vector<std::int64_t> negated(std::vector<std::int64_t> v) {
  for (std::int64_t& x : v) x = -x;
  return v;
}

std::size_t validated_length(std::size_t k) {
  if (k == 0) throw std::invalid_argument("BlindPermute: empty sequence");
  return k;
}

/// Holds are k per-label ciphertexts unpacked, layout.num_cts packed.
void validate_holds(std::size_t holds, std::size_t k,
                    const PackingLayout* packing) {
  const std::size_t want = packing != nullptr ? packing->num_cts : k;
  if (holds != want) {
    throw std::invalid_argument("BlindPermute: sequence length mismatch");
  }
}

/// A peer's plaintext vector of the k values the geometry fixes, or
/// FramingError.
std::vector<std::int64_t> read_values(MessageReader& msg, std::size_t k) {
  std::vector<std::int64_t> values = msg.read_i64_vector();
  if (values.size() != k) {
    throw FramingError("BlindPermute: expected " + std::to_string(k) +
                       " values, got " + std::to_string(values.size()));
  }
  return values;
}

}  // namespace

ServerPaillierKeys generate_server_paillier_keys(std::size_t key_bits,
                                                 Rng& rng) {
  ServerPaillierKeys keys;
  keys.s1 = generate_paillier_key(key_bits, rng);
  keys.s2 = generate_paillier_key(key_bits, rng);
  return keys;
}

BlindPermuteS1::BlindPermuteS1(const PaillierKeyPair& own,
                               const PaillierPublicKey& peer_pk, std::size_t k,
                               std::size_t mask_bits, Rng& rng,
                               const PackingLayout* packing,
                               std::size_t packed_addends,
                               const PartyPrecompute* pre)
    : own_(own),
      peer_pk_(peer_pk),
      k_(validated_length(k)),
      mask_bits_(mask_bits),
      rng_(rng),
      packing_(packing),
      packed_addends_(packed_addends),
      own_stream_(pre != nullptr ? pre->powers_pk1 : nullptr),
      peer_stream_(pre != nullptr ? pre->powers_pk2 : nullptr),
      pi_(Permutation::random(k, rng)) {
  if (packing != nullptr &&
      (packing->num_values != k || packed_addends == 0 ||
       packed_addends > packing->max_addends)) {
    throw std::invalid_argument("BlindPermute: packing layout mismatch");
  }
}

MessageWriter BlindPermuteS1::round_open(
    const std::vector<PaillierCiphertext>& holds, BlindPermuteMaskMode mode) {
  validate_holds(holds.size(), k_, packing_);
  obs::count(obs::Op::kBlindPermuteRound);
  // Masks are drawn fresh per round; the permutation persists for the
  // session.
  mode_ = mode;
  round_r1_ = random_mask_vector(k_, mask_bits_, rng_);

  // -- Step 1: E_pk2[a + r1]. ------------------------------------------------
  MessageWriter msg;
  if (packing_ != nullptr) {
    // Packed: r1 rides as a plaintext composition — num_cts ciphertexts on
    // the wire and one modmul each, no fresh randomness.
    write_ciphertext_vector(
        msg, add_packed_delta(peer_pk_, *packing_, holds, round_r1_));
  } else {
    write_ciphertext_vector(
        msg, add_plain_vector(peer_pk_, holds, round_r1_, rng_, peer_stream_));
  }
  return msg;
}

MessageWriter BlindPermuteS1::round_permute(MessageReader& msg,
                                            std::vector<std::int64_t>& out_seq) {
  // -- Step 3: permute with pi1 -> pi(a + r); reply E_pk1[±r1]. --------------
  out_seq = pi_.apply(read_values(msg, k_));
  const std::vector<std::int64_t> signed_r1 =
      mode_ == BlindPermuteMaskMode::kOppositeSign ? negated(round_r1_)
                                                   : round_r1_;
  MessageWriter mask_msg;
  if (packing_ != nullptr) {
    // Packed: S2 piggybacked its own aggregate E_pk1[b + u2] (packed) on
    // the slot-2 reply.  Decrypt it with our own key and return the k
    // per-label ciphertexts E_pk1[b + u2 ± r1] the unpacked slot would
    // carry — from here on the two modes share a wire format.  u2 is S2's
    // fresh mask, so the plaintexts are blinded shares to us.
    const std::vector<PaillierCiphertext> piggyback = read_ciphertext_vector(
        msg, own_.pk, packing_->num_cts,
        "Blind-and-Permute slot 2 (S2's packed aggregate)");
    std::vector<std::int64_t> masked_b =
        decrypt_packed_vector(own_.sk, *packing_, piggyback, packed_addends_);
    for (std::size_t i = 0; i < k_; ++i) masked_b[i] += signed_r1[i];
    write_ciphertext_vector(
        mask_msg, encrypt_vector(own_.pk, masked_b, rng_, own_stream_));
  } else {
    write_ciphertext_vector(
        mask_msg, encrypt_vector(own_.pk, signed_r1, rng_, own_stream_));
  }
  return mask_msg;
}

MessageWriter BlindPermuteS1::round_close(MessageReader& msg) {
  // -- Step 5: decrypt, re-encrypt under pk2, strip r3, permute. -------------
  const std::vector<std::int64_t> blinded = decrypt_vector(
      own_.sk, read_ciphertext_vector(
                   msg, own_.pk, k_,
                   "Blind-and-Permute slot 4 (S2's blinded sequence)"));
  const std::vector<PaillierCiphertext> enc_neg_r3 = read_ciphertext_vector(
      msg, peer_pk_, k_, "Blind-and-Permute slot 4 (S2's encrypted -r3)");
  std::vector<PaillierCiphertext> reenc =
      encrypt_vector(peer_pk_, blinded, rng_, peer_stream_);
  reenc = add_vectors(peer_pk_, reenc, enc_neg_r3);
  reenc = pi_.apply(reenc);
  MessageWriter reply;
  write_ciphertext_vector(reply, reenc);
  return reply;
}

MessageWriter BlindPermuteS1::restore_mask(MessageReader& msg) {
  obs::count(obs::Op::kRestorationReveal);
  // -- Step 2: undo pi1, add mask r1. ----------------------------------------
  std::vector<PaillierCiphertext> seq = read_ciphertext_vector(
      msg, peer_pk_, k_, "Restoration slot 1 (S2's one-hot)");
  seq = pi_.apply_inverse(seq);
  restore_r1_ = random_mask_vector(k_, mask_bits_, rng_);
  seq = add_plain_vector(peer_pk_, seq, restore_r1_, rng_, peer_stream_);
  MessageWriter reply;
  write_ciphertext_vector(reply, seq);
  return reply;
}

MessageWriter BlindPermuteS1::restore_strip(MessageReader& msg) {
  // -- Step 4: strip r1, re-encrypt under pk1. -------------------------------
  std::vector<std::int64_t> seq = read_values(msg, k_);
  for (std::size_t i = 0; i < k_; ++i) seq[i] -= restore_r1_[i];
  MessageWriter reply;
  write_ciphertext_vector(reply,
                          encrypt_vector(own_.pk, seq, rng_, own_stream_));
  return reply;
}

MessageWriter BlindPermuteS1::restore_decrypt(MessageReader& msg) {
  // -- Step 6: decrypt and return the masked one-hot. ------------------------
  const std::vector<std::int64_t> masked = decrypt_vector(
      own_.sk, read_ciphertext_vector(msg, own_.pk, k_,
                                      "Restoration slot 5 (S2's masked "
                                      "one-hot)"));
  MessageWriter reply;
  // pc_declassify: each entry is one-hot bit + r2, with r2 a fresh uniform
  // mask drawn by S2 and unknown to S1's peer; the sum reveals nothing about
  // the underlying index.
  reply.write_i64_vector(pc_declassify(masked));
  return reply;
}

std::size_t BlindPermuteS1::restore_index(MessageReader& msg) {
  // -- Step 7 (S2 side) reveals the original index. --------------------------
  const std::uint64_t index = msg.read_u64();
  if (index >= k_) {
    throw FramingError("restore: revealed index out of range");
  }
  return index;
}

BlindPermuteS2::BlindPermuteS2(const PaillierKeyPair& own,
                               const PaillierPublicKey& peer_pk, std::size_t k,
                               std::size_t mask_bits, Rng& rng,
                               const PackingLayout* packing,
                               std::size_t packed_addends,
                               const PartyPrecompute* pre)
    : own_(own),
      peer_pk_(peer_pk),
      k_(validated_length(k)),
      mask_bits_(mask_bits),
      rng_(rng),
      packing_(packing),
      packed_addends_(packed_addends),
      own_stream_(pre != nullptr ? pre->powers_pk2 : nullptr),
      peer_stream_(pre != nullptr ? pre->powers_pk1 : nullptr),
      pi_(Permutation::random(k, rng)) {
  if (packing != nullptr &&
      (packing->num_values != k || packed_addends == 0 ||
       packed_addends > packing->max_addends)) {
    throw std::invalid_argument("BlindPermute: packing layout mismatch");
  }
}

MessageWriter BlindPermuteS2::round_permute(
    MessageReader& msg, const std::vector<PaillierCiphertext>& holds) {
  // -- Step 2: decrypt, add r2, permute with pi2, return plaintext. ----------
  constexpr const char* kSlot1 =
      "Blind-and-Permute slot 1 (S1's masked aggregate)";
  std::vector<std::int64_t> seq;
  if (packing_ != nullptr) {
    seq = decrypt_packed_vector(
        own_.sk, *packing_,
        read_ciphertext_vector(msg, own_.pk, packing_->num_cts, kSlot1),
        packed_addends_);
  } else {
    seq = decrypt_vector(own_.sk,
                         read_ciphertext_vector(msg, own_.pk, k_, kSlot1));
  }
  round_r2_ = random_mask_vector(k_, mask_bits_, rng_);
  for (std::size_t i = 0; i < k_; ++i) seq[i] += round_r2_[i];
  const std::vector<std::int64_t> permuted = pi_.apply(seq);
  MessageWriter reply;
  // pc_declassify: every entry carries S2's fresh additive mask r2 and the
  // sequence is re-permuted by pi2, so S1 sees uniformly blinded values in
  // an order it cannot invert.
  reply.write_i64_vector(pc_declassify(permuted));
  if (packing_ != nullptr) {
    // Packed: piggyback this round's own aggregate, masked with a fresh u2,
    // so S1's slot 3 can convert it to per-label ciphertexts (S1 only ever
    // sees b + u2).  One plaintext composition per packed ciphertext.
    validate_holds(holds.size(), k_, packing_);
    round_u2_ = random_mask_vector(k_, mask_bits_, rng_);
    write_ciphertext_vector(
        reply, add_packed_delta(peer_pk_, *packing_, holds, round_u2_));
  }
  return reply;
}

MessageWriter BlindPermuteS2::round_blind(
    MessageReader& msg, const std::vector<PaillierCiphertext>& holds,
    BlindPermuteMaskMode mode) {
  // -- Step 4: E_pk1[b ± r1 ± r2], permute by pi2, blind with r3. ------------
  const std::vector<PaillierCiphertext> enc_r1 = read_ciphertext_vector(
      msg, peer_pk_, k_, "Blind-and-Permute slot 3 (S1's encrypted r1)");
  std::vector<PaillierCiphertext> seq;
  const std::vector<std::int64_t> signed_r2 =
      mode == BlindPermuteMaskMode::kOppositeSign ? negated(round_r2_)
                                                  : round_r2_;
  if (packing_ != nullptr) {
    // Packed: enc_r1 is already E_pk1[b + u2 ± r1]; strip u2 while the
    // ±r2 mask goes on.
    std::vector<std::int64_t> delta(k_);
    for (std::size_t i = 0; i < k_; ++i) delta[i] = signed_r2[i] - round_u2_[i];
    seq = add_plain_vector(peer_pk_, enc_r1, delta, rng_, peer_stream_);
  } else {
    validate_holds(holds.size(), k_, packing_);
    seq = add_vectors(peer_pk_, holds, enc_r1);
    seq = add_plain_vector(peer_pk_, seq, signed_r2, rng_, peer_stream_);
  }
  seq = pi_.apply(seq);
  const std::vector<std::int64_t> r3 =
      random_mask_vector(k_, mask_bits_, rng_);
  seq = add_plain_vector(peer_pk_, seq, r3, rng_, peer_stream_);
  MessageWriter reply;
  write_ciphertext_vector(reply, seq);
  write_ciphertext_vector(
      reply, encrypt_vector(own_.pk, negated(r3), rng_, own_stream_));
  return reply;
}

std::vector<std::int64_t> BlindPermuteS2::round_output(MessageReader& msg) {
  // -- Step 6: decrypt -> pi(b ± r). -----------------------------------------
  return decrypt_vector(
      own_.sk, read_ciphertext_vector(
                   msg, own_.pk, k_,
                   "Blind-and-Permute slot 5 (S1's re-encrypted sequence)"));
}

MessageWriter BlindPermuteS2::restore_open(std::size_t permuted_index) {
  if (permuted_index >= k_) {
    throw std::invalid_argument("restore: index out of range");
  }
  // -- Step 1: one-hot in permuted coordinates, encrypted under pk2. ---------
  std::vector<std::int64_t> onehot(k_, 0);
  onehot[permuted_index] = 1;
  MessageWriter msg;
  write_ciphertext_vector(
      msg, encrypt_vector(own_.pk, onehot, rng_, own_stream_));
  return msg;
}

MessageWriter BlindPermuteS2::restore_reveal(MessageReader& msg) {
  // -- Step 3: decrypt the masked vector, return it in plaintext. ------------
  const std::vector<std::int64_t> masked = decrypt_vector(
      own_.sk, read_ciphertext_vector(msg, own_.pk, k_,
                                      "Restoration slot 2 (S1's masked "
                                      "one-hot)"));
  MessageWriter reply;
  // pc_declassify: the vector was masked with S1's fresh uniform r1 before
  // it reached S2's key, so the plaintexts S2 returns are blinded shares.
  reply.write_i64_vector(pc_declassify(masked));
  return reply;
}

MessageWriter BlindPermuteS2::restore_unpermute(MessageReader& msg) {
  // -- Step 5: undo pi2, add mask r2. ----------------------------------------
  std::vector<PaillierCiphertext> seq = read_ciphertext_vector(
      msg, peer_pk_, k_, "Restoration slot 4 (S1's re-encrypted one-hot)");
  seq = pi_.apply_inverse(seq);
  restore_r2_ = random_mask_vector(k_, mask_bits_, rng_);
  seq = add_plain_vector(peer_pk_, seq, restore_r2_, rng_, peer_stream_);
  MessageWriter reply;
  write_ciphertext_vector(reply, seq);
  return reply;
}

MessageWriter BlindPermuteS2::restore_finish(MessageReader& msg,
                                             std::size_t& index) {
  // -- Step 7: strip r2, locate the 1, broadcast the index. ------------------
  // Anything but exactly one 1 among 0s is a malformed reply from S1.  The
  // subtraction wraps (unsigned), so no reply value can overflow it.
  index = k_;
  const std::vector<std::int64_t> onehot = read_values(msg, k_);
  for (std::size_t i = 0; i < k_; ++i) {
    const std::uint64_t bit = static_cast<std::uint64_t>(onehot[i]) -
                              static_cast<std::uint64_t>(restore_r2_[i]);
    if (bit == 1 && index == k_) {
      index = i;
    } else if (bit != 0) {
      throw FramingError("restore: slot-6 reply is not one-hot");
    }
  }
  if (index == k_) throw FramingError("restore: slot-6 reply holds no 1");
  MessageWriter reply;
  reply.write_u64(index);
  return reply;
}

}  // namespace pcl
