#include "mpc/dgk_compare.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/secrecy.h"
#include "mpc/lane_pool.h"
#include "mpc/permutation.h"
#include "obs/trace.h"

namespace pcl {

DgkCompareContext::DgkCompareContext(const DgkPublicKey& pk_in,
                                     const DgkPrivateKey& sk_in,
                                     std::size_t ell_in)
    : pk(&pk_in), sk(&sk_in), ell(ell_in) {
  if (ell == 0 || ell > 62) {
    throw std::invalid_argument("DGK comparison width must lie in [1, 62]");
  }
  if (pk->u_value() <= 3 * ell + 4) {
    throw std::invalid_argument(
        "DGK plaintext space too small: need u > 3*ell + 4");
  }
}

namespace {

std::uint64_t to_offset_domain(std::int64_t v, std::size_t ell) {
  const std::int64_t half = std::int64_t{1} << (ell - 1);
  if (v < -half || v >= half) {
    throw std::out_of_range("DGK comparison input outside [-2^(ell-1), 2^(ell-1))");
  }
  return static_cast<std::uint64_t>(v + half);
}

/// One small-plaintext encryption, from the power bank when one is
/// attached (the h^r power comes precomputed; only the tiny g^m part runs
/// online).
DgkCiphertext encrypt_small(const DgkPublicKey& pk, std::uint64_t m, Rng& rng,
                            DgkPowerStream* bank) {
  if (bank != nullptr) return bank->encrypt(m);
  return pk.encrypt(m, rng);
}

/// The bits of e, each DGK-encrypted, batched into one message.
MessageWriter encrypted_bits_message(const DgkPublicKey& pk, std::uint64_t e,
                                     std::size_t width, Rng& rng,
                                     DgkPowerStream* bank) {
  obs::count(obs::Op::kDgkCompareBit, width);
  MessageWriter msg;
  msg.write_u64(width);
  for (std::size_t i = 0; i < width; ++i) {
    msg.write_bigint(encrypt_small(pk, (e >> i) & 1u, rng, bank).value);
  }
  return msg;
}

/// A peer's ciphertext batch for message slot `slot`: exactly `ell` of
/// them, each in [1, n), or FramingError naming the slot and the index.
std::vector<DgkCiphertext> read_ciphertext_batch(MessageReader& msg,
                                                 const DgkPublicKey& pk,
                                                 std::size_t ell,
                                                 const char* slot) {
  std::vector<BigInt> values = msg.read_bigint_vector();
  if (values.size() != ell) {
    throw FramingError(std::string("DGK comparison ") + slot + ": expected " +
                       std::to_string(ell) + " ciphertexts, got " +
                       std::to_string(values.size()));
  }
  std::vector<DgkCiphertext> out;
  out.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] < BigInt(1) || values[i] >= pk.n()) {
      throw FramingError(std::string("DGK comparison ") + slot +
                         ": ciphertext " + std::to_string(i) +
                         " outside [1, n)");
    }
    out.push_back({std::move(values[i])});
  }
  return out;
}

/// S1's core: the blinded, permuted c-sequence c_i = 1 + d_i - e_i + 3W
/// (some c_i == 0 iff d < e).
std::vector<DgkCiphertext> build_blinded_sequence(
    const DgkPublicKey& pk, std::uint64_t d,
    const std::vector<DgkCiphertext>& e_bits, Rng& rng,
    DgkPowerStream* bank) {
  const std::size_t width = e_bits.size();
  const DgkCiphertext enc_one = encrypt_small(pk, 1, rng, bank);

  // Running homomorphic sum of w_j = d_j XOR e_j over bits more
  // significant than the current one (we iterate MSB -> LSB).
  DgkCiphertext w_sum = encrypt_small(pk, 0, rng, bank);
  std::vector<DgkCiphertext> c_seq;
  c_seq.reserve(width);
  for (std::size_t idx = width; idx-- > 0;) {
    const std::uint64_t d_bit = (d >> idx) & 1u;
    DgkCiphertext c = pk.add(encrypt_small(pk, 1 + d_bit, rng, bank),
                             pk.negate(e_bits[idx]));
    c = pk.add(c, pk.scalar_mul(w_sum, BigInt(3)));
    c_seq.push_back(pk.blind_multiplicative(c, rng));
    // w_idx = d_idx XOR e_idx = d_idx + e_idx - 2*d_idx*e_idx; with d_idx
    // known in plaintext this is e_idx when d_idx == 0, else 1 - e_idx.
    const DgkCiphertext w =
        d_bit == 0 ? e_bits[idx] : pk.add(enc_one, pk.negate(e_bits[idx]));
    w_sum = pk.add(w_sum, w);
  }
  const Permutation shuffle = Permutation::random(width, rng);
  return shuffle.apply(c_seq);
}

MessageWriter ciphertext_batch_message(const std::vector<DgkCiphertext>& cts) {
  MessageWriter msg;
  msg.write_u64(cts.size());
  for (const DgkCiphertext& c : cts) msg.write_bigint(c.value);
  return msg;
}

/// S2's core: zero-test the returned sequence; some c_i == 0 iff d < e.
/// Every element is tested (fanned out at deployment widths, where the
/// public key decides), and the results fold without a branch.
bool any_zero_test(const DgkPublicKey& pk, const DgkPrivateKey& sk,
                   const std::vector<DgkCiphertext>& cts) {
  std::vector<std::uint8_t> zero(cts.size());
  for_each_element(pk.n().bit_length(), cts.size(), [&](std::size_t i) {
    zero[i] = static_cast<std::uint8_t>(sk.is_zero(cts[i]));
  });
  std::uint8_t any_zero = 0;
  for (const std::uint8_t z : zero) any_zero |= z;
  return any_zero != 0;
}

}  // namespace

MessageWriter dgk_compare_s2_bits(const DgkCompareContext& ctx, std::int64_t y,
                                  Rng& rng, DgkPowerStream* bank) {
  return encrypted_bits_message(*ctx.pk, to_offset_domain(y, ctx.ell),
                                ctx.ell, rng, bank);
}

MessageWriter dgk_compare_s1_blind(const DgkPublicKey& pk, std::size_t ell,
                                   std::int64_t x, MessageReader& e_bits,
                                   Rng& rng, DgkPowerStream* bank) {
  obs::count(obs::Op::kDgkCompare);
  const std::uint64_t d = to_offset_domain(x, ell);
  const std::vector<DgkCiphertext> bits =
      read_ciphertext_batch(e_bits, pk, ell, "slot 1 (S2's bit ciphertexts)");
  return ciphertext_batch_message(
      build_blinded_sequence(pk, d, bits, rng, bank));
}

bool dgk_compare_s2_decide(const DgkCompareContext& ctx,
                           MessageReader& blinded, MessageWriter& reply) {
  const std::vector<DgkCiphertext> c_seq = read_ciphertext_batch(
      blinded, *ctx.pk, ctx.ell, "slot 2 (S1's blinded sequence)");
  const bool x_geq_y = !any_zero_test(*ctx.pk, *ctx.sk, c_seq);
  // pc_declassify: the comparison bit is the DGK protocol's defined output
  // for S2 — the one sanctioned release of this subprotocol.
  reply.write_u8(pc_declassify(x_geq_y ? 1 : 0));
  return x_geq_y;
}

bool dgk_compare_read_bit(MessageReader& msg) { return msg.read_u8() != 0; }

}  // namespace pcl
