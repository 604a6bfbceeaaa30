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

/// One encryption's randomness, drawn where the protocol orders it: the
/// bank's next power when one is attached, else the randomizer exponent r
/// from `rng` (its h^r is evaluated by encrypt_drawn, off the draw order).
BigInt draw_randomness(const DgkPublicKey& pk, Rng& rng,
                       DgkPowerStream* bank) {
  return bank != nullptr ? bank->draw_power() : pk.draw_randomizer(rng);
}

/// The exponentiation half of one small-plaintext encryption, g^m * h^r
/// from what draw_randomness drew: with a bank only the tiny g^m part runs
/// online.
DgkCiphertext encrypt_drawn(const DgkPublicKey& pk, std::uint64_t m,
                            const BigInt& drawn, DgkPowerStream* bank) {
  if (bank != nullptr) return pk.encrypt_with_power(BigInt(m), drawn);
  return pk.encrypt_with_power(BigInt(m), pk.randomizer_power(drawn));
}

DgkCiphertext encrypt_small(const DgkPublicKey& pk, std::uint64_t m, Rng& rng,
                            DgkPowerStream* bank) {
  return encrypt_drawn(pk, m, draw_randomness(pk, rng, bank), bank);
}

/// The bits of e, each DGK-encrypted, batched into one message.  The draws
/// run first, in bit order; the encryptions then fan out
/// (for_each_element), each turning its bit's slot into E(e_i) in place.
MessageWriter encrypted_bits_message(const DgkPublicKey& pk, std::uint64_t e,
                                     std::size_t width, Rng& rng,
                                     DgkPowerStream* bank) {
  obs::count(obs::Op::kDgkCompareBit, width);
  std::vector<BigInt> bits(width);
  for (BigInt& slot : bits) slot = draw_randomness(pk, rng, bank);
  for_each_element(pk.n().bit_length(), width, [&](std::size_t i) {
    bits[i] = encrypt_drawn(pk, (e >> i) & 1u, bits[i], bank).value;
  });
  MessageWriter msg;
  msg.write_u64(width);
  for (const BigInt& c : bits) msg.write_bigint(c);
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

/// S1's core: the blinded, permuted c-sequence c_i = 1 + d_i - e_i + 3W_i
/// (some c_i == 0 iff d < e), where W_i sums w_j = d_j XOR e_j over the
/// bits more significant than i.  Slot k of the sequence serves bit
/// width - 1 - k (MSB to LSB).
///
/// Every draw comes first, in the protocol's order: E(1), E(0), then per
/// slot the bank's power (or r) and the blinding unit, then the
/// permutation.  The exponentiations fan out (for_each_element) in two
/// passes; between them only the running product W is sequential.
MessageWriter blinded_sequence_message(const DgkPublicKey& pk, std::uint64_t d,
                                       const std::vector<DgkCiphertext>& e_bits,
                                       Rng& rng, DgkPowerStream* bank) {
  const std::size_t width = e_bits.size();
  const std::size_t modulus_bits = pk.n().bit_length();
  const auto d_bit = [&](std::size_t k) { return (d >> (width - 1 - k)) & 1u; };
  const auto e_bit = [&](std::size_t k) -> const DgkCiphertext& {
    return e_bits[width - 1 - k];
  };
  const DgkCiphertext enc_one = encrypt_small(pk, 1, rng, bank);
  DgkCiphertext w_sum = encrypt_small(pk, 0, rng, bank);
  std::vector<DgkCiphertext> c(width);
  std::vector<std::uint64_t> units(width);
  for (std::size_t k = 0; k < width; ++k) {
    c[k].value = draw_randomness(pk, rng, bank);
    units[k] = pk.draw_unit(rng);
  }
  const Permutation shuffle = Permutation::random(width, rng);

  // Pass 1: c_k = E(1 + d_i) * E(e_i)^(u-1), the negation computed once and
  // also giving w_i = E(1 - e_i) when d_i = 1 (w_i is E(e_i) when d_i = 0).
  std::vector<DgkCiphertext> w(width);
  for_each_element(modulus_bits, width, [&](std::size_t k) {
    const DgkCiphertext neg = pk.negate(e_bit(k));
    c[k] = pk.add(encrypt_drawn(pk, 1 + d_bit(k), c[k].value, bank), neg);
    if (d_bit(k) != 0) w[k] = pk.add(enc_one, neg);
  });
  // Sequential: w[k] becomes W at slot k, the product over earlier slots.
  for (std::size_t k = 0; k < width; ++k) {
    DgkCiphertext next = pk.add(w_sum, d_bit(k) != 0 ? w[k] : e_bit(k));
    w[k] = std::exchange(w_sum, std::move(next));
  }
  // Pass 2: c_k * W^3, blinded by the slot's unit.
  for_each_element(modulus_bits, width, [&](std::size_t k) {
    c[k] = pk.scalar_mul(pk.add(c[k], pk.scalar_mul(w[k], BigInt(3))),
                         BigInt(units[k]));
  });

  MessageWriter msg;
  msg.write_u64(width);
  for (std::size_t k = 0; k < width; ++k) msg.write_bigint(c[shuffle[k]].value);
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
  return blinded_sequence_message(pk, d, bits, rng, bank);
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
