// Two-party secure comparison via the DGK protocol (paper Sec. III-B,
// used in Alg. 5 steps 4, 5 and 8 through Eqns. (6) and (7)).
//
// Setting: server S1 privately holds a signed integer x, server S2
// privately holds y, and both must learn whether x >= y — but nothing else
// about the other party's value.  S2 owns the DGK key pair.
//
// Protocol (the "most primitive" DGK variant the paper adopts, where the
// output bit is revealed to both parties — safe in Alg. 5 because all
// compared positions are blinded by the composed permutation):
//   1. Both sides add the public offset 2^(ell-1), giving ell-bit
//      non-negative d (at S1) and e (at S2).
//   2. S2 sends DGK encryptions of e's bits — all ell bit-ciphertexts
//      batched into ONE message on the channel.
//   3. For every bit i (MSB to LSB), S1 homomorphically forms
//        c_i = 1 + d_i - e_i + 3 * sum_{j more significant than i} (d_j XOR e_j),
//      multiplicatively blinds each c_i by a random unit of Z_u*, permutes
//      the sequence, and returns it (again one batched message).
//   4. S2 zero-tests each ciphertext: some c_i == 0  iff  d < e.
//      S2 reveals the bit; both output x >= y == !(d < e).
//
// The protocol is implemented once, as the message-slot halves below: each
// computes one party's work at one message boundary (S2's bits, S1's
// blinded sequence, S2's decision, S1 reading the bit), taking the peer's
// message and returning its own.  The lane-batched programs
// (mpc/consensus_batch.cpp) call them per lane in that order, so one
// coalesced frame carries every lane's payload for a slot.
// Pooled mode (DESIGN.md §15): the h^r blinding powers that dominate each
// bit encryption are input-independent, so the halves optionally draw them
// from a DgkPowerStream filled offline.  A null stream keeps the
// fresh-randomness path bit for bit.
// Each sending half makes all its Rng and stream draws first, in protocol
// order, then runs its per-bit exponentiations through for_each_element
// (mpc/lane_pool.h), which fans them out when the public DGK n has at
// least kElementFanOutMinBits bits (DESIGN.md §10).  The bytes are the
// same at every width.
#pragma once

#include <cstdint>

#include "crypto/dgk.h"
#include "crypto/precompute_service.h"
#include "net/message.h"

namespace pcl {

/// Validated parameters for a comparison session.  The plaintext space u
/// must exceed 3*ell + 4 so no c_i wraps around mod u.
struct DgkCompareContext {
  DgkCompareContext(const DgkPublicKey& pk, const DgkPrivateKey& sk,
                    std::size_t ell);

  const DgkPublicKey* pk;
  const DgkPrivateKey* sk;  ///< held by S2 only
  std::size_t ell;
};

// --- Message-slot halves, in protocol order ---------------------------------
// Each half takes only its party's own secrets: S1 holds x and the public
// key, S2 holds y and the private key.  The halves that take x or y throw
// std::out_of_range if it lies outside [-2^(ell-1), 2^(ell-1)), and the
// ones that read a peer's ciphertexts throw FramingError unless exactly
// ell arrive.

/// S2 slot 1: DGK-encrypts e's bits (counts kDgkCompareBit).
[[nodiscard]] MessageWriter dgk_compare_s2_bits(const DgkCompareContext& ctx,
                                                std::int64_t y, Rng& rng,
                                                DgkPowerStream* bank = nullptr);
/// S1 slot 2: builds the blinded permuted c-sequence from S2's encrypted
/// bits (counts kDgkCompare — the S1 role owns the comparison count).
[[nodiscard]] MessageWriter dgk_compare_s1_blind(const DgkPublicKey& pk,
                                                 std::size_t ell,
                                                 std::int64_t x,
                                                 MessageReader& e_bits,
                                                 Rng& rng,
                                                 DgkPowerStream* bank = nullptr);
/// S2 slot 3: zero-tests the returned sequence, writes the revealed bit
/// into `reply` and returns it (x >= y).
[[nodiscard]] bool dgk_compare_s2_decide(const DgkCompareContext& ctx,
                                         MessageReader& blinded,
                                         MessageWriter& reply);
/// S1 slot 3, read side: the revealed bit.
[[nodiscard]] bool dgk_compare_read_bit(MessageReader& msg);

}  // namespace pcl
