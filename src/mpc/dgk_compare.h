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
// The protocol is implemented ONCE, as the per-party role functions below
// written against `Channel` (party names follow the repo-wide convention:
// the roles talk to "S1"/"S2").  The `Network`-based driver runs both roles
// through the party runner, on either of its in-memory schedules.
// Pooled mode (DESIGN.md §15): the h^r blinding powers that dominate each
// bit encryption are input-independent, so the role functions optionally
// draw them from a DgkPowerStream filled offline.  A null stream keeps the
// original fresh-randomness path bit for bit.
#pragma once

#include <cstdint>

#include "crypto/dgk.h"
#include "crypto/precompute_service.h"
#include "net/channel.h"
#include "net/party_runner.h"
#include "net/transport.h"

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

// --- Per-party roles (each takes only the party's own secrets) -------------

/// S1's role: holds x and the public key only.  Receives S2's encrypted
/// bits, returns the blinded permuted sequence, receives the revealed bit.
/// Returns x >= y.
[[nodiscard]] bool dgk_compare_s1_geq(Channel& chan, const DgkPublicKey& pk,
                                      std::size_t ell, std::int64_t x,
                                      Rng& rng,
                                      DgkPowerStream* bank = nullptr);

/// S2's role: holds y and the private key.  Returns x >= y.
[[nodiscard]] bool dgk_compare_s2_geq(Channel& chan,
                                      const DgkCompareContext& ctx,
                                      std::int64_t y, Rng& rng,
                                      DgkPowerStream* bank = nullptr);

// --- Message-slot halves (lane-batched execution) ---------------------------
// The roles above are exactly these functions stitched to
// the channel in order; mpc/consensus_batch.cpp calls them per lane so one
// coalesced frame carries every lane's payload for a slot.  Each computes
// precisely the bytes and Rng draws of the sequential role at that boundary.

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

// --- Reference driver -------------------------------------------------------

/// Runs the comparison over `net` between parties "S1" (holding x) and
/// "S2" (holding y and the private key) on `schedule`; S1 draws from
/// derive_party_seed(seed, 0) and S2 from derive_party_seed(seed, 1), so
/// no Rng is shared across parties.  Returns x >= y.  Throws
/// std::out_of_range if |x| or |y| >= 2^(ell-1).
[[nodiscard]] bool dgk_compare_geq(
    Network& net, const DgkCompareContext& ctx, std::int64_t x,
    std::int64_t y, std::uint64_t seed,
    PartyTransport schedule = PartyTransport::kDeterministic);

}  // namespace pcl
