// Blind-and-Permute (paper Alg. 2) and Restoration (paper Alg. 3).
//
// Two servers hold complementary encrypted share sequences: S1 holds
// E_pk2[a] (encrypted under S2's key) and S2 holds E_pk1[b].  After the
// protocol, S1 holds the plaintext sequence pi(a + r) and S2 holds
// pi(b ± r), where pi = pi1∘pi2 composes both servers' private random
// permutations and r = r1 + r2 sums both servers' private random masks.
// Neither server knows the full pi or the full r.
//
// Mask sign (see DESIGN.md, "Substitutions"): the paper writes "+r" on both
// outputs, but with vector masks that breaks the pairwise ranking of
// Eq. (7) — the masks only cancel if S2's output carries the opposite sign
// (so (a+r)_i + (b-r)_i == c_i).  Both modes are provided:
//   * kOppositeSign — ranking sequences (Alg. 5 steps 3/7, used with Eq. 7);
//   * kSameSign     — threshold sequences (Alg. 5 step 3, used with Eq. 6,
//                     where the comparison subtracts S2's value at the same
//                     position and a same-sign mask cancels).
//
// The protocol is implemented once, as two role classes — BlindPermuteS1
// and BlindPermuteS2 — each constructed from that server's own key
// material and Rng only.  Their members are the message-slot halves: each
// computes one server's work at one message boundary of Alg. 2 or Alg. 3,
// reading the peer's message and returning its own.  The lane-batched
// programs (mpc/consensus_batch.cpp) call them per lane in protocol order,
// so one coalesced frame carries every lane's payload for a slot.  A role
// object retains its private permutation so the same composed pi can be
// applied to multiple sequence pairs (the vote sequence and the threshold
// sequence must stay aligned) and so Restoration can unwind it afterwards.
// Every half that reads a peer's vector requires the length the public
// query geometry fixes for that slot (k, or layout.num_cts packed) and
// throws FramingError otherwise.
// Packed lanes (DESIGN.md §15): when both roles are constructed with the
// same PackingLayout, the held aggregates are layout.num_cts packed
// ciphertexts instead of k.  The first two slots then carry packed
// payloads (S1's masked aggregate; S2 piggybacks its own masked aggregate
// on the slot-2 reply so S1 can turn it into per-label ciphertexts), and
// from slot 3 on the wire format matches the unpacked protocol exactly —
// the permutation always acts on k per-label values, never on packed
// slots.  Mask cancellation is unchanged: S1 still ends with pi(a + r) and
// S2 with pi(b ± r).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "mpc/party_precompute.h"
#include "mpc/permutation.h"
#include "net/message.h"

namespace pcl {

/// Key material for the two-server protocols.  sk1 is held by S1 only and
/// sk2 by S2 only; the code keeps the views separate by discipline (this is
/// a simulation — both live in one process).
struct ServerPaillierKeys {
  PaillierKeyPair s1;
  PaillierKeyPair s2;
};

[[nodiscard]] ServerPaillierKeys generate_server_paillier_keys(
    std::size_t key_bits, Rng& rng);

enum class BlindPermuteMaskMode { kOppositeSign, kSameSign };

// --- Per-party roles -------------------------------------------------------

/// S1's half of Alg. 2 / Alg. 3.  Draws and retains the private pi1.
class BlindPermuteS1 {
 public:
  /// `own` is S1's key pair, `peer_pk` is S2's public key.  With `packing`
  /// non-null the held aggregates are packed (`packed_addends` logical
  /// contributions per slot); `pre` optionally routes encryption
  /// randomizers through precompute streams (null members = fresh mode).
  BlindPermuteS1(const PaillierKeyPair& own, const PaillierPublicKey& peer_pk,
                 std::size_t k, std::size_t mask_bits, Rng& rng,
                 const PackingLayout* packing = nullptr,
                 std::size_t packed_addends = 0,
                 const PartyPrecompute* pre = nullptr);

  // --- Alg. 2, one sequence pair (fresh masks, persistent pi1) ---------------
  // S1 sends slots 1, 3 and 5; S2 sends slots 2, 4 and 6.  S1 ends with
  // pi(a + r) (slot 3's `out_seq`), S2 with pi(b ± r) (slot 6).

  /// Slot 1 (S1 -> S2): draws this round's r1, returns E_pk2[a + r1]
  /// (packed mode: layout.num_cts ciphertexts, r1 composed plaintext-side).
  [[nodiscard]] MessageWriter round_open(
      const std::vector<PaillierCiphertext>& holds, BlindPermuteMaskMode mode);
  /// Slot 3: absorbs S2's permuted plaintexts into `out_seq` = pi(a + r),
  /// returns E_pk1[±r1].  Packed mode: also decrypts S2's piggybacked
  /// packed aggregate E_pk1[b + u2] and returns E_pk1[b + u2 ± r1] — the
  /// same k ciphertexts under pk1 the unpacked slot carries.
  [[nodiscard]] MessageWriter round_permute(MessageReader& msg,
                                            std::vector<std::int64_t>& out_seq);
  /// Slot 5: decrypts S2's blinded sequence, re-encrypts under pk2, strips
  /// r3 and applies pi1; returns the result for S2 to decrypt.
  [[nodiscard]] MessageWriter round_close(MessageReader& msg);

  // --- Alg. 3: S2 sends slots 1, 3, 5 and 7; S1 sends slots 2, 4 and 6 ------

  /// Restoration slot 2: undoes pi1 and masks with a fresh r1.
  [[nodiscard]] MessageWriter restore_mask(MessageReader& msg);
  /// Restoration slot 4: strips r1, re-encrypts under pk1.
  [[nodiscard]] MessageWriter restore_strip(MessageReader& msg);
  /// Restoration slot 6: decrypts and returns the masked one-hot.
  [[nodiscard]] MessageWriter restore_decrypt(MessageReader& msg);
  /// Restoration slot 7 (read side): the revealed original index.  Throws
  /// FramingError unless it is below k.
  [[nodiscard]] std::size_t restore_index(MessageReader& msg);

  [[nodiscard]] const Permutation& pi() const { return pi_; }

 private:
  const PaillierKeyPair& own_;
  const PaillierPublicKey& peer_pk_;
  std::size_t k_;
  std::size_t mask_bits_;
  Rng& rng_;
  const PackingLayout* packing_;
  std::size_t packed_addends_;
  PaillierPowerStream* own_stream_;   // powers for pk1 (own key)
  PaillierPowerStream* peer_stream_;  // powers for pk2 (peer key)
  Permutation pi_;
  BlindPermuteMaskMode mode_ = BlindPermuteMaskMode::kOppositeSign;
  std::vector<std::int64_t> round_r1_;    // current Alg. 2 round's mask
  std::vector<std::int64_t> restore_r1_;  // current Alg. 3 mask
};

/// S2's half of Alg. 2 / Alg. 3.  Draws and retains the private pi2.
class BlindPermuteS2 {
 public:
  /// `own` is S2's key pair, `peer_pk` is S1's public key.  Packing and
  /// precompute parameters mirror BlindPermuteS1.
  BlindPermuteS2(const PaillierKeyPair& own, const PaillierPublicKey& peer_pk,
                 std::size_t k, std::size_t mask_bits, Rng& rng,
                 const PackingLayout* packing = nullptr,
                 std::size_t packed_addends = 0,
                 const PartyPrecompute* pre = nullptr);

  // Mirror of BlindPermuteS1's halves; see the comments there.

  /// Slot 2: decrypts S1's masked sequence, adds a fresh r2, permutes with
  /// pi2, returns the plaintexts.  Packed mode: the decrypt unpacks
  /// layout.num_cts ciphertexts, and the reply piggybacks E_pk1[b + u2]
  /// (this round's packed own-aggregate under a fresh mask u2), which is
  /// why `holds` is a parameter of this slot.  Unpacked mode ignores it.
  [[nodiscard]] MessageWriter round_permute(
      MessageReader& msg, const std::vector<PaillierCiphertext>& holds);
  /// Slot 4: forms E_pk1[b ± r1 ± r2], permutes by pi2, blinds with r3;
  /// returns [sequence, E_pk2[-r3]].  Packed mode: S1's reply already
  /// carries E_pk1[b + u2 ± r1], so this slot strips u2 while adding ±r2
  /// and ignores `holds`.
  [[nodiscard]] MessageWriter round_blind(
      MessageReader& msg, const std::vector<PaillierCiphertext>& holds,
      BlindPermuteMaskMode mode);
  /// Slot 6 (read side): decrypts to pi(b ± r).
  [[nodiscard]] std::vector<std::int64_t> round_output(MessageReader& msg);

  /// Restoration slot 1: the one-hot at `permuted_index`, under pk2.  Alg.
  /// 3 maps that position back to the original index and reveals only the
  /// index, to both servers.
  [[nodiscard]] MessageWriter restore_open(std::size_t permuted_index);
  /// Restoration slot 3: decrypts S1's masked vector, returns plaintexts.
  [[nodiscard]] MessageWriter restore_reveal(MessageReader& msg);
  /// Restoration slot 5: undoes pi2 and masks with a fresh r2.
  [[nodiscard]] MessageWriter restore_unpermute(MessageReader& msg);
  /// Restoration slot 7: strips r2, locates the 1; writes the index into
  /// the returned broadcast message and stores it in `index`.  Throws
  /// FramingError unless S1's slot-6 reply strips to exactly one 1 among
  /// 0s.
  [[nodiscard]] MessageWriter restore_finish(MessageReader& msg,
                                             std::size_t& index);

  [[nodiscard]] const Permutation& pi() const { return pi_; }

 private:
  const PaillierKeyPair& own_;
  const PaillierPublicKey& peer_pk_;
  std::size_t k_;
  std::size_t mask_bits_;
  Rng& rng_;
  const PackingLayout* packing_;
  std::size_t packed_addends_;
  PaillierPowerStream* own_stream_;   // powers for pk2 (own key)
  PaillierPowerStream* peer_stream_;  // powers for pk1 (peer key)
  Permutation pi_;
  std::vector<std::int64_t> round_r2_;    // current Alg. 2 round's mask
  std::vector<std::int64_t> round_u2_;    // packed mode: piggyback mask
  std::vector<std::int64_t> restore_r2_;  // current Alg. 3 mask
};

}  // namespace pcl
