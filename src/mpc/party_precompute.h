// One party's resolved view of a PrecomputeService (DESIGN.md §15): raw
// pointers to the power streams this party's protocol role draws from, and
// the number of draws one query makes from each.  A null pointer (or a
// null struct) means "fresh mode" — every encryption draws from the party
// Rng exactly as before the offline/online split, so all pre-split
// byte-parity gates are unchanged.
//
// With streams attached, encryption randomizers come from the stream's own
// deterministic Rng instead of the party Rng.  Pooled traffic is therefore
// a distinct (but equally deterministic) traffic mode: two pooled runs of
// the same seeds are byte-identical regardless of pool warmth, which is
// what the pooled parity tests pin down.
#pragma once

#include <cstdint>

#include "crypto/precompute_service.h"

namespace pcl {

struct PartyPrecompute {
  /// Randomizer powers for encryptions under S2's key pk2 (S1's aggregate
  /// stream: S1's BnP sends, users' S1-bound shares).
  PaillierPowerStream* powers_pk2 = nullptr;
  /// Randomizer powers for encryptions under S1's key pk1.
  PaillierPowerStream* powers_pk1 = nullptr;
  /// DGK blinding powers h^r (S2's bit encryptions, S1's blinded sequence);
  /// null for users.
  DgkPowerStream* dgk_powers = nullptr;
};

/// The draws one party makes from each of its streams in one released
/// query (ConsensusProtocol::precompute_demand); a ⊥ query draws a prefix.
struct PrecomputeDemand {
  std::uint64_t pk1 = 0;
  std::uint64_t pk2 = 0;
  std::uint64_t dgk = 0;
};

}  // namespace pcl
