// Secure sum (paper Alg. 5 steps 2 and 6).
//
// Every user sends one Paillier-encrypted share vector to each server:
// the S1-bound vector is encrypted under S2's public key and vice versa, so
// the server holding a ciphertext cannot decrypt it (paper Eq. 4 aggregation
// happens under encryption; Eq. 1 makes the sum a ciphertext product).
//
// The round is implemented once as per-party roles over `Channel`: users run
// a submit role, servers run a collect role.  The `Network` entry point
// below drives all parties through the party runner, on either of its
// in-memory schedules.
#pragma once

#include <cstdint>
#include <vector>

#include "mpc/blind_permute.h"
#include "net/channel.h"
#include "net/party_runner.h"
#include "net/transport.h"

namespace pcl {

// --- Per-party roles -------------------------------------------------------

/// User role: encrypts `to_s1` under `s1_stream_pk` (= S2's key, so S1
/// cannot decrypt what it aggregates) and sends it to "S1"; symmetrically
/// for `to_s2` under `s2_stream_pk` (= S1's key).  With `packing`, each
/// stream's L values ride in layout.num_cts packed ciphertexts (DESIGN.md
/// §15).  Every ciphertext is a fresh encryption from `rng`.
void secure_sum_submit(Channel& chan, const PaillierPublicKey& s1_stream_pk,
                       const PaillierPublicKey& s2_stream_pk,
                       const std::vector<std::int64_t>& to_s1,
                       const std::vector<std::int64_t>& to_s2, Rng& rng,
                       const PackingLayout* packing = nullptr);

/// The encryption half of one secure_sum_submit stream, exposed for
/// the lane-batched user program (mpc/consensus_batch.cpp) so a batched
/// lane's sub-message is byte-identical to the sequential submit: powers
/// from `stream` if non-null, else fresh from `rng` — packed
/// (layout.num_cts ciphertexts) when `packing` is non-null.
[[nodiscard]] std::vector<PaillierCiphertext> secure_sum_encrypt_stream(
    const PaillierPublicKey& pk, const std::vector<std::int64_t>& values,
    Rng& rng, const PackingLayout* packing, PaillierPowerStream* stream);

/// Server role: receives one ciphertext vector from each of
/// "user:0" .. "user:<n_users-1>" in index order and aggregates them by
/// ciphertext multiplication under `pk` (paper Eq. 1).
[[nodiscard]] std::vector<PaillierCiphertext> secure_sum_collect(
    Channel& chan, const PaillierPublicKey& pk, std::size_t n_users);

// --- Reference driver -------------------------------------------------------

struct SecureSumResult {
  /// Aggregate of all users' S1-bound vectors; encrypted under pk2, held
  /// by S1.
  std::vector<PaillierCiphertext> s1_aggregate;
  /// Aggregate of all users' S2-bound vectors; encrypted under pk1, held
  /// by S2.
  std::vector<PaillierCiphertext> s2_aggregate;
};

/// Runs one secure-sum round over `net` on `schedule`: user u submits
/// `to_s1[u]` and `to_s2[u]` (plaintext share vectors, all the same
/// length), encrypting with its own Rng from derive_party_seed(seed, 2 + u)
/// (indices 0 and 1 are the servers', as in every party list).  Servers
/// aggregate homomorphically.  With `packing`, every user submits
/// layout.num_cts ciphertexts per stream, and the aggregates unpack (after
/// decryption) to the same per-label sums.
[[nodiscard]] SecureSumResult secure_sum(
    Network& net, const ServerPaillierKeys& keys,
    const std::vector<std::vector<std::int64_t>>& to_s1,
    const std::vector<std::vector<std::int64_t>>& to_s2, std::uint64_t seed,
    const PackingLayout* packing = nullptr,
    PartyTransport schedule = PartyTransport::kDeterministic);

}  // namespace pcl
