// Vector helpers over Paillier ciphertexts shared by the MPC sub-protocols,
// including the users' half of secure sum (paper Alg. 5 steps 2 and 6,
// Eq. 4): each user encrypts its S1-bound share vector under S2's key and
// its S2-bound vector under S1's key with secure_sum_encrypt_stream, and
// each server folds the vectors it receives with add_vectors (Eq. 1).
//
// Every helper that encrypts takes an optional PaillierPowerStream
// (crypto/precompute_service.h): with one, each randomizer power is the
// stream's next (precomputed offline when warm), and the Rng is untouched;
// without one, each encryption draws fresh from the Rng.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "crypto/precompute_service.h"
#include "net/message.h"

namespace pcl {

/// Encrypts each element of a signed vector; from a warm `stream` each
/// ciphertext costs 2 modmuls.
[[nodiscard]] std::vector<PaillierCiphertext> encrypt_vector(
    const PaillierPublicKey& pk, std::span<const std::int64_t> values,
    Rng& rng, PaillierPowerStream* stream = nullptr);

/// Decrypts each element; throws std::overflow_error if any plaintext does
/// not fit int64 (which would indicate a protocol bound violation).  At
/// deployment widths the decryptions fan out (mpc/lane_pool.h).
[[nodiscard]] std::vector<std::int64_t> decrypt_vector(
    const PaillierPrivateKey& sk, std::span<const PaillierCiphertext> cts);

/// Element-wise homomorphic sum (paper Eq. 1 applied per coordinate).
[[nodiscard]] std::vector<PaillierCiphertext> add_vectors(
    const PaillierPublicKey& pk, std::span<const PaillierCiphertext> lhs,
    std::span<const PaillierCiphertext> rhs);

/// Homomorphically adds a plaintext vector: out[i] = E[lhs_i + delta_i].
[[nodiscard]] std::vector<PaillierCiphertext> add_plain_vector(
    const PaillierPublicKey& pk, std::span<const PaillierCiphertext> cts,
    std::span<const std::int64_t> delta, Rng& rng,
    PaillierPowerStream* stream = nullptr);

/// One user's secure-sum submission to one server: `values` encrypted
/// under `pk` (the other server's key, so the receiving server cannot
/// decrypt what it aggregates) — packed into layout.num_cts ciphertexts
/// when `packing` is non-null, else one per value — with powers from
/// `stream` if non-null, else fresh from `rng`.
[[nodiscard]] std::vector<PaillierCiphertext> secure_sum_encrypt_stream(
    const PaillierPublicKey& pk, const std::vector<std::int64_t>& values,
    Rng& rng, const PackingLayout* packing, PaillierPowerStream* stream);

// --- Packed lanes (DESIGN.md §15) ------------------------------------------
// All L per-label values of one vector ride in layout.num_cts ciphertexts
// instead of L.  Slot arithmetic stays additive as long as each slot's
// addend count is tracked (crypto/packing.h), so secure-sum aggregation is
// still plain ciphertext multiplication.

/// Encrypts a signed vector packed: ceil(L / slots_per_ct) ciphertexts,
/// each slot biased for `addend_count` contributions.
[[nodiscard]] std::vector<PaillierCiphertext> encrypt_packed_vector(
    const PaillierPublicKey& pk, const PackingLayout& layout,
    std::span<const std::int64_t> values, std::size_t addend_count, Rng& rng,
    PaillierPowerStream* stream);

/// Homomorphically adds an UNBIASED plaintext delta vector onto packed
/// ciphertexts (compose_plain per ciphertext: one modmul each, no fresh
/// randomness, addend counts unchanged).
[[nodiscard]] std::vector<PaillierCiphertext> add_packed_delta(
    const PaillierPublicKey& pk, const PackingLayout& layout,
    std::span<const PaillierCiphertext> cts,
    std::span<const std::int64_t> delta);

/// Decrypts packed ciphertexts and unpacks all L slot values, removing
/// `addend_count` biases per slot.  Fans out like decrypt_vector.
[[nodiscard]] std::vector<std::int64_t> decrypt_packed_vector(
    const PaillierPrivateKey& sk, const PackingLayout& layout,
    std::span<const PaillierCiphertext> cts, std::size_t addend_count);

/// Wire form: a u64 count, then each ciphertext as a BigInt.  The reader
/// takes the key `pk` the vector is encrypted under, the count the public
/// query geometry fixes for it (k, or layout.num_cts packed) and the name
/// of its message slot.  It throws FramingError naming the slot on any
/// other count, on a count the remaining bytes cannot back (before it
/// allocates), and, naming the index too, on a ciphertext outside
/// [1, n²): a slot used only homomorphically would otherwise carry it
/// into a later step, or to the peer's decryption.
void write_ciphertext_vector(MessageWriter& w,
                             std::span<const PaillierCiphertext> cts);
[[nodiscard]] std::vector<PaillierCiphertext> read_ciphertext_vector(
    MessageReader& r, const PaillierPublicKey& pk, std::size_t count,
    const char* slot);

}  // namespace pcl
