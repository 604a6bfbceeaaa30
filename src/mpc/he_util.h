// Vector helpers over Paillier ciphertexts shared by the MPC sub-protocols.
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

void write_ciphertext_vector(MessageWriter& w,
                             std::span<const PaillierCiphertext> cts);
[[nodiscard]] std::vector<PaillierCiphertext> read_ciphertext_vector(
    MessageReader& r);

}  // namespace pcl
