// Paillier additively homomorphic cryptosystem (paper Sec. III-B).
//
// Supports the two homomorphic identities the protocol relies on
// (paper Eq. 1 and Eq. 2):
//   E[m1 + m2] = E[m1] * E[m2]   and   E[a * m] = E[m]^a   (mod n^2).
//
// Signed plaintexts are represented as residues mod n with the usual
// "upper half is negative" convention; all protocol aggregates are bounded
// well below n/2 (the callers enforce this).
//
// Decryption is Paillier's own CRT form (EUROCRYPT '99, Sec. 7): the key
// keeps the factorization, raises c to p-1 mod p^2 and to q-1 mod q^2 —
// exponents half as long as lambda, with no arithmetic above p^2 and q^2 —
// and recombines the two halves mod n.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "bigint/bigint.h"
#include "bigint/rng.h"
#include "core/secrecy.h"

namespace pcl {

class MontgomeryContext;

/// A Paillier ciphertext: an element of Z_{n^2}^*.  Value type; the modulus
/// is carried by the key, not the ciphertext.
struct PaillierCiphertext {
  BigInt value;
  friend bool operator==(const PaillierCiphertext&,
                         const PaillierCiphertext&) = default;
};

class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  /// Requires an odd n > 4; throws std::invalid_argument otherwise.  Builds
  /// the key's context for n² (a default-constructed key has none, and its
  /// operations throw).
  explicit PaillierPublicKey(BigInt n);

  [[nodiscard]] const BigInt& n() const { return n_; }
  [[nodiscard]] const BigInt& n_squared() const { return n_squared_; }
  [[nodiscard]] std::size_t key_bits() const { return n_.bit_length(); }

  /// Encrypts a signed plaintext with fresh randomness from `rng`.
  /// Requires |m| < n/2.
  [[nodiscard]] PaillierCiphertext encrypt(const BigInt& m, Rng& rng) const;
  /// Deterministic encryption with caller-supplied randomizer r in Z_n^*
  /// (exposed for tests of ciphertext rerandomization).
  [[nodiscard]] PaillierCiphertext encrypt_with_randomness(
      const BigInt& m, const BigInt& r) const;

  /// The expensive, input-INDEPENDENT part of one encryption: draws r
  /// exactly as encrypt() would from `rng` and returns r^n mod n^2.  The
  /// offline/online split (DESIGN.md §15) precomputes these during idle
  /// time; encrypt(m, rng) == encrypt_with_power(m, randomizer_power(rng))
  /// bit for bit, with identical Rng consumption.
  [[nodiscard]] BigInt randomizer_power(Rng& rng) const;
  /// The cheap, online part: (1 + m*n) * r_to_n mod n^2 — two modular
  /// multiplications instead of a modular exponentiation.  Counts
  /// kPaillierEncrypt (it completes one logical encryption).
  [[nodiscard]] PaillierCiphertext encrypt_with_power(
      const BigInt& m, const BigInt& r_to_n) const;
  /// Homomorphically adds a plaintext delta WITHOUT fresh randomness:
  /// c * (1 + delta*n) mod n^2 encrypts m + delta under c's randomizer.
  /// Only sound where c's randomizer is itself fresh for this use (the
  /// packed-delta strips); counts kPaillierAdd.
  [[nodiscard]] PaillierCiphertext compose_plain(const PaillierCiphertext& c,
                                                 const BigInt& delta) const;

  /// E[m1 + m2] = E[m1] * E[m2] mod n^2  (paper Eq. 1).
  [[nodiscard]] PaillierCiphertext add(const PaillierCiphertext& c1,
                                       const PaillierCiphertext& c2) const;
  /// E[a * m] = E[m]^a mod n^2  (paper Eq. 2); a may be negative.
  [[nodiscard]] PaillierCiphertext scalar_mul(const PaillierCiphertext& c,
                                              const BigInt& a) const;
  /// E[-m].
  [[nodiscard]] PaillierCiphertext negate(const PaillierCiphertext& c) const;
  /// Fresh randomization of an existing ciphertext (same plaintext).
  [[nodiscard]] PaillierCiphertext rerandomize(const PaillierCiphertext& c,
                                               Rng& rng) const;

  /// Signed residue decoding helper: maps x in [0, n) to (-n/2, n/2].
  [[nodiscard]] BigInt decode_signed(const BigInt& residue) const;

  /// The key's Montgomery context for n², built once at construction:
  /// every operation mod n² (encrypt, add, scalar_mul, encrypt_with_power)
  /// runs on it.  Null for a default-constructed key.
  [[nodiscard]] const std::shared_ptr<const MontgomeryContext>&
  mont_n_squared() const {
    return mont_n_squared_;
  }

  // Key identity is the modulus; the context is derived state (two keys
  // built from one n hold distinct contexts).
  friend bool operator==(const PaillierPublicKey& a,
                         const PaillierPublicKey& b) {
    return a.n_ == b.n_;
  }

 private:
  BigInt n_;
  BigInt n_squared_;
  std::shared_ptr<const MontgomeryContext> mont_n_squared_;
};

class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;
  PaillierPrivateKey(const PaillierPublicKey& pk, BigInt p, BigInt q);
  PaillierPrivateKey(const PaillierPrivateKey&) = default;
  PaillierPrivateKey(PaillierPrivateKey&&) = default;
  PaillierPrivateKey& operator=(const PaillierPrivateKey&) = default;
  PaillierPrivateKey& operator=(PaillierPrivateKey&&) = default;
  ~PaillierPrivateKey() { zeroize(); }

  /// Signed decryption: result in (-n/2, n/2].
  [[nodiscard]] BigInt decrypt(const PaillierCiphertext& c) const;
  /// Raw decryption: residue in [0, n).  Throws std::invalid_argument
  /// unless c lies in [1, n^2).
  [[nodiscard]] BigInt decrypt_raw(const PaillierCiphertext& c) const;

  [[nodiscard]] const PaillierPublicKey& public_key() const { return pk_; }

  /// Wipes the factorization and CRT secrets (lint rule PC003).  The key is
  /// unusable afterwards; called automatically on destruction.
  void zeroize();

 private:
  PaillierPublicKey pk_;
  PC_SECRET BigInt p_, q_;
  PC_SECRET BigInt p_squared_, q_squared_;
  PC_SECRET BigInt hp_;       // (-q)^{-1} mod p
  PC_SECRET BigInt hq_;       // (-p)^{-1} mod q
  PC_SECRET BigInt q_inv_p_;  // q^{-1} mod p (CRT recombination)
  // Contexts for the secret CRT moduli, owned by this key: zeroize drops
  // them, and the last holder's drop wipes them (DESIGN §10).
  std::shared_ptr<const MontgomeryContext> mont_p_squared_;
  std::shared_ptr<const MontgomeryContext> mont_q_squared_;
};

struct PaillierKeyPair {
  PaillierPublicKey pk;
  PaillierPrivateKey sk;
};

/// Generates a fresh key pair with an n of `key_bits` bits.  The paper's
/// prototype uses 64-bit keys; we default to the same for cost fidelity but
/// any size >= 16 works (tests sweep up to 512).
[[nodiscard]] PaillierKeyPair generate_paillier_key(std::size_t key_bits,
                                                    Rng& rng);

}  // namespace pcl
