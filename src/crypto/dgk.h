// DGK (Damgård–Geisler–Krøigaard) cryptosystem, the homomorphic primitive
// behind the secure comparison protocol (paper Sec. III-B, refs [12][13]).
//
// DGK encrypts small plaintexts m in Z_u (u a small prime) as
//   E(m) = g^m * h^r mod n ,
// where n = p*q, g has order u*vp mod p and u*vq mod q, and h has order vp
// mod p and vq mod q.  Its killer feature for comparison is the cheap
// zero-test:  E(m) encrypts 0  iff  E(m)^vp mod p == 1 , with no discrete
// log needed.  Full decryption (used by tests) walks a u-entry table.
//
// Parameters are deliberately configurable down to toy sizes: the paper's
// own prototype used 64-bit Paillier keys, and the cost benches ablate key
// size separately.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "bigint/bigint.h"
#include "bigint/rng.h"
#include "core/secrecy.h"

namespace pcl {

class FixedBaseTable;
class MontgomeryContext;

struct DgkCiphertext {
  BigInt value;
  friend bool operator==(const DgkCiphertext&, const DgkCiphertext&) = default;
};

struct DgkParams {
  /// Bits of the RSA-style modulus n.
  std::size_t n_bits = 256;
  /// Bits of the secret prime orders vp, vq.
  std::size_t v_bits = 60;
  /// Plaintexts live in Z_u; u is the smallest prime > plaintext_bound.
  /// The comparison protocol needs u > 3*ell + 4 for ell-bit comparisons.
  std::uint64_t plaintext_bound = 256;
};

class DgkPublicKey {
 public:
  DgkPublicKey() = default;
  /// Requires an odd n > 1; throws std::invalid_argument otherwise.  Builds
  /// the key's context for n and its comb table for h^r (a
  /// default-constructed key has neither, and its operations throw).
  DgkPublicKey(BigInt n, BigInt g, BigInt h, BigInt u, std::size_t v_bits);

  [[nodiscard]] const BigInt& n() const { return n_; }
  [[nodiscard]] const BigInt& g() const { return g_; }
  [[nodiscard]] const BigInt& h() const { return h_; }
  [[nodiscard]] const BigInt& u() const { return u_; }
  [[nodiscard]] std::uint64_t u_value() const { return u_.to_uint64(); }
  [[nodiscard]] std::size_t v_bits() const { return v_bits_; }

  /// Encrypts m in [0, u) with fresh randomness.
  [[nodiscard]] DgkCiphertext encrypt(const BigInt& m, Rng& rng) const;
  [[nodiscard]] DgkCiphertext encrypt(std::uint64_t m, Rng& rng) const;

  /// The randomizer exponent r of one encryption: 2 * v_bits + 32 bits
  /// from `rng`, the only draw encrypt() and rerandomize() make.
  [[nodiscard]] BigInt draw_randomizer(Rng& rng) const;
  /// h^r mod n from the key's comb table, for an r from draw_randomizer.
  [[nodiscard]] BigInt randomizer_power(const BigInt& r) const;
  /// The input-independent part of one encryption: randomizer_power of a
  /// fresh draw_randomizer.  Precomputable offline (DESIGN.md §15);
  /// encrypt(m, rng) == encrypt_with_power(m, randomizer_power(rng)) bit
  /// for bit with identical Rng consumption.
  [[nodiscard]] BigInt randomizer_power(Rng& rng) const;
  /// The online part: g^m * h_to_r mod n.  The exponent m is tiny in the
  /// comparison protocol (a few bits), so this is a handful of modmuls
  /// instead of the full randomizer_bits-wide exponentiation.  Counts
  /// kDgkEncrypt.
  [[nodiscard]] DgkCiphertext encrypt_with_power(const BigInt& m,
                                                 const BigInt& h_to_r) const;

  /// E[m1 + m2 mod u].
  [[nodiscard]] DgkCiphertext add(const DgkCiphertext& c1,
                                  const DgkCiphertext& c2) const;
  /// E[a * m mod u]; a may be negative.
  [[nodiscard]] DgkCiphertext scalar_mul(const DgkCiphertext& c,
                                         const BigInt& a) const;
  [[nodiscard]] DgkCiphertext negate(const DgkCiphertext& c) const;
  /// A uniform unit of Z_u* (u prime, so any value in [1, u) is one),
  /// the only draw blind_multiplicative() makes.
  [[nodiscard]] std::uint64_t draw_unit(Rng& rng) const;
  /// Multiplicative blinding used by the comparison protocol:
  /// scalar_mul(c, draw_unit(rng)), which multiplies the plaintext by a
  /// uniform unit of Z_u*, preserving (only) zero-ness.
  [[nodiscard]] DgkCiphertext blind_multiplicative(const DgkCiphertext& c,
                                                   Rng& rng) const;
  /// Fresh additive rerandomization (same plaintext).
  [[nodiscard]] DgkCiphertext rerandomize(const DgkCiphertext& c,
                                          Rng& rng) const;

  /// The key's Montgomery context for n, built once at construction:
  /// encrypt, add, scalar_mul and rerandomize all run on it.  Null for a
  /// default-constructed key.
  [[nodiscard]] const std::shared_ptr<const MontgomeryContext>& mont_n()
      const {
    return mont_n_;
  }
  /// The key's comb table for h^r over randomizer exponents of
  /// 2 * v_bits + 32 bits, built once at construction on mont_n():
  /// encrypt, randomizer_power and rerandomize run on it, and copies of
  /// the key share it.  Null for a default-constructed key.
  [[nodiscard]] const std::shared_ptr<const FixedBaseTable>& h_table() const {
    return h_table_;
  }

 private:
  BigInt n_, g_, h_, u_;
  std::size_t v_bits_ = 0;
  std::size_t randomizer_bits_ = 0;
  std::shared_ptr<const MontgomeryContext> mont_n_;
  std::shared_ptr<const FixedBaseTable> h_table_;
};

class DgkPrivateKey {
 public:
  DgkPrivateKey() = default;
  DgkPrivateKey(DgkPublicKey pk, BigInt p, BigInt vp);
  DgkPrivateKey(const DgkPrivateKey&) = default;
  DgkPrivateKey(DgkPrivateKey&&) = default;
  DgkPrivateKey& operator=(const DgkPrivateKey&) = default;
  DgkPrivateKey& operator=(DgkPrivateKey&&) = default;
  ~DgkPrivateKey() { zeroize(); }

  /// Wipes p, vp and the subgroup dlog table (lint rule PC003).  The key is
  /// unusable afterwards; called automatically on destruction.
  void zeroize();

  /// True iff c encrypts 0 (mod u).  This is the only decryption operation
  /// the comparison protocol needs.
  [[nodiscard]] bool is_zero(const DgkCiphertext& c) const;
  /// Full decryption via table lookup over Z_u (test/debug path).
  [[nodiscard]] std::uint64_t decrypt(const DgkCiphertext& c) const;

  [[nodiscard]] const DgkPublicKey& public_key() const { return pk_; }

 private:
  DgkPublicKey pk_;
  PC_SECRET BigInt p_, vp_;
  PC_SECRET BigInt gvp_;  // g^vp mod p, a generator of the order-u subgroup
  // Context for the secret modulus p, owned by this key: zeroize drops it,
  // and the last holder's drop wipes it (DESIGN §10).
  std::shared_ptr<const MontgomeryContext> mont_p_;
  // Discrete-log table over the (tiny) order-u subgroup: gvp_^m -> m.
  PC_SECRET std::unordered_map<std::string, std::uint64_t> dlog_table_;
};

struct DgkKeyPair {
  DgkPublicKey pk;
  DgkPrivateKey sk;
};

[[nodiscard]] DgkKeyPair generate_dgk_key(const DgkParams& params, Rng& rng);

}  // namespace pcl
