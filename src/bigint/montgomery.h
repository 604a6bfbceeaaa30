// Montgomery modular arithmetic over one CIOS kernel.
//
// Modular exponentiation dominates the protocol's CPU cost (every DGK bit
// encryption and zero test, and every Paillier encryption and decryption,
// runs one).  A
// MontgomeryContext holds a kern::Cios kernel (src/bigint/kernels/) built
// for its odd modulus and performs multiplication with cheap word-wise
// reductions instead of a full Knuth division per product.  The kernel's
// word count is fixed at construction from the modulus, so every odd
// modulus > 1, from 1 word up, runs the same code (DESIGN.md §12); the
// context reduces operands, converts between BigInt and limbs and meters
// the work.
//
// Exponentiation uses fixed-window (2^w) evaluation; a FixedBaseTable
// serves one base fixed ahead of time from the kernel's comb table
// (DESIGN.md §12).  Every context has
// one owner: a key builds the contexts for its moduli once, at
// construction (Paillier n², DGK n, and the private keys' p², q² and p),
// and holds them for its lifetime; BigInt::pow_mod and the Miller–Rabin
// test build one local to the call.  A context wipes its modulus and the
// kernel's constants when its last holder lets go, so a secret modulus
// lives only where zeroization reaches it (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <memory>

#include "bigint/bigint.h"
#include "bigint/kernels/cios.h"

namespace pcl {

class MontgomeryContext {
 public:
  /// Requires an odd modulus > 1; throws std::invalid_argument otherwise.
  explicit MontgomeryContext(BigInt modulus);
  /// Wipes the modulus; the kernel wipes its own words.
  ~MontgomeryContext();

  [[nodiscard]] const BigInt& modulus() const { return modulus_; }

  /// Full modular product a * b mod m: two Montgomery multiplies, replacing
  /// the double-width product + Knuth division of `(a * b).mod(m)` on
  /// ciphertext hot paths (Paillier add/encrypt, DGK add/encrypt/
  /// rerandomize).  Negative or unreduced operands are reduced first.
  [[nodiscard]] BigInt mul_mod(const BigInt& a, const BigInt& b) const;

  /// (base^exp) mod m for non-negative exp.  Counts obs::Op::kBigIntModExp
  /// (one per call) so callers holding a context directly are metered
  /// identically to BigInt::pow_mod.
  [[nodiscard]] BigInt pow(const BigInt& base, const BigInt& exp) const;

 private:
  friend class FixedBaseTable;

  /// Reference to `v` reduced into [0, m), materializing a copy in
  /// `storage` only when reduction is needed.
  [[nodiscard]] const BigInt& reduced(const BigInt& v, BigInt& storage) const;

  BigInt modulus_;
  kern::Cios kernel_;
};

/// base^exp mod m for one base fixed at construction and exponents of up
/// to exp_bits bits, from a comb table (kern::Cios::Comb) built once on the
/// context's kernel.  The table stays opaque here: its Montgomery-form
/// entries never reach BigInt.  Every evaluation costs the same number of
/// products, set by exp_bits alone (DESIGN.md §12).  Holds its context,
/// so the table can never outlive the kernel that reads it.
class FixedBaseTable {
 public:
  /// Builds the table for `base` (reduced into [0, m) first) and counts its
  /// products as kBigIntModMul.  Throws std::invalid_argument for a null
  /// context or exp_bits == 0.
  FixedBaseTable(std::shared_ptr<const MontgomeryContext> ctx,
                 const BigInt& base, std::size_t exp_bits);

  [[nodiscard]] std::size_t exp_bits() const { return comb_.exp_bits(); }

  /// base^exp mod m for 0 <= exp < 2^exp_bits(); throws
  /// std::invalid_argument otherwise.  Counts one kBigIntModExp and its
  /// products as kBigIntModMul, as MontgomeryContext::pow does.
  [[nodiscard]] BigInt pow(const BigInt& exp) const;

 private:
  static kern::Cios::Comb build(const MontgomeryContext& ctx,
                                const BigInt& base, std::size_t exp_bits);

  std::shared_ptr<const MontgomeryContext> ctx_;
  kern::Cios::Comb comb_;
};

}  // namespace pcl
