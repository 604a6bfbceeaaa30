// Montgomery modular arithmetic over one CIOS kernel.
//
// Modular exponentiation dominates the protocol's CPU cost (every DGK bit
// encryption, zero-test and Paillier operation is a pow_mod).  A
// MontgomeryContext holds a kern::Cios kernel (src/bigint/kernels/) built
// for its odd modulus and performs multiplication with cheap word-wise
// reductions instead of a full Knuth division per product.  The kernel's
// word count is fixed at construction from the modulus, so every odd
// modulus > 1, from 1 word up, runs the same code (DESIGN.md §12); the
// context reduces operands, converts between BigInt and limbs and meters
// the work.
//
// Exponentiation uses fixed-window (2^w) evaluation, and
// `MontgomeryContext::shared` memoizes contexts in a process-wide LRU
// cache keyed by modulus: the protocol hits the same public moduli (n, n²,
// DGK n) millions of times, so the per-modulus setup is paid once.
// BigInt::pow_mod routes every odd-modulus call through this
// automatically; bench_micro_crypto measures it.  A secret modulus (a
// Paillier p² or q², DGK p, a prime candidate during keygen) never enters
// the cache: its owner builds a private context, which wipes the modulus
// and the kernel's constants when the last holder lets go (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/kernels/cios.h"

namespace pcl {

class MontgomeryContext {
 public:
  /// Requires an odd modulus > 1; throws std::invalid_argument otherwise.
  explicit MontgomeryContext(BigInt modulus);
  /// Wipes the modulus; the kernel wipes its own words.
  ~MontgomeryContext();

  /// Process-wide memoized context for `modulus` (mutex-guarded; safe to
  /// call from concurrent lane workers).  Returns the same context for
  /// repeated lookups of the same modulus, so the Montgomery constants are
  /// computed once per modulus per process.  The cache is a true LRU
  /// bounded at kSharedCacheCapacity entries: key-generation churn (one
  /// fresh candidate modulus per Miller–Rabin trial) evicts only the
  /// least-recently-used contexts, so long-lived daemons neither
  /// accumulate dead moduli nor lose their steady-state protocol entries.
  /// Live shared_ptr holders keep their contexts valid across eviction.
  [[nodiscard]] static std::shared_ptr<const MontgomeryContext> shared(
      const BigInt& modulus);

  /// Bound on the shared-context LRU cache (exposed for tests).
  static constexpr std::size_t kSharedCacheCapacity = 64;

  /// The moduli the shared cache holds, newest first.  A lookup that
  /// inserts nothing and refreshes no entry (for tests).
  [[nodiscard]] static std::vector<BigInt> shared_moduli();

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
  /// Reference to `v` reduced into [0, m), materializing a copy in
  /// `storage` only when reduction is needed.
  [[nodiscard]] const BigInt& reduced(const BigInt& v, BigInt& storage) const;

  BigInt modulus_;
  kern::Cios kernel_;
};

}  // namespace pcl
