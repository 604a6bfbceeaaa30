// CIOS (Coarsely Integrated Operand Scanning) Montgomery kernel.
//
// One class serves every odd modulus > 1.  Its word count W is fixed at
// construction from the modulus (W = ceil(bits / 64), from 1 word up) and
// the Montgomery radix is R = 2^(64*W).  The multiply and the reduction
// are fused into one W-iteration CIOS loop over 64-bit words with
// unsigned __int128 products (Koç, Acar, Kaliski, "Analyzing and Comparing
// Montgomery Multiplication Algorithms").  Every temporary is carved from
// the calling thread's one scratch buffer, which grows to the largest need
// it has served; each operation zeroes the words it used before returning,
// so no window table or accumulator (residues mod a possibly secret
// modulus) outlives its call.
//
// The Montgomery form is private to this class: callers pass ordinary-form
// values below the modulus and get canonical residues back, so R and the
// word count never leak into a result.  Each operation adds the number of
// Montgomery multiplies it performed to *mont_muls; that schedule (window
// table build, squarings, one product per window, the final conversion)
// depends only on the exponent's bit length (for a comb, on the table's
// exponent length), never on its bits or the width.
//
// For a base fixed ahead of time (the DGK randomizer base h) the kernel
// also builds a Lim–Lee comb (Lim and Lee, CRYPTO '94): a 2^kCombTeeth
// entry table the caller keeps, from which base^exp costs d squarings and
// d products for d = ceil(exp_bits / kCombTeeth) columns, against
// exp_bits squarings for `pow`.  The table is opaque: only the kernel that
// built it reads it, so the Montgomery form still never leaves this class.
//
// This header is intentionally BigInt-free: values cross as little-endian
// 32-bit limb spans (the BigInt magnitude format), keeping the kernels
// layer below bigint in the include DAG (lint rule PC010).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace pcl::kern {

class Cios {
 public:
  /// Teeth of every comb: 2^6 = 64 entries of W words each.
  static constexpr std::size_t kCombTeeth = 6;

  /// A comb table for one base and exponents of up to exp_bits() bits.
  /// With d = ceil(exp_bits / kCombTeeth) columns, entry j is
  /// base^(sum of 2^(i*d) over the set bits i of j) in Montgomery form;
  /// entry 0 is mont(1).  Move-only, so a table has one owner; its
  /// destructor zeroes the entries.
  class Comb {
   public:
    Comb(Comb&&) noexcept = default;
    Comb(const Comb&) = delete;
    Comb& operator=(const Comb&) = delete;
    Comb& operator=(Comb&&) = delete;
    ~Comb();

    /// The longest exponent the table serves, in bits.
    [[nodiscard]] std::size_t exp_bits() const { return exp_bits_; }

   private:
    friend class Cios;
    Comb(std::size_t exp_bits, std::size_t columns,
         std::vector<std::uint64_t> entries)
        : exp_bits_(exp_bits),
          columns_(columns),
          entries_(std::move(entries)) {}

    std::size_t exp_bits_;
    std::size_t columns_;  // d
    std::vector<std::uint64_t> entries_;
  };

  /// `modulus` is the trimmed little-endian limbs of an odd value > 1.
  /// Precomputes n' = -n^{-1} mod 2^64, R mod n and R^2 mod n by
  /// shift-and-reduce (no division needed at this layer).
  explicit Cios(std::span<const std::uint32_t> modulus);
  /// Zeroes n, n', R mod n and R^2 mod n: a kernel built for a secret
  /// modulus leaves none of them behind in freed memory.
  ~Cios();

  /// a * b mod n for a, b < n: to_mont(a), then one Montgomery multiply
  /// by b (two multiplies, no double-width intermediate).
  [[nodiscard]] std::vector<std::uint32_t> mul_mod(
      std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
      std::uint64_t* mont_muls) const;

  /// base^exp mod n for base < n by fixed-window evaluation; the window
  /// width grows with the exponent length, trading 2^(w-1) precomputed
  /// powers for bits/w fewer multiplications.
  [[nodiscard]] std::vector<std::uint32_t> pow(
      std::span<const std::uint32_t> base, std::span<const std::uint32_t> exp,
      std::uint64_t* mont_muls) const;

  /// Builds the comb for base < n and exponents of up to `exp_bits` >= 1
  /// bits (std::invalid_argument for 0): one to_mont, d squarings for each
  /// of the kCombTeeth - 1 higher teeth, and one product for each of the
  /// other 2^kCombTeeth - kCombTeeth - 1 entries.
  [[nodiscard]] Comb comb(std::span<const std::uint32_t> base,
                          std::size_t exp_bits,
                          std::uint64_t* mont_muls) const;

  /// base^exp mod n from a comb this kernel built for base, column by
  /// column: each column is one squaring and one product by the entry
  /// that exp's bits in that column select.  An all-zero column multiplies
  /// by entry 0 = mont(1), so every exponent, zero included, costs
  /// 2(d - 1) products and the final from_mont.  Throws
  /// std::invalid_argument when exp has more than comb.exp_bits() bits, and
  /// std::logic_error for a comb of another width.
  [[nodiscard]] std::vector<std::uint32_t> pow(
      const Comb& comb, std::span<const std::uint32_t> exp,
      std::uint64_t* mont_muls) const;

  /// The calling thread's scratch buffer (for tests), valid until the
  /// thread's next operation: all zeros between operations, since each one
  /// wipes the words it used.
  [[nodiscard]] static std::span<const std::uint64_t> thread_scratch();

 private:
  /// out = a * b * R^{-1} mod n (fused CIOS multiply + reduce).
  /// a, b < n; out may alias a or b; t is W + 2 words of scratch.
  void mont_mul(std::uint64_t* out, const std::uint64_t* a,
                const std::uint64_t* b, std::uint64_t* t) const;
  /// x = x * R mod n.
  void to_mont(std::uint64_t* x, std::uint64_t* t) const;
  /// x = x * R^{-1} mod n; `one` is W words of scratch.
  void from_mont(std::uint64_t* x, std::uint64_t* one,
                 std::uint64_t* t) const;

  std::vector<std::uint64_t> n_;
  std::uint64_t n0inv_ = 0;       // -n^{-1} mod 2^64
  std::vector<std::uint64_t> r1_;  // R mod n (Montgomery form of 1)
  std::vector<std::uint64_t> r2_;  // R^2 mod n (to_mont multiplier)
};

}  // namespace pcl::kern
