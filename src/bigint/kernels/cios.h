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
// depends only on the exponent's bit length, never on its bits or the
// width.
//
// This header is intentionally BigInt-free: values cross as little-endian
// 32-bit limb spans (the BigInt magnitude format), keeping the kernels
// layer below bigint in the include DAG (lint rule PC010).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pcl::kern {

class Cios {
 public:
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
