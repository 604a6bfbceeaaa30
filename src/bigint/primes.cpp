#include "bigint/primes.h"

#include <array>
#include <stdexcept>

#include "bigint/montgomery.h"

namespace pcl {

namespace {

constexpr std::array<std::uint32_t, 25> kSmallPrimes = {
    2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41,
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97};

/// One Miller–Rabin round with the given base on n = ctx.modulus(); n odd,
/// n > 3.
bool miller_rabin_round(const MontgomeryContext& ctx, const BigInt& base,
                        const BigInt& n_minus_1, const BigInt& odd_part,
                        std::size_t two_exponent) {
  const BigInt& n = ctx.modulus();
  BigInt x = ctx.pow(base, odd_part);
  if (x == BigInt(1) || x == n_minus_1) return true;
  for (std::size_t i = 1; i < two_exponent; ++i) {
    x = (x * x).mod(n);
    if (x == n_minus_1) return true;
    if (x == BigInt(1)) return false;
  }
  return false;
}

}  // namespace

bool is_probable_prime(const BigInt& n, Rng& rng, int rounds) {
  if (n < BigInt(2)) return false;
  for (const std::uint32_t p : kSmallPrimes) {
    const BigInt bp(static_cast<std::uint64_t>(p));
    if (n == bp) return true;
    if (n.mod(bp).is_zero()) return false;
  }

  // A candidate may become a secret prime: its context is local to the call
  // and wiped on return.
  const MontgomeryContext ctx(n);
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt odd_part = n_minus_1;
  std::size_t two_exponent = 0;
  while (odd_part.is_even()) {
    odd_part >>= 1;
    ++two_exponent;
  }

  // Deterministic bases cover all n < 3.3e24 (Sorenson–Webster); combined
  // with random rounds below this is overkill but cheap at our key sizes.
  static const std::array<std::uint64_t, 13> kFixedBases = {
      2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41};
  for (const std::uint64_t b : kFixedBases) {
    const BigInt base(b);
    if (base >= n_minus_1) continue;
    if (!miller_rabin_round(ctx, base, n_minus_1, odd_part, two_exponent)) {
      return false;
    }
  }
  for (int i = 0; i < rounds; ++i) {
    const BigInt base = rng.uniform_in(BigInt(2), n - BigInt(2));
    if (!miller_rabin_round(ctx, base, n_minus_1, odd_part, two_exponent)) {
      return false;
    }
  }
  return true;
}

BigInt random_prime(std::size_t bits, Rng& rng) {
  if (bits < 2) throw std::invalid_argument("random_prime: bits must be >= 2");
  while (true) {
    BigInt candidate = rng.random_bits_exact(bits);
    if (candidate.is_even()) candidate += BigInt(1);
    if (candidate.bit_length() != bits) continue;  // +1 overflowed the width
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

BigInt random_prime_with_factor(std::size_t bits, const BigInt& factor,
                                Rng& rng) {
  if (factor.is_zero() || factor.is_negative()) {
    throw std::invalid_argument("random_prime_with_factor: bad factor");
  }
  const std::size_t factor_bits = factor.bit_length();
  if (bits <= factor_bits + 1) {
    throw std::invalid_argument(
        "random_prime_with_factor: bits too small for factor");
  }
  const BigInt two_factor = factor * BigInt(2);
  while (true) {
    // p = 2 * factor * f + 1 with f sized so p has exactly `bits` bits.
    BigInt f = rng.random_bits_exact(bits - factor_bits - 1);
    BigInt p = two_factor * f + BigInt(1);
    if (p.bit_length() != bits) continue;
    if (is_probable_prime(p, rng)) return p;
  }
}

BigInt next_prime(BigInt n, Rng& rng) {
  if (n < BigInt(2)) return BigInt(2);
  n += BigInt(1);
  if (n.is_even()) n += BigInt(1);
  while (!is_probable_prime(n, rng)) n += BigInt(2);
  return n;
}

}  // namespace pcl
