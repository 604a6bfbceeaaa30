// Random-number interfaces used across the crypto and protocol stack.
//
// Everything in this repository that needs randomness takes an `Rng&` so
// experiments are reproducible under a fixed seed while deployments can swap
// in `SystemRng` (backed by std::random_device) without touching callers.
#pragma once

#include <cstdint>
#include <random>

#include "bigint/bigint.h"

namespace pcl {

/// Abstract source of uniform 64-bit words plus BigInt helpers.
class Rng {
 public:
  virtual ~Rng() = default;

  virtual std::uint64_t next_u64() = 0;

  /// Uniform value in [0, bound); bound must be positive.
  [[nodiscard]] BigInt uniform_below(const BigInt& bound);
  /// Uniform value in [lo, hi] inclusive; requires lo <= hi.
  [[nodiscard]] BigInt uniform_in(const BigInt& lo, const BigInt& hi);
  /// Uniform value with exactly `bits` significant bits (top bit set).
  [[nodiscard]] BigInt random_bits_exact(std::size_t bits);
  /// Uniform value in [0, 2^bits).
  [[nodiscard]] BigInt random_bits(std::size_t bits);
  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform_double();
  /// Standard normal via Box–Muller.
  [[nodiscard]] double gaussian(double mean = 0.0, double stddev = 1.0);
  /// Uniform size_t in [0, n).
  [[nodiscard]] std::size_t index_below(std::size_t n);
};

/// Element `index` (0-based) of the splitmix64 sequence that starts at
/// `seed` (Steele, Lea & Flood, OOPSLA 2014): the seed advanced by index + 1
/// golden-ratio steps, then mixed.  Distinct (seed, index) pairs give
/// decorrelated words, which is how one seed fans out into the four words
/// of a DeterministicRng, one seed per party (derive_party_seed) and one
/// jitter per dial retry (dial_backoff).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t seed,
                                                 std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast deterministic PRNG for simulations and tests.
class DeterministicRng final : public Rng {
 public:
  explicit DeterministicRng(std::uint64_t seed);
  std::uint64_t next_u64() override;

 private:
  std::uint64_t state_[4];
};

/// Non-deterministic generator seeded from std::random_device.  Suitable for
/// demos; a hardened deployment would read the OS CSPRNG directly.
class SystemRng final : public Rng {
 public:
  SystemRng();
  std::uint64_t next_u64() override;

 private:
  DeterministicRng inner_;
};

}  // namespace pcl
