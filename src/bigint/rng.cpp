#include "bigint/rng.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace pcl {

BigInt Rng::uniform_below(const BigInt& bound) {
  if (bound.is_zero() || bound.is_negative()) {
    throw std::invalid_argument("uniform_below requires a positive bound");
  }
  const std::size_t bits = bound.bit_length();
  // Rejection sampling: expected < 2 draws.
  while (true) {
    BigInt candidate = random_bits(bits);
    if (candidate < bound) return candidate;
  }
}

BigInt Rng::uniform_in(const BigInt& lo, const BigInt& hi) {
  if (lo > hi) throw std::invalid_argument("uniform_in requires lo <= hi");
  return lo + uniform_below(hi - lo + BigInt(1));
}

BigInt Rng::random_bits(std::size_t bits) {
  if (bits == 0) return BigInt(0);
  std::vector<std::uint8_t> bytes((bits + 7) / 8);
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    const std::uint64_t word = next_u64();
    for (std::size_t j = 0; j < 8 && i + j < bytes.size(); ++j) {
      bytes[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
  }
  const std::size_t excess = bytes.size() * 8 - bits;
  bytes[0] = static_cast<std::uint8_t>(bytes[0] & (0xffu >> excess));
  return BigInt::from_bytes(bytes);
}

BigInt Rng::random_bits_exact(std::size_t bits) {
  if (bits == 0) throw std::invalid_argument("random_bits_exact: bits == 0");
  BigInt v = random_bits(bits);
  // Force the top bit so the value has exactly `bits` significant bits.
  BigInt top = BigInt(1);
  top <<= (bits - 1);
  if (v < top) v += top;
  return v;
}

double Rng::uniform_double() {
  // 53 random mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::gaussian(double mean, double stddev) {
  double u1 = uniform_double();
  while (u1 <= 0.0) u1 = uniform_double();
  const double u2 = uniform_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

std::size_t Rng::index_below(std::size_t n) {
  if (n == 0) throw std::invalid_argument("index_below requires n > 0");
  // Rejection to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return static_cast<std::size_t>(v % n);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

DeterministicRng::DeterministicRng(std::uint64_t seed) {
  for (std::uint64_t i = 0; i < 4; ++i) state_[i] = splitmix64(seed, i);
}

std::uint64_t DeterministicRng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

SystemRng::SystemRng()
    : inner_([] {
        std::random_device rd;
        return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
      }()) {}

std::uint64_t SystemRng::next_u64() { return inner_.next_u64(); }

}  // namespace pcl
