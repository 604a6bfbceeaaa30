// Arbitrary-precision signed integers for the private-consensus crypto stack.
//
// Representation: sign–magnitude with little-endian 32-bit limbs (64-bit
// intermediate arithmetic).  The class is a value type: cheap to move,
// copyable, totally ordered, hashable via to_bytes().
//
// The API covers exactly what Paillier/DGK need — ring arithmetic, modular
// exponentiation and inversion, gcd/lcm, primality testing, random
// generation, radix-10/16 conversion and byte serialization — and is fully
// unit-tested against native __int128 as an oracle for small values.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pcl {

class BigInt;

/// Quotient truncated toward zero and remainder with the dividend's sign,
/// satisfying a == q*b + r, |r| < |b|.
struct DivModResult;
/// g = gcd(a, b) = ax + by.
struct ExtendedGcdResult;

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  BigInt(std::int64_t v);   // NOLINT(google-explicit-constructor)
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)
  BigInt(int v) : BigInt(static_cast<std::int64_t>(v)) {}  // NOLINT
  // long long / unsigned long long differ from the fixed-width types on
  // LP64; delegate so integer literals of any width work unambiguously.
  BigInt(long long v)  // NOLINT(google-explicit-constructor)
      : BigInt(static_cast<std::int64_t>(v)) {}
  BigInt(unsigned long long v)  // NOLINT(google-explicit-constructor)
      : BigInt(static_cast<std::uint64_t>(v)) {}
  BigInt(unsigned v)  // NOLINT(google-explicit-constructor)
      : BigInt(static_cast<std::uint64_t>(v)) {}

  /// Parses decimal ("-123", "0") or, with base 16, hex ("0xdeadbeef" or
  /// bare digits).  Throws std::invalid_argument on malformed input.
  static BigInt from_string(std::string_view s, int base = 10);

  /// Unsigned big-endian magnitude; empty span means zero.
  static BigInt from_bytes(std::span<const std::uint8_t> big_endian,
                           bool negative = false);

  // --- observers -----------------------------------------------------------
  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_negative() const { return negative_; }
  [[nodiscard]] bool is_odd() const {
    return !limbs_.empty() && (limbs_[0] & 1u);
  }
  [[nodiscard]] bool is_even() const { return !is_odd(); }
  /// Number of significant bits in the magnitude (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;
  /// i-th bit of the magnitude (LSB = bit 0).
  [[nodiscard]] bool bit(std::size_t i) const;
  /// Fits in int64 / uint64?  to_* throw std::overflow_error otherwise.
  [[nodiscard]] bool fits_int64() const;
  [[nodiscard]] bool fits_uint64() const;
  [[nodiscard]] std::int64_t to_int64() const;
  [[nodiscard]] std::uint64_t to_uint64() const;
  [[nodiscard]] double to_double() const;

  [[nodiscard]] std::string to_string(int base = 10) const;
  /// Big-endian magnitude (no sign); empty for zero.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  /// Copy-free view of the magnitude as little-endian 32-bit limbs (no
  /// trailing zeros; empty for zero), valid while the BigInt is alive and
  /// unmodified.  This is how reduced values cross into the Montgomery
  /// kernel without a conversion allocation.
  [[nodiscard]] std::span<const std::uint32_t> limb_span() const {
    return limbs_;
  }
  /// Inverse of limb_span (magnitude only; trailing zeros are trimmed).
  [[nodiscard]] static BigInt from_limbs(std::vector<std::uint32_t> limbs);

  /// Overwrites the limb storage with zeros (through a volatile pointer so
  /// the wipe survives dead-store elimination), then resets to zero.  Used
  /// by private-key types to scrub key material before the memory is freed.
  void zeroize();

  // --- arithmetic -----------------------------------------------------------
  [[nodiscard]] BigInt operator-() const;
  [[nodiscard]] BigInt abs() const;

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  BigInt& operator/=(const BigInt& rhs);  // truncated toward zero
  BigInt& operator%=(const BigInt& rhs);  // sign follows dividend
  BigInt& operator<<=(std::size_t bits);
  BigInt& operator>>=(std::size_t bits);

  friend BigInt operator+(BigInt a, const BigInt& b) { return a += b; }
  friend BigInt operator-(BigInt a, const BigInt& b) { return a -= b; }
  friend BigInt operator*(BigInt a, const BigInt& b) { return a *= b; }
  friend BigInt operator/(BigInt a, const BigInt& b) { return a /= b; }
  friend BigInt operator%(BigInt a, const BigInt& b) { return a %= b; }
  friend BigInt operator<<(BigInt a, std::size_t bits) { return a <<= bits; }
  friend BigInt operator>>(BigInt a, std::size_t bits) { return a >>= bits; }

  /// Truncated division; throws std::domain_error on b == 0.
  [[nodiscard]] static DivModResult div_mod(const BigInt& a, const BigInt& b);

  /// Non-negative residue in [0, m); m must be positive.
  [[nodiscard]] BigInt mod(const BigInt& m) const;

  [[nodiscard]] friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.negative_ == b.negative_ && a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  // --- number theory --------------------------------------------------------
  /// (base^exp) mod m; exp >= 0, m > 0.
  [[nodiscard]] static BigInt pow_mod(const BigInt& base, const BigInt& exp,
                                      const BigInt& m);
  /// Plain power with small exponent (used by tests/encoding).
  [[nodiscard]] static BigInt pow(const BigInt& base, std::uint64_t exp);
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);
  [[nodiscard]] static BigInt lcm(const BigInt& a, const BigInt& b);
  [[nodiscard]] static ExtendedGcdResult extended_gcd(const BigInt& a,
                                                      const BigInt& b);
  /// Multiplicative inverse mod m; throws std::domain_error if gcd(a,m)!=1.
  [[nodiscard]] static BigInt invert_mod(const BigInt& a, const BigInt& m);

  friend std::ostream& operator<<(std::ostream& os, const BigInt& v);

 private:
  // Invariant: no trailing zero limbs; negative_ implies !limbs_.empty().
  std::vector<std::uint32_t> limbs_;
  bool negative_ = false;

  void trim();
  [[nodiscard]] static int compare_magnitude(const BigInt& a, const BigInt& b);
  static std::vector<std::uint32_t> add_magnitude(
      const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<std::uint32_t> sub_magnitude(
      const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> mul_magnitude(
      std::span<const std::uint32_t> a, std::span<const std::uint32_t> b);
  static std::vector<std::uint32_t> mul_karatsuba(
      std::span<const std::uint32_t> a, std::span<const std::uint32_t> b);
  // Knuth Algorithm D on magnitudes; b non-zero.
  static void div_mod_magnitude(const std::vector<std::uint32_t>& a,
                                const std::vector<std::uint32_t>& b,
                                std::vector<std::uint32_t>& quotient,
                                std::vector<std::uint32_t>& remainder);

  friend class BigIntTestPeer;
};

struct DivModResult {
  BigInt quotient;
  BigInt remainder;
};

struct ExtendedGcdResult {
  BigInt g, x, y;
};

}  // namespace pcl
