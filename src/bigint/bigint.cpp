#include "bigint/bigint.h"

#include "bigint/montgomery.h"
#include "obs/trace.h"

#include <algorithm>
#include <cctype>
#include <compare>
#include <ostream>
#include <stdexcept>

namespace pcl {

namespace {

constexpr std::uint64_t kBase = 1ull << 32;
// Below this limb count, schoolbook multiplication beats Karatsuba.
constexpr std::size_t kKaratsubaThreshold = 32;

}  // namespace

BigInt::BigInt(std::int64_t v) {
  const bool neg = v < 0;
  // Avoid UB on INT64_MIN: negate in unsigned space.
  std::uint64_t mag =
      neg ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
  while (mag != 0) {
    limbs_.push_back(static_cast<std::uint32_t>(mag & 0xffffffffu));
    mag >>= 32;
  }
  negative_ = neg && !limbs_.empty();
}

BigInt::BigInt(std::uint64_t v) {
  while (v != 0) {
    limbs_.push_back(static_cast<std::uint32_t>(v & 0xffffffffu));
    v >>= 32;
  }
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  const std::uint32_t top = limbs_.back();
  return (limbs_.size() - 1) * 32 +
         (32 - static_cast<std::size_t>(__builtin_clz(top)));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

bool BigInt::fits_uint64() const {
  return !negative_ && limbs_.size() <= 2;
}

bool BigInt::fits_int64() const {
  if (limbs_.size() > 2) return false;
  if (limbs_.size() < 2) return true;
  const std::uint64_t mag =
      (static_cast<std::uint64_t>(limbs_[1]) << 32) | limbs_[0];
  if (negative_) return mag <= (1ull << 63);
  return mag < (1ull << 63);
}

std::uint64_t BigInt::to_uint64() const {
  if (!fits_uint64()) throw std::overflow_error("BigInt does not fit uint64");
  std::uint64_t v = 0;
  if (limbs_.size() > 1) v = static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) v |= limbs_[0];
  return v;
}

std::int64_t BigInt::to_int64() const {
  if (!fits_int64()) throw std::overflow_error("BigInt does not fit int64");
  std::uint64_t mag = 0;
  if (limbs_.size() > 1) mag = static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) mag |= limbs_[0];
  if (negative_) return -static_cast<std::int64_t>(mag - 1) - 1;
  return static_cast<std::int64_t>(mag);
}

double BigInt::to_double() const {
  double v = 0;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    v = v * static_cast<double>(kBase) + static_cast<double>(*it);
  }
  return negative_ ? -v : v;
}

int BigInt::compare_magnitude(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_) {
    return a.negative_ ? std::strong_ordering::less
                       : std::strong_ordering::greater;
  }
  const int cmp = BigInt::compare_magnitude(a, b);
  const int signed_cmp = a.negative_ ? -cmp : cmp;
  if (signed_cmp < 0) return std::strong_ordering::less;
  if (signed_cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::vector<std::uint32_t> BigInt::add_magnitude(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  const auto& lo = a.size() >= b.size() ? b : a;
  const auto& hi = a.size() >= b.size() ? a : b;
  std::vector<std::uint32_t> out;
  out.reserve(hi.size() + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < hi.size(); ++i) {
    std::uint64_t sum = carry + hi[i];
    if (i < lo.size()) sum += lo[i];
    out.push_back(static_cast<std::uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

std::vector<std::uint32_t> BigInt::sub_magnitude(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow;
    if (i < b.size()) diff -= b[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<std::uint32_t>(diff));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  if (negative_ == rhs.negative_) {
    limbs_ = add_magnitude(limbs_, rhs.limbs_);
  } else {
    const int cmp = compare_magnitude(*this, rhs);
    if (cmp == 0) {
      limbs_.clear();
      negative_ = false;
      return *this;
    }
    if (cmp > 0) {
      limbs_ = sub_magnitude(limbs_, rhs.limbs_);
    } else {
      limbs_ = sub_magnitude(rhs.limbs_, limbs_);
      negative_ = rhs.negative_;
    }
  }
  trim();
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) { return *this += -rhs; }

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.limbs_.empty()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

std::vector<std::uint32_t> BigInt::mul_magnitude(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b) {
  if (a.empty() || b.empty()) return {};
  if (std::min(a.size(), b.size()) >= kKaratsubaThreshold) {
    return mul_karatsuba(a, b);
  }
  std::vector<std::uint32_t> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a[i];
    if (ai == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::uint64_t cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry) {
      const std::uint64_t cur = out[k] + carry;
      out[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<std::uint32_t> BigInt::mul_karatsuba(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b) {
  const std::size_t half = (std::max(a.size(), b.size()) + 1) / 2;
  const auto lo_part = [half](std::span<const std::uint32_t> v) {
    return v.subspan(0, std::min(half, v.size()));
  };
  const auto hi_part = [half](std::span<const std::uint32_t> v) {
    return v.size() > half ? v.subspan(half) : std::span<const std::uint32_t>{};
  };

  const auto to_vec = [](std::span<const std::uint32_t> v) {
    std::vector<std::uint32_t> out(v.begin(), v.end());
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  };

  const std::vector<std::uint32_t> a_lo = to_vec(lo_part(a));
  const std::vector<std::uint32_t> a_hi = to_vec(hi_part(a));
  const std::vector<std::uint32_t> b_lo = to_vec(lo_part(b));
  const std::vector<std::uint32_t> b_hi = to_vec(hi_part(b));

  const std::vector<std::uint32_t> z0 = mul_magnitude(a_lo, b_lo);
  const std::vector<std::uint32_t> z2 = mul_magnitude(a_hi, b_hi);
  const std::vector<std::uint32_t> a_sum = add_magnitude(a_lo, a_hi);
  const std::vector<std::uint32_t> b_sum = add_magnitude(b_lo, b_hi);
  std::vector<std::uint32_t> z1 = mul_magnitude(a_sum, b_sum);
  z1 = sub_magnitude(z1, z0);
  z1 = sub_magnitude(z1, z2);

  // out = z0 + z1 << (32*half) + z2 << (64*half)
  std::vector<std::uint32_t> out(
      std::max({z0.size(), z1.size() + half, z2.size() + 2 * half}) + 1, 0);
  const auto add_at = [&out](const std::vector<std::uint32_t>& v,
                             std::size_t offset) {
    std::uint64_t carry = 0;
    std::size_t i = 0;
    for (; i < v.size(); ++i) {
      const std::uint64_t cur = out[offset + i] + carry + v[i];
      out[offset + i] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    while (carry) {
      const std::uint64_t cur = out[offset + i] + carry;
      out[offset + i] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++i;
    }
  };
  add_at(z0, 0);
  add_at(z1, half);
  add_at(z2, 2 * half);
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt& BigInt::operator*=(const BigInt& rhs) {
  const bool neg = negative_ != rhs.negative_;
  limbs_ = mul_magnitude(limbs_, rhs.limbs_);
  negative_ = neg && !limbs_.empty();
  return *this;
}

// Knuth TAOCP vol. 2, Algorithm 4.3.1-D, base 2^32.
void BigInt::div_mod_magnitude(const std::vector<std::uint32_t>& a,
                               const std::vector<std::uint32_t>& b,
                               std::vector<std::uint32_t>& quotient,
                               std::vector<std::uint32_t>& remainder) {
  quotient.clear();
  remainder.clear();
  if (b.empty()) throw std::domain_error("division by zero");
  const int cmp = [&] {
    if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
    for (std::size_t i = a.size(); i-- > 0;) {
      if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return 0;
  }();
  if (cmp < 0) {
    remainder = a;
    return;
  }
  if (b.size() == 1) {
    // Short division.
    const std::uint64_t d = b[0];
    quotient.assign(a.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | a[i];
      quotient[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
    if (rem) remainder.push_back(static_cast<std::uint32_t>(rem));
    return;
  }

  // D1: normalize so the divisor's top limb has its high bit set.
  const int shift = __builtin_clz(b.back());
  const std::size_t n = b.size();
  const std::size_t m = a.size() - n;

  std::vector<std::uint32_t> u(a.size() + 1, 0);
  std::vector<std::uint32_t> v(n, 0);
  if (shift == 0) {
    std::copy(a.begin(), a.end(), u.begin());
    v = b;
  } else {
    for (std::size_t i = a.size(); i-- > 0;) {
      u[i + 1] |= static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(a[i]) << shift) >> 32);
      u[i] |= static_cast<std::uint32_t>(a[i] << shift);
    }
    for (std::size_t i = n; i-- > 0;) {
      v[i] = b[i] << shift;
      if (i > 0) v[i] |= b[i - 1] >> (32 - shift);
    }
  }

  quotient.assign(m + 1, 0);
  const std::uint64_t v_top = v[n - 1];
  const std::uint64_t v_next = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat.
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t q_hat = numerator / v_top;
    std::uint64_t r_hat = numerator % v_top;
    while (q_hat >= kBase ||
           q_hat * v_next > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat >= kBase) break;
    }
    // D4: multiply and subtract.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = q_hat * v[i] + carry;
      carry = product >> 32;
      const std::int64_t diff = static_cast<std::int64_t>(u[i + j]) -
                                static_cast<std::int64_t>(product &
                                                          0xffffffffu) -
                                borrow;
      if (diff < 0) {
        u[i + j] = static_cast<std::uint32_t>(diff + static_cast<std::int64_t>(kBase));
        borrow = 1;
      } else {
        u[i + j] = static_cast<std::uint32_t>(diff);
        borrow = 0;
      }
    }
    const std::int64_t top_diff = static_cast<std::int64_t>(u[j + n]) -
                                  static_cast<std::int64_t>(carry) - borrow;
    if (top_diff < 0) {
      // D6: add back (rare).
      u[j + n] = static_cast<std::uint32_t>(top_diff +
                                            static_cast<std::int64_t>(kBase));
      --q_hat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum = static_cast<std::uint64_t>(u[i + j]) + v[i] +
                                  add_carry;
        u[i + j] = static_cast<std::uint32_t>(sum & 0xffffffffu);
        add_carry = sum >> 32;
      }
      u[j + n] = static_cast<std::uint32_t>(u[j + n] + add_carry);
    } else {
      u[j + n] = static_cast<std::uint32_t>(top_diff);
    }
    quotient[j] = static_cast<std::uint32_t>(q_hat);
  }

  // D8: denormalize remainder.
  remainder.assign(n, 0);
  if (shift == 0) {
    std::copy(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n),
              remainder.begin());
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      remainder[i] = u[i] >> shift;
      remainder[i] |= static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(u[i + 1]) << (32 - shift)) & 0xffffffffu);
    }
  }
  while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
  while (!remainder.empty() && remainder.back() == 0) remainder.pop_back();
}

DivModResult BigInt::div_mod(const BigInt& a, const BigInt& b) {
  if (b.is_zero()) throw std::domain_error("division by zero");
  DivModResult out;
  div_mod_magnitude(a.limbs_, b.limbs_, out.quotient.limbs_,
                    out.remainder.limbs_);
  out.quotient.negative_ =
      (a.negative_ != b.negative_) && !out.quotient.limbs_.empty();
  out.remainder.negative_ = a.negative_ && !out.remainder.limbs_.empty();
  return out;
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).quotient;
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).remainder;
  return *this;
}

BigInt BigInt::mod(const BigInt& m) const {
  if (m.is_zero() || m.is_negative()) {
    throw std::domain_error("mod requires a positive modulus");
  }
  BigInt r = div_mod(*this, m).remainder;
  if (r.is_negative()) r += m;
  return r;
}

BigInt& BigInt::operator<<=(std::size_t bits) {
  if (limbs_.empty() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  std::vector<std::uint32_t> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t shifted = static_cast<std::uint64_t>(limbs_[i])
                                  << bit_shift;
    out[i + limb_shift] |= static_cast<std::uint32_t>(shifted & 0xffffffffu);
    out[i + limb_shift + 1] |= static_cast<std::uint32_t>(shifted >> 32);
  }
  limbs_ = std::move(out);
  trim();
  return *this;
}

BigInt& BigInt::operator>>=(std::size_t bits) {
  // Arithmetic on magnitude (we only use >> on non-negative values in
  // practice; for negatives this is magnitude shift, i.e. trunc toward zero).
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    negative_ = false;
    return *this;
  }
  const std::size_t bit_shift = bits % 32;
  std::vector<std::uint32_t> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out[i] = static_cast<std::uint32_t>(v & 0xffffffffu);
  }
  limbs_ = std::move(out);
  trim();
  return *this;
}

BigInt BigInt::from_limbs(std::vector<std::uint32_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.trim();
  return out;
}

void BigInt::zeroize() {
  if (!limbs_.empty()) {
    // Volatile writes so the compiler cannot elide the wipe as a dead store
    // ahead of the clear().  Only this allocation is scrubbed; temporaries
    // from earlier arithmetic are out of reach by design.
    volatile std::uint32_t* p = limbs_.data();
    for (std::size_t i = 0; i < limbs_.size(); ++i) p[i] = 0;
  }
  limbs_.clear();
  limbs_.shrink_to_fit();
  negative_ = false;
}

BigInt BigInt::pow_mod(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.is_zero() || m.is_negative()) {
    throw std::domain_error("pow_mod requires a positive modulus");
  }
  if (exp.is_negative()) {
    throw std::domain_error("pow_mod requires a non-negative exponent");
  }
  if (m == BigInt(1)) return BigInt(0);
  // Every odd modulus goes through the Montgomery kernel, on a context
  // local to the call: no protocol path calls pow_mod (keys own their
  // contexts), so nothing here is worth keeping between calls.  The context
  // meters kBigIntModExp (and kBigIntModMul per Montgomery multiply)
  // itself.
  if (m.is_odd()) {
    return MontgomeryContext(m).pow(base, exp);
  }
  obs::count(obs::Op::kBigIntModExp);
  BigInt result(1);
  BigInt b = base.mod(m);
  const std::size_t nbits = exp.bit_length();
  for (std::size_t i = 0; i < nbits; ++i) {
    if (exp.bit(i)) result = (result * b).mod(m);
    b = (b * b).mod(m);
    obs::count(obs::Op::kBigIntModMul, exp.bit(i) ? 2 : 1);
  }
  return result;
}

BigInt BigInt::pow(const BigInt& base, std::uint64_t exp) {
  BigInt result(1);
  BigInt b = base;
  while (exp != 0) {
    if (exp & 1u) result *= b;
    b *= b;
    exp >>= 1;
  }
  return result;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    BigInt r = div_mod(a, b).remainder;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt(0);
  return (a.abs() / gcd(a, b)) * b.abs();
}

ExtendedGcdResult BigInt::extended_gcd(const BigInt& a, const BigInt& b) {
  BigInt old_r = a, r = b;
  BigInt old_s(1), s(0);
  BigInt old_t(0), t(1);
  while (!r.is_zero()) {
    const DivModResult qr = div_mod(old_r, r);
    old_r = std::move(r);
    r = qr.remainder;
    BigInt next_s = old_s - qr.quotient * s;
    old_s = std::move(s);
    s = std::move(next_s);
    BigInt next_t = old_t - qr.quotient * t;
    old_t = std::move(t);
    t = std::move(next_t);
  }
  if (old_r.is_negative()) {
    old_r = -old_r;
    old_s = -old_s;
    old_t = -old_t;
  }
  return {std::move(old_r), std::move(old_s), std::move(old_t)};
}

BigInt BigInt::invert_mod(const BigInt& a, const BigInt& m) {
  if (m.is_zero() || m.is_negative()) {
    throw std::domain_error("invert_mod requires a positive modulus");
  }
  const ExtendedGcdResult eg = extended_gcd(a.mod(m), m);
  if (eg.g != BigInt(1)) {
    throw std::domain_error("invert_mod: value is not invertible");
  }
  return eg.x.mod(m);
}

BigInt BigInt::from_string(std::string_view s, int base) {
  if (base != 10 && base != 16) {
    throw std::invalid_argument("BigInt::from_string supports base 10 or 16");
  }
  std::size_t pos = 0;
  bool neg = false;
  if (pos < s.size() && (s[pos] == '+' || s[pos] == '-')) {
    neg = s[pos] == '-';
    ++pos;
  }
  if (base == 16 && s.size() >= pos + 2 && s[pos] == '0' &&
      (s[pos + 1] == 'x' || s[pos + 1] == 'X')) {
    pos += 2;
  }
  if (pos >= s.size()) throw std::invalid_argument("BigInt: empty numeral");
  BigInt out;
  const BigInt radix(static_cast<std::int64_t>(base));
  for (; pos < s.size(); ++pos) {
    const char c = s[pos];
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      throw std::invalid_argument("BigInt: invalid digit");
    }
    if (digit >= base) throw std::invalid_argument("BigInt: invalid digit");
    out = out * radix + BigInt(static_cast<std::int64_t>(digit));
  }
  if (neg && !out.is_zero()) out.negative_ = true;
  return out;
}

std::string BigInt::to_string(int base) const {
  if (base != 10 && base != 16) {
    throw std::invalid_argument("BigInt::to_string supports base 10 or 16");
  }
  if (is_zero()) return "0";
  std::string digits;
  BigInt v = abs();
  const BigInt radix(static_cast<std::int64_t>(base));
  static constexpr char kDigits[] = "0123456789abcdef";
  while (!v.is_zero()) {
    const DivModResult qr = div_mod(v, radix);
    digits.push_back(kDigits[qr.remainder.is_zero()
                                 ? 0
                                 : qr.remainder.limbs_[0]]);
    v = qr.quotient;
  }
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::vector<std::uint8_t> BigInt::to_bytes() const {
  std::vector<std::uint8_t> out;
  if (is_zero()) return out;
  out.reserve(limbs_.size() * 4);
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 24));
    out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 16));
    out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 8));
    out.push_back(static_cast<std::uint8_t>(limbs_[i]));
  }
  const auto first_nonzero = std::find_if(
      out.begin(), out.end(), [](std::uint8_t b) { return b != 0; });
  out.erase(out.begin(), first_nonzero);
  return out;
}

BigInt BigInt::from_bytes(std::span<const std::uint8_t> big_endian,
                          bool negative) {
  // One pass from the least significant (last) byte: byte i of that order
  // lands in limb i / 4 at bit 8 * (i % 4).
  BigInt out;
  out.limbs_.assign((big_endian.size() + 3) / 4, 0);
  std::size_t i = 0;
  for (auto it = big_endian.rbegin(); it != big_endian.rend(); ++it, ++i) {
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(*it) << (8 * (i % 4));
  }
  out.trim();
  out.negative_ = negative && !out.is_zero();
  return out;
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.to_string();
}

}  // namespace pcl
