#include "bigint/kernels/cios.h"

#include <bit>
#include <stdexcept>
#include <string>

namespace pcl::kern {
namespace {

using u128 = unsigned __int128;

// Window width for fixed-window exponentiation: balances the 2^(w-1) table
// build against bits/w window multiplications (standard break-even points).
std::size_t window_bits_for(std::size_t exp_bits) {
  if (exp_bits <= 6) return 1;
  if (exp_bits <= 24) return 2;
  if (exp_bits <= 80) return 3;
  if (exp_bits <= 240) return 4;
  if (exp_bits <= 768) return 5;
  return 6;
}

/// a < b over w words?
bool less_than(const std::uint64_t* a, const std::uint64_t* b,
               std::size_t w) {
  for (std::size_t i = w; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

/// out = a - b mod 2^(64w) (out may alias a).
void sub(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
         std::size_t w) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const std::uint64_t ai = a[i];
    const std::uint64_t d = ai - b[i] - borrow;
    borrow = (ai < b[i] || (borrow != 0 && ai == b[i])) ? 1 : 0;
    out[i] = d;
  }
}

/// a = 2*a mod n (a < n, both w words).
void double_mod(std::uint64_t* a, const std::uint64_t* n, std::size_t w) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const std::uint64_t v = a[i];
    a[i] = (v << 1) | carry;
    carry = v >> 63;
  }
  if (carry != 0 || !less_than(a, n, w)) sub(a, a, n, w);
}

void copy(const std::uint64_t* from, std::uint64_t* to, std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) to[i] = from[i];
}

/// Packs 32-bit limbs (at most 2w of them) into w 64-bit words.
void load_words(std::span<const std::uint32_t> limbs, std::uint64_t* out,
                std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    const std::uint64_t lo = 2 * i < limbs.size() ? limbs[2 * i] : 0;
    const std::uint64_t hi = 2 * i + 1 < limbs.size() ? limbs[2 * i + 1] : 0;
    out[i] = lo | (hi << 32);
  }
}

/// Unpacks w words into trimmed 32-bit limbs.
std::vector<std::uint32_t> store_limbs(const std::uint64_t* words,
                                       std::size_t w) {
  std::vector<std::uint32_t> out(2 * w);
  for (std::size_t i = 0; i < w; ++i) {
    out[2 * i] = static_cast<std::uint32_t>(words[i]);
    out[2 * i + 1] = static_cast<std::uint32_t>(words[i] >> 32);
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

/// Bit length of a little-endian limb span (0 for zero).
std::size_t bit_length(std::span<const std::uint32_t> limbs) {
  std::size_t top = limbs.size();
  while (top > 0 && limbs[top - 1] == 0) --top;
  if (top == 0) return 0;
  return 32 * (top - 1) +
         static_cast<std::size_t>(std::bit_width(limbs[top - 1]));
}

bool exp_bit(std::span<const std::uint32_t> exp, std::size_t bit) {
  const std::size_t limb = bit / 32;
  if (limb >= exp.size()) return false;
  return (exp[limb] >> (bit % 32)) & 1u;
}

/// Zeroes `words` through a volatile pointer, so the stores survive as
/// dead stores into memory about to be freed or reused.
void wipe(std::span<std::uint64_t> words) {
  volatile std::uint64_t* p = words.data();
  for (std::size_t i = 0; i < words.size(); ++i) p[i] = 0;
}

/// The calling thread's one scratch buffer.  mul_mod, pow and comb never
/// call each other (nor themselves), so at most one operation per thread
/// holds it at a time.
std::vector<std::uint64_t>& thread_buffer() {
  thread_local std::vector<std::uint64_t> words;
  return words;
}

/// One operation's temporaries, carved off the front of the thread's
/// buffer (grown first when it is shorter than the operation needs).  The
/// destructor zeroes every word handed out.
class Scratch {
 public:
  explicit Scratch(std::size_t words)
      : buffer_(thread_buffer()), reserved_(words) {
    if (buffer_.size() < words) buffer_.resize(words);
  }
  ~Scratch() { wipe({buffer_.data(), used_}); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// Carves `words` words off the reservation.  Throws std::logic_error
  /// past its end (a kernel sizing bug, not a runtime condition).
  [[nodiscard]] std::uint64_t* carve(std::size_t words) {
    if (words > reserved_ - used_) {
      throw std::logic_error("kernel scratch exhausted (kernel sizing bug)");
    }
    std::uint64_t* out = buffer_.data() + used_;
    used_ += words;
    return out;
  }

 private:
  std::vector<std::uint64_t>& buffer_;
  std::size_t reserved_;
  std::size_t used_ = 0;
};

}  // namespace

Cios::Cios(std::span<const std::uint32_t> modulus)
    : n_((modulus.size() + 1) / 2), r1_(n_.size()), r2_(n_.size()) {
  const std::size_t w = n_.size();
  load_words(modulus, n_.data(), w);
  // Newton iteration on the low word: each step doubles the number of
  // correct low bits of n^{-1} mod 2^64.
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2u - n_[0] * inv;
  n0inv_ = ~inv + 1u;  // -inv mod 2^64

  // r1 = R mod n via 64*w doublings of 1 (< n, as n > 1); r2 = R^2 mod n
  // via another 64*w doublings of r1.  One-time cost per context, paid by
  // its owner (a key builds its contexts once, at construction).
  r1_[0] = 1;
  for (std::size_t i = 0; i < 64 * w; ++i) {
    double_mod(r1_.data(), n_.data(), w);
  }
  r2_ = r1_;
  for (std::size_t i = 0; i < 64 * w; ++i) {
    double_mod(r2_.data(), n_.data(), w);
  }
}

Cios::~Cios() {
  wipe(n_);
  wipe(r1_);
  wipe(r2_);
  *static_cast<volatile std::uint64_t*>(&n0inv_) = 0;
}

void Cios::mont_mul(std::uint64_t* out, const std::uint64_t* a,
                    const std::uint64_t* b, std::uint64_t* t) const {
  // Locals, not members: stores through t may alias any uint64_t, so
  // member reads would be reloaded after each one.
  const std::size_t w = n_.size();
  const std::uint64_t* n = n_.data();
  const std::uint64_t n0inv = n0inv_;
  for (std::size_t i = 0; i <= w; ++i) t[i] = 0;
  for (std::size_t i = 0; i < w; ++i) {
    // One fused pass: t = (t + a*b[i] + m*n) / 2^64, with m chosen from
    // the would-be low word so the division is exact.  The a*b[i] and
    // m*n chains keep separate carries (each bounded by 2^64 - 1, so the
    // per-word sums never overflow the 128-bit accumulators); fusing
    // them halves the loads/stores of t versus two passes.
    const std::uint64_t bi = b[i];
    u128 s1 = static_cast<u128>(a[0]) * bi + t[0];
    const std::uint64_t m = static_cast<std::uint64_t>(s1) * n0inv;
    u128 s2 = static_cast<u128>(m) * n[0] + static_cast<std::uint64_t>(s1);
    u128 c1 = s1 >> 64;
    u128 c2 = s2 >> 64;
    for (std::size_t j = 1; j < w; ++j) {
      s1 = static_cast<u128>(a[j]) * bi + t[j] +
           static_cast<std::uint64_t>(c1);
      c1 = s1 >> 64;
      s2 = static_cast<u128>(m) * n[j] + static_cast<std::uint64_t>(s1) +
           static_cast<std::uint64_t>(c2);
      c2 = s2 >> 64;
      t[j - 1] = static_cast<std::uint64_t>(s2);
    }
    // Words w and w+1 of the sum: the invariant t < 2n keeps the new top
    // word in {0, 1}.
    const u128 top = static_cast<u128>(t[w]) +
                     static_cast<std::uint64_t>(c1) +
                     static_cast<std::uint64_t>(c2);
    t[w - 1] = static_cast<std::uint64_t>(top);
    t[w] = static_cast<std::uint64_t>(top >> 64);
  }
  // Final subtraction: t in [0, 2n), one conditional subtract folds it
  // into [0, n).  (Not constant-time: one data-dependent branch.)
  if (t[w] != 0 || !less_than(t, n, w)) {
    sub(out, t, n, w);
  } else {
    copy(t, out, w);
  }
}

void Cios::to_mont(std::uint64_t* x, std::uint64_t* t) const {
  mont_mul(x, x, r2_.data(), t);
}

void Cios::from_mont(std::uint64_t* x, std::uint64_t* one,
                     std::uint64_t* t) const {
  one[0] = 1;
  for (std::size_t i = 1; i < n_.size(); ++i) one[i] = 0;
  mont_mul(x, x, one, t);  // x * 1 * R^{-1}
}

std::vector<std::uint32_t> Cios::mul_mod(std::span<const std::uint32_t> a,
                                         std::span<const std::uint32_t> b,
                                         std::uint64_t* mont_muls) const {
  const std::size_t w = n_.size();
  Scratch scratch(3 * w + 2);
  std::uint64_t* wa = scratch.carve(w);
  std::uint64_t* wb = scratch.carve(w);
  std::uint64_t* t = scratch.carve(w + 2);
  load_words(a, wa, w);
  load_words(b, wb, w);
  // aR = a * R, then aR * b * R^{-1} = a * b mod n.
  to_mont(wa, t);
  mont_mul(wa, wa, wb, t);
  *mont_muls += 2;
  return store_limbs(wa, w);
}

std::vector<std::uint32_t> Cios::pow(std::span<const std::uint32_t> base,
                                     std::span<const std::uint32_t> exp,
                                     std::uint64_t* mont_muls) const {
  const std::size_t w = n_.size();
  const std::size_t exp_bits = bit_length(exp);
  // table[v] = base^v in Montgomery form, v in [0, 2^window); a zero
  // exponent builds none.
  const std::size_t window = window_bits_for(exp_bits);
  const std::size_t table_size = exp_bits == 0 ? 0 : std::size_t{1} << window;
  Scratch scratch((table_size + 3) * w + 2);
  std::uint64_t* t = scratch.carve(w + 2);
  std::uint64_t* table = scratch.carve(table_size * w);
  std::uint64_t* acc = scratch.carve(w);
  std::uint64_t* one = scratch.carve(w);
  std::uint64_t muls = 1;  // the final from_mont

  if (exp_bits == 0) {
    copy(r1_.data(), acc, w);  // base^0 = mont(1)
  } else {
    copy(r1_.data(), table, w);
    load_words(base, table + w, w);
    to_mont(table + w, t);
    ++muls;
    for (std::size_t v = 2; v < table_size; ++v) {
      mont_mul(table + v * w, table + (v - 1) * w, table + w, t);
      ++muls;
    }

    const auto window_value = [&](std::size_t wi) {
      std::size_t v = 0;
      for (std::size_t j = window; j-- > 0;) {
        const std::size_t bit = wi * window + j;
        v = (v << 1) | (bit < exp_bits && exp_bit(exp, bit) ? 1u : 0u);
      }
      return v;
    };
    const std::size_t windows = (exp_bits + window - 1) / window;
    copy(table + window_value(windows - 1) * w, acc, w);
    for (std::size_t wi = windows - 1; wi-- > 0;) {
      for (std::size_t j = 0; j < window; ++j) {
        mont_mul(acc, acc, acc, t);
        ++muls;
      }
      // A zero window multiplies by table[0] = mont(1), so the count
      // depends on the exponent's length alone.
      mont_mul(acc, acc, table + window_value(wi) * w, t);
      ++muls;
    }
  }
  from_mont(acc, one, t);
  *mont_muls += muls;
  return store_limbs(acc, w);
}

Cios::Comb::~Comb() { wipe(entries_); }

Cios::Comb Cios::comb(std::span<const std::uint32_t> base,
                      std::size_t exp_bits, std::uint64_t* mont_muls) const {
  if (exp_bits == 0) {
    throw std::invalid_argument("comb: exponent length must be positive");
  }
  const std::size_t w = n_.size();
  const std::size_t columns = (exp_bits + kCombTeeth - 1) / kCombTeeth;
  constexpr std::size_t kEntries = std::size_t{1} << kCombTeeth;
  std::vector<std::uint64_t> entries(kEntries * w);
  Scratch scratch(w + 2);
  std::uint64_t* t = scratch.carve(w + 2);
  std::uint64_t* e = entries.data();
  copy(r1_.data(), e, w);
  load_words(base, e + w, w);
  to_mont(e + w, t);
  std::uint64_t muls = 1;
  // Tooth i is base^(2^(i*d)): the previous tooth squared d times.
  for (std::size_t i = 1; i < kCombTeeth; ++i) {
    std::uint64_t* tooth = e + (std::size_t{1} << i) * w;
    copy(e + (std::size_t{1} << (i - 1)) * w, tooth, w);
    for (std::size_t k = 0; k < columns; ++k) mont_mul(tooth, tooth, tooth, t);
    muls += columns;
  }
  // Every other entry is the entry without its lowest bit times that
  // bit's tooth.
  for (std::size_t j = 3; j < kEntries; ++j) {
    const std::size_t low = j & (~j + 1);
    if (low == j) continue;
    mont_mul(e + j * w, e + (j - low) * w, e + low * w, t);
    ++muls;
  }
  *mont_muls += muls;
  return Comb(exp_bits, columns, std::move(entries));
}

std::vector<std::uint32_t> Cios::pow(const Comb& comb,
                                     std::span<const std::uint32_t> exp,
                                     std::uint64_t* mont_muls) const {
  const std::size_t w = n_.size();
  if (comb.entries_.size() != (std::size_t{1} << kCombTeeth) * w) {
    throw std::logic_error("comb: table built for another modulus width");
  }
  if (bit_length(exp) > comb.exp_bits_) {
    throw std::invalid_argument("comb: exponent longer than the table's " +
                                std::to_string(comb.exp_bits_) + " bits");
  }
  const std::size_t columns = comb.columns_;
  const std::uint64_t* table = comb.entries_.data();
  Scratch scratch(3 * w + 2);
  std::uint64_t* t = scratch.carve(w + 2);
  std::uint64_t* acc = scratch.carve(w);
  std::uint64_t* one = scratch.carve(w);
  // Column c selects the entry whose bit i is exp's bit c + i*d.
  const auto column = [&](std::size_t c) {
    std::size_t v = 0;
    for (std::size_t i = kCombTeeth; i-- > 0;) {
      v = (v << 1) | (exp_bit(exp, c + i * columns) ? 1u : 0u);
    }
    return v;
  };
  copy(table + column(columns - 1) * w, acc, w);
  for (std::size_t c = columns - 1; c-- > 0;) {
    mont_mul(acc, acc, acc, t);
    mont_mul(acc, acc, table + column(c) * w, t);
  }
  from_mont(acc, one, t);
  *mont_muls += 2 * (columns - 1) + 1;
  return store_limbs(acc, w);
}

std::span<const std::uint64_t> Cios::thread_scratch() {
  return thread_buffer();
}

}  // namespace pcl::kern
