#include "crypto/paillier.h"

#include <stdexcept>
#include <utility>

#include "bigint/montgomery.h"
#include "bigint/primes.h"
#include "obs/trace.h"

namespace pcl {
namespace {

// The context a key built for one of its moduli.  A default-constructed
// key has none, nor has a zeroized private key: their operations throw here
// instead of dereferencing null.
const MontgomeryContext& context_of(
    const std::shared_ptr<const MontgomeryContext>& ctx) {
  if (ctx == nullptr) throw std::logic_error("Paillier key has no modulus");
  return *ctx;
}

}  // namespace

PaillierPublicKey::PaillierPublicKey(BigInt n)
    : n_(std::move(n)), n_squared_(n_ * n_) {
  if (n_ < BigInt(4)) {
    throw std::invalid_argument("Paillier modulus too small");
  }
  // An even n gives an even n², which the context rejects.
  mont_n_squared_ = std::make_shared<const MontgomeryContext>(n_squared_);
}

PaillierCiphertext PaillierPublicKey::encrypt_with_randomness(
    const BigInt& m, const BigInt& r) const {
  obs::count(obs::Op::kPaillierEncrypt);
  const BigInt m_mod = m.mod(n_);
  // With g = n + 1: g^m = 1 + m*n (mod n^2), avoiding one exponentiation.
  const BigInt g_to_m = (BigInt(1) + m_mod * n_).mod(n_squared_);
  const MontgomeryContext& ctx = context_of(mont_n_squared_);
  const BigInt r_to_n = ctx.pow(r, n_);
  return {ctx.mul_mod(g_to_m, r_to_n)};
}

PaillierCiphertext PaillierPublicKey::encrypt(const BigInt& m,
                                              Rng& rng) const {
  BigInt r = rng.uniform_in(BigInt(1), n_ - BigInt(1));
  while (BigInt::gcd(r, n_) != BigInt(1)) {
    r = rng.uniform_in(BigInt(1), n_ - BigInt(1));
  }
  return encrypt_with_randomness(m, r);
}

BigInt PaillierPublicKey::randomizer_power(Rng& rng) const {
  // The exact draw schedule of encrypt(), so a precomputed power replays
  // the same Rng positions the inline path would consume.
  BigInt r = rng.uniform_in(BigInt(1), n_ - BigInt(1));
  while (BigInt::gcd(r, n_) != BigInt(1)) {
    r = rng.uniform_in(BigInt(1), n_ - BigInt(1));
  }
  return context_of(mont_n_squared_).pow(r, n_);
}

PaillierCiphertext PaillierPublicKey::encrypt_with_power(
    const BigInt& m, const BigInt& r_to_n) const {
  obs::count(obs::Op::kPaillierEncrypt);
  const BigInt g_to_m = (BigInt(1) + m.mod(n_) * n_).mod(n_squared_);
  return {context_of(mont_n_squared_).mul_mod(g_to_m, r_to_n)};
}

PaillierCiphertext PaillierPublicKey::compose_plain(
    const PaillierCiphertext& c, const BigInt& delta) const {
  obs::count(obs::Op::kPaillierAdd);
  const BigInt g_to_d = (BigInt(1) + delta.mod(n_) * n_).mod(n_squared_);
  return {context_of(mont_n_squared_).mul_mod(c.value, g_to_d)};
}

PaillierCiphertext PaillierPublicKey::add(const PaillierCiphertext& c1,
                                          const PaillierCiphertext& c2) const {
  obs::count(obs::Op::kPaillierAdd);
  return {context_of(mont_n_squared_).mul_mod(c1.value, c2.value)};
}

PaillierCiphertext PaillierPublicKey::scalar_mul(const PaillierCiphertext& c,
                                                 const BigInt& a) const {
  obs::count(obs::Op::kPaillierScalarMul);
  return {context_of(mont_n_squared_).pow(c.value, a.mod(n_))};
}

PaillierCiphertext PaillierPublicKey::negate(const PaillierCiphertext& c) const {
  return scalar_mul(c, n_ - BigInt(1));
}

PaillierCiphertext PaillierPublicKey::rerandomize(const PaillierCiphertext& c,
                                                  Rng& rng) const {
  const PaillierCiphertext zero = encrypt(BigInt(0), rng);
  return add(c, zero);
}

BigInt PaillierPublicKey::decode_signed(const BigInt& residue) const {
  BigInt half = n_;
  half >>= 1;
  if (residue > half) return residue - n_;
  return residue;
}

PaillierPrivateKey::PaillierPrivateKey(const PaillierPublicKey& pk, BigInt p,
                                       BigInt q)
    : pk_(pk), p_(std::move(p)), q_(std::move(q)) {
  // pc_declassify (this whole block): key construction runs once, offline,
  // before the key is used in any adversary-observable exchange, so its
  // variable-time arithmetic (invert_mod is Euclid-family) and validation
  // branches leak nothing an online attacker can measure.
  if (pc_declassify(p_ * q_ != pk_.n())) {
    throw std::invalid_argument("Paillier private key does not match modulus");
  }
  p_squared_ = p_ * p_;
  q_squared_ = q_ * q_;
  // With g = n + 1, c^(p-1) = 1 + m*n*(p-1) (mod p^2), so
  // L_p(c^(p-1) mod p^2) = m*q*(p-1) = -m*q (mod p): h_p undoes the -q.
  hp_ = pc_declassify(BigInt::invert_mod((-q_).mod(p_), p_));
  hq_ = pc_declassify(BigInt::invert_mod((-p_).mod(q_), q_));
  q_inv_p_ = pc_declassify(BigInt::invert_mod(q_, p_));
  // The key owns the contexts for its secret moduli; zeroize drops them.
  mont_p_squared_ = std::make_shared<const MontgomeryContext>(p_squared_);
  mont_q_squared_ = std::make_shared<const MontgomeryContext>(q_squared_);
}

void PaillierPrivateKey::zeroize() {
  p_.zeroize();
  q_.zeroize();
  p_squared_.zeroize();
  q_squared_.zeroize();
  hp_.zeroize();
  hq_.zeroize();
  q_inv_p_.zeroize();
  mont_p_squared_.reset();
  mont_q_squared_.reset();
}

namespace {

/// m mod r from c, for one prime factor r of n (Paillier '99, Sec. 7):
/// L_r(c^(r-1) mod r^2) * h_r mod r, with L_r(x) = (x - 1) / r.  `ctx` is
/// the key's context for r^2.
BigInt decrypt_mod_factor(const MontgomeryContext& ctx, const BigInt& c,
                          const BigInt& r, const BigInt& h_r) {
  const BigInt x = ctx.pow(c.mod(ctx.modulus()), r - BigInt(1));
  return (((x - BigInt(1)) / r) * h_r).mod(r);
}

}  // namespace

BigInt PaillierPrivateKey::decrypt_raw(const PaillierCiphertext& c) const {
  if (c.value <= BigInt(0) || c.value >= pk_.n_squared()) {
    throw std::invalid_argument("Paillier ciphertext out of range");
  }
  obs::count(obs::Op::kPaillierDecrypt);
  const BigInt mp =
      decrypt_mod_factor(context_of(mont_p_squared_), c.value, p_, hp_);
  const BigInt mq =
      decrypt_mod_factor(context_of(mont_q_squared_), c.value, q_, hq_);
  // Garner recombination mod n: m = mq + q * ((mp - mq) * q^-1 mod p).
  return mq + q_ * ((mp - mq) * q_inv_p_).mod(p_);
}

BigInt PaillierPrivateKey::decrypt(const PaillierCiphertext& c) const {
  return pk_.decode_signed(decrypt_raw(c));
}

PaillierKeyPair generate_paillier_key(std::size_t key_bits, Rng& rng) {
  if (key_bits < 16) {
    throw std::invalid_argument("Paillier key must be at least 16 bits");
  }
  while (true) {
    const std::size_t half = key_bits / 2;
    const BigInt p = random_prime(half, rng);
    const BigInt q = random_prime(key_bits - half, rng);
    if (p == q) continue;
    const BigInt n = p * q;
    if (n.bit_length() != key_bits) continue;
    // Standard requirement: gcd(n, (p-1)(q-1)) == 1.
    if (BigInt::gcd(n, (p - BigInt(1)) * (q - BigInt(1))) != BigInt(1)) {
      continue;
    }
    PaillierPublicKey pk(n);
    PaillierPrivateKey sk(pk, p, q);
    return {std::move(pk), std::move(sk)};
  }
}

}  // namespace pcl
