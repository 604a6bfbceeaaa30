#include "crypto/dgk.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "bigint/montgomery.h"
#include "bigint/primes.h"
#include "obs/trace.h"

namespace pcl {
namespace {

// A context or table a key built for one of its moduli.  A
// default-constructed key has none, nor has a zeroized private key: their
// operations throw here instead of dereferencing null.
template <class Built>
const Built& context_of(const std::shared_ptr<const Built>& built) {
  if (built == nullptr) throw std::logic_error("DGK key has no modulus");
  return *built;
}

void require_plaintext(const BigInt& m, const BigInt& u) {
  if (m.is_negative() || m >= u) {
    throw std::invalid_argument("DGK plaintext outside [0, u)");
  }
}

}  // namespace

DgkPublicKey::DgkPublicKey(BigInt n, BigInt g, BigInt h, BigInt u,
                           std::size_t v_bits)
    : n_(std::move(n)),
      g_(std::move(g)),
      h_(std::move(h)),
      u_(std::move(u)),
      v_bits_(v_bits),
      randomizer_bits_(2 * v_bits + 32),
      mont_n_(std::make_shared<const MontgomeryContext>(n_)),
      h_table_(std::make_shared<const FixedBaseTable>(mont_n_, h_,
                                                      randomizer_bits_)) {}

DgkCiphertext DgkPublicKey::encrypt(const BigInt& m, Rng& rng) const {
  require_plaintext(m, u_);
  return encrypt_with_power(m, randomizer_power(rng));
}

DgkCiphertext DgkPublicKey::encrypt(std::uint64_t m, Rng& rng) const {
  return encrypt(BigInt(m), rng);
}

BigInt DgkPublicKey::draw_randomizer(Rng& rng) const {
  return rng.random_bits(randomizer_bits_);
}

BigInt DgkPublicKey::randomizer_power(const BigInt& r) const {
  return context_of(h_table_).pow(r);
}

BigInt DgkPublicKey::randomizer_power(Rng& rng) const {
  return randomizer_power(draw_randomizer(rng));
}

DgkCiphertext DgkPublicKey::encrypt_with_power(const BigInt& m,
                                               const BigInt& h_to_r) const {
  require_plaintext(m, u_);
  obs::count(obs::Op::kDgkEncrypt);
  const MontgomeryContext& ctx = context_of(mont_n_);
  const BigInt gm = ctx.pow(g_, m);
  return {ctx.mul_mod(gm, h_to_r)};
}

DgkCiphertext DgkPublicKey::add(const DgkCiphertext& c1,
                                const DgkCiphertext& c2) const {
  return {context_of(mont_n_).mul_mod(c1.value, c2.value)};
}

DgkCiphertext DgkPublicKey::scalar_mul(const DgkCiphertext& c,
                                       const BigInt& a) const {
  return {context_of(mont_n_).pow(c.value, a.mod(u_))};
}

DgkCiphertext DgkPublicKey::negate(const DgkCiphertext& c) const {
  return scalar_mul(c, u_ - BigInt(1));
}

std::uint64_t DgkPublicKey::draw_unit(Rng& rng) const {
  return rng.uniform_in(BigInt(1), u_ - BigInt(1)).to_uint64();
}

DgkCiphertext DgkPublicKey::blind_multiplicative(const DgkCiphertext& c,
                                                 Rng& rng) const {
  // The blinded plaintext is uniform on Z_u* when c != 0, and stays 0
  // otherwise.
  return scalar_mul(c, BigInt(draw_unit(rng)));
}

DgkCiphertext DgkPublicKey::rerandomize(const DgkCiphertext& c,
                                        Rng& rng) const {
  return {context_of(mont_n_).mul_mod(c.value, randomizer_power(rng))};
}

DgkPrivateKey::DgkPrivateKey(DgkPublicKey pk, BigInt p, BigInt vp)
    : pk_(std::move(pk)), p_(std::move(p)), vp_(std::move(vp)) {
  // The key owns the context for its secret modulus; zeroize drops it.
  mont_p_ = std::make_shared<const MontgomeryContext>(p_);
  // pc_declassify: key construction runs once, offline, before any
  // protocol traffic an adversary could time — not an online
  // secret-dependent exponentiation.
  gvp_ = pc_declassify(mont_p_->pow(pk_.g().mod(p_), vp_));
  const std::uint64_t u = pk_.u_value();
  dlog_table_.reserve(u);
  BigInt acc(1);
  for (std::uint64_t m = 0; m < u; ++m) {
    // pc_declassify: dlog-table construction is part of one-time key
    // generation; its timing never coincides with adversary-visible traffic.
    dlog_table_.emplace(pc_declassify(acc.to_string(16)), m);
    acc = (acc * gvp_).mod(p_);
  }
}

void DgkPrivateKey::zeroize() {
  p_.zeroize();
  vp_.zeroize();
  gvp_.zeroize();
  mont_p_.reset();
  // The table's keys are powers of the secret subgroup generator; clearing
  // releases them without a byte-level wipe (std::string storage cannot be
  // scrubbed in place through the map's const keys).
  dlog_table_.clear();
}

bool DgkPrivateKey::is_zero(const DgkCiphertext& c) const {
  obs::count(obs::Op::kDgkZeroTest);
  // E(m)^vp mod p = (g^vp)^m mod p since h has order vp mod p; the result is
  // 1 iff m == 0 (mod u).
  // pc_declassify: the zero-test bit IS the protocol's defined output for S2
  // (the released comparison result).  The modexp's multiply count depends
  // only on vp's length, but each window's table read and each product's
  // final subtraction depend on the data, so its timing is not
  // secret-independent (DESIGN.md §12).
  return pc_declassify(context_of(mont_p_).pow(c.value.mod(p_), vp_) ==
                       BigInt(1));
}

std::uint64_t DgkPrivateKey::decrypt(const DgkCiphertext& c) const {
  // pc_declassify: full decryption is never run on adversary-timed secret
  // data — the protocols call is_zero() on blinded values; decrypt() serves
  // key-owner-local paths (tests, the trusted aggregation endpoint) where
  // the plaintext is the caller's own output.  The exponentiation and the
  // table walk are inherently plaintext-dependent; declassifying them, the
  // key and the hit/miss branch records that as a reviewed release rather
  // than an oversight.
  const BigInt target =
      pc_declassify(context_of(mont_p_).pow(c.value.mod(p_), vp_));
  const auto it = dlog_table_.find(pc_declassify(target.to_string(16)));
  if (pc_declassify(it == dlog_table_.end())) {
    throw std::invalid_argument("DGK decryption failed (invalid ciphertext)");
  }
  return it->second;
}

namespace {

/// Finds an element of order exactly `order` mod prime p, where
/// order | p - 1 and `order_factors` lists the distinct primes dividing it.
BigInt element_of_order(const BigInt& p, const BigInt& order,
                        const std::vector<BigInt>& order_factors, Rng& rng) {
  // p is secret: the context is local to the call and wiped on return.
  const MontgomeryContext ctx(p);
  const BigInt exponent = (p - BigInt(1)) / order;
  while (true) {
    const BigInt x = rng.uniform_in(BigInt(2), p - BigInt(2));
    const BigInt candidate = ctx.pow(x, exponent);
    if (candidate == BigInt(1)) continue;
    bool exact = true;
    for (const BigInt& f : order_factors) {
      if (ctx.pow(candidate, order / f) == BigInt(1)) {
        exact = false;
        break;
      }
    }
    if (exact) return candidate;
  }
}

/// CRT combine: x ≡ xp (mod p), x ≡ xq (mod q), gcd(p, q) = 1.
BigInt crt_combine(const BigInt& xp, const BigInt& p, const BigInt& xq,
                   const BigInt& q) {
  const BigInt q_inv_p = BigInt::invert_mod(q, p);
  const BigInt diff = (xp - xq).mod(p);
  return xq + q * ((diff * q_inv_p).mod(p));
}

}  // namespace

DgkKeyPair generate_dgk_key(const DgkParams& params, Rng& rng) {
  const BigInt u = next_prime(BigInt(params.plaintext_bound), rng);
  const std::size_t half = params.n_bits / 2;
  if (half <= params.v_bits + u.bit_length() + 2) {
    throw std::invalid_argument(
        "DGK: n_bits too small for the requested v_bits/plaintext_bound");
  }

  BigInt vp = random_prime(params.v_bits, rng);
  BigInt vq = random_prime(params.v_bits, rng);
  while (vq == vp) vq = random_prime(params.v_bits, rng);

  const BigInt p = random_prime_with_factor(half, u * vp, rng);
  BigInt q = random_prime_with_factor(params.n_bits - half, u * vq, rng);
  while (q == p) {
    q = random_prime_with_factor(params.n_bits - half, u * vq, rng);
  }
  const BigInt n = p * q;

  // g: order u*vp mod p and u*vq mod q; h: order vp mod p and vq mod q.
  const BigInt gp = element_of_order(p, u * vp, {u, vp}, rng);
  const BigInt gq = element_of_order(q, u * vq, {u, vq}, rng);
  const BigInt g = crt_combine(gp, p, gq, q);

  const BigInt hp = element_of_order(p, vp, {vp}, rng);
  const BigInt hq = element_of_order(q, vq, {vq}, rng);
  const BigInt h = crt_combine(hp, p, hq, q);

  DgkPublicKey pk(n, g, h, u, params.v_bits);
  DgkPrivateKey sk(pk, p, vp);
  return {std::move(pk), std::move(sk)};
}

}  // namespace pcl
