#include "bigint/montgomery.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace pcl {
namespace {

BigInt checked_modulus(BigInt modulus) {
  if (modulus <= BigInt(1) || modulus.is_even()) {
    throw std::invalid_argument(
        "MontgomeryContext requires an odd modulus > 1");
  }
  return modulus;
}

}  // namespace

MontgomeryContext::MontgomeryContext(BigInt modulus)
    : modulus_(checked_modulus(std::move(modulus))),
      kernel_(modulus_.limb_span()) {}

MontgomeryContext::~MontgomeryContext() { modulus_.zeroize(); }

const BigInt& MontgomeryContext::reduced(const BigInt& v,
                                         BigInt& storage) const {
  if (v.is_negative() || v >= modulus_) {
    storage = v.mod(modulus_);
    return storage;
  }
  return v;
}

BigInt MontgomeryContext::mul_mod(const BigInt& a, const BigInt& b) const {
  std::uint64_t muls = 0;
  BigInt a_scratch, b_scratch;
  std::vector<std::uint32_t> out =
      kernel_.mul_mod(reduced(a, a_scratch).limb_span(),
                      reduced(b, b_scratch).limb_span(), &muls);
  obs::count(obs::Op::kBigIntModMul, muls);
  return BigInt::from_limbs(std::move(out));
}

BigInt MontgomeryContext::pow(const BigInt& base, const BigInt& exp) const {
  if (exp.is_negative()) {
    throw std::invalid_argument("MontgomeryContext::pow: negative exponent");
  }
  obs::count(obs::Op::kBigIntModExp);
  std::uint64_t muls = 0;
  BigInt scratch;
  std::vector<std::uint32_t> out = kernel_.pow(
      reduced(base, scratch).limb_span(), exp.limb_span(), &muls);
  obs::count(obs::Op::kBigIntModMul, muls);
  return BigInt::from_limbs(std::move(out));
}

}  // namespace pcl
