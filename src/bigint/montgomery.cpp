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

std::shared_ptr<const MontgomeryContext> checked_context(
    std::shared_ptr<const MontgomeryContext> ctx) {
  if (ctx == nullptr) {
    throw std::invalid_argument("FixedBaseTable requires a context");
  }
  return ctx;
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

FixedBaseTable::FixedBaseTable(std::shared_ptr<const MontgomeryContext> ctx,
                               const BigInt& base, std::size_t exp_bits)
    : ctx_(checked_context(std::move(ctx))),
      comb_(build(*ctx_, base, exp_bits)) {}

kern::Cios::Comb FixedBaseTable::build(const MontgomeryContext& ctx,
                                       const BigInt& base,
                                       std::size_t exp_bits) {
  std::uint64_t muls = 0;
  BigInt scratch;
  kern::Cios::Comb comb = ctx.kernel_.comb(
      ctx.reduced(base, scratch).limb_span(), exp_bits, &muls);
  obs::count(obs::Op::kBigIntModMul, muls);
  return comb;
}

BigInt FixedBaseTable::pow(const BigInt& exp) const {
  if (exp.is_negative()) {
    throw std::invalid_argument("FixedBaseTable::pow: negative exponent");
  }
  std::uint64_t muls = 0;
  std::vector<std::uint32_t> out =
      ctx_->kernel_.pow(comb_, exp.limb_span(), &muls);
  obs::count(obs::Op::kBigIntModExp);
  obs::count(obs::Op::kBigIntModMul, muls);
  return BigInt::from_limbs(std::move(out));
}

}  // namespace pcl
