// Known-bad fixture for PC008: a modular exponentiation on a secret,
// spelled BigInt::pow_mod.  It runs the same kernel as a context's pow, so
// it must be flagged the same way.
namespace pcl_fixture {

struct BigInt {
  static BigInt pow_mod(const BigInt& base, const BigInt& exp,
                        const BigInt& mod);
};

inline BigInt bad_pow_mod(const BigInt& base, const BigInt& mod) {
  BigInt secret_;
  return BigInt::pow_mod(base, secret_, mod);  // PC008: variable-time call
}

}  // namespace pcl_fixture
