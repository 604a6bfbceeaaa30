// Known-bad fixture for PC008: a fixed-base comb exponentiation with a
// secret exponent.  FixedBaseTable::pow reads its table at the rows the
// exponent's bits select, as a context's pow reads its window table, so it
// must be flagged the same way.
namespace pcl_fixture {

struct BigInt {};

struct FixedBaseTable {
  BigInt pow(const BigInt& exp) const;
};

inline BigInt bad_fixed_base_pow(const FixedBaseTable& table) {
  BigInt secret_;
  return table.pow(secret_);  // PC008: variable-time call
}

}  // namespace pcl_fixture
