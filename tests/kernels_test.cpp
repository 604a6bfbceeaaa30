// The Montgomery kernel (src/bigint/kernels/) behind MontgomeryContext:
// checks mul_mod and pow against the naive (a * b) mod m and
// square-and-multiply oracles at every class of odd width, exercises the
// final-subtraction carries at word boundaries, and pins the scratch-wipe
// and op-count contracts that DESIGN.md §12 documents.  (Suite
// FixedMontKernel: the kernel's word count is fixed per modulus at
// construction.)
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bigint/kernels/cios.h"
#include "bigint/montgomery.h"
#include "bigint/rng.h"
#include "obs/trace.h"

namespace pcl {
namespace {

BigInt odd_modulus_exact(std::size_t bits, Rng& rng) {
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  return m;
}

// Plain square-and-multiply, without the Montgomery path.
BigInt naive_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt result = BigInt(1).mod(m);
  BigInt b = base.mod(m);
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = (result * b).mod(m);
    b = (b * b).mod(m);
  }
  return result;
}

TEST(FixedMontKernel, EveryOddWidthMatchesNaiveOracle) {
  // One kernel serves every odd modulus: 1 word (3 and 2^64 - 59, the
  // largest 64-bit prime), 2 and 3 words with odd 32-bit limb counts
  // among them (96..192 bits), the protocol widths (256..4096 bits), a
  // width off every power of two (1056 bits), 65 words, and 96 words,
  // the widest, whose 6-bit window table grows the thread's scratch past
  // every narrower need.  The exponent lengths walk every window width
  // from 1 to 6.
  DeterministicRng rng(13);
  std::vector<BigInt> moduli = {BigInt(3),
                                (BigInt(1) << 64) - BigInt(59)};
  for (const std::size_t bits :
       {96u, 128u, 160u, 192u, 256u, 512u, 1024u, 2048u, 4096u, 1056u, 4160u,
        6144u}) {
    moduli.push_back(odd_modulus_exact(bits, rng));
  }
  for (const BigInt& m : moduli) {
    const MontgomeryContext ctx(m);
    for (const std::size_t exp_bits : {3u, 17u, 70u, 230u, 700u, 800u}) {
      const BigInt a = rng.uniform_below(m);
      const BigInt b = rng.uniform_below(m);
      const BigInt e = rng.random_bits_exact(exp_bits);
      EXPECT_EQ(ctx.mul_mod(a, b), (a * b).mod(m)) << m.bit_length();
      EXPECT_EQ(ctx.pow(a, e), naive_pow(a, e, m))
          << m.bit_length() << "-bit modulus, " << exp_bits << "-bit exp";
    }
  }
}

TEST(FixedMontKernel, RedcFinalSubtractionAtLimbBoundary) {
  // Moduli chosen to force the final conditional subtraction and the
  // t[W] overflow word: all-ones (2^bits - 1, the largest odd value at the
  // width) and 2^bits - 3 keep intermediate sums at the carry edge.  The
  // widths are every word boundary from 1 to 3 words plus the protocol
  // widths.
  DeterministicRng rng(14);
  for (const std::size_t bits :
       {64u, 128u, 192u, 256u, 512u, 1024u, 2048u, 4096u}) {
    for (const int delta : {1, 3}) {
      const BigInt m = (BigInt(1) << bits) - BigInt(delta);
      ASSERT_TRUE(m.is_odd());
      ASSERT_EQ(m.bit_length(), bits);
      const MontgomeryContext ctx(m);
      // Operands at the top of the range maximize the unreduced product.
      const BigInt top = m - BigInt(1);
      EXPECT_EQ(ctx.mul_mod(top, top), (top * top).mod(m));
      for (int trial = 0; trial < 4; ++trial) {
        const BigInt a = rng.uniform_below(m);
        EXPECT_EQ(ctx.mul_mod(a, top), (a * top).mod(m));
        // pow(a, 1) is exactly the round trip into and out of the
        // Montgomery form.
        EXPECT_EQ(ctx.pow(a, BigInt(1)), a);
      }
    }
  }
}

TEST(FixedMontKernel, UnreducedAndNegativeOperandsReduceFirst) {
  DeterministicRng rng(15);
  const BigInt m = odd_modulus_exact(256, rng);
  const MontgomeryContext ctx(m);
  const BigInt big = m * BigInt(7) + rng.uniform_below(m);  // base >= modulus
  const BigInt b = rng.uniform_below(m);
  EXPECT_EQ(ctx.mul_mod(big, b), (big * b).mod(m));
  EXPECT_EQ(ctx.pow(big, BigInt(5)), BigInt::pow_mod(big.mod(m), BigInt(5), m));
  EXPECT_EQ(ctx.mul_mod(BigInt(-3), b), ((m - BigInt(3)) * b).mod(m));
  EXPECT_EQ(ctx.pow(BigInt(-2), BigInt(2)), BigInt(4));
}

TEST(FixedMontKernel, PowExponentEdgeCases) {
  DeterministicRng rng(16);
  const BigInt m = odd_modulus_exact(512, rng);
  const MontgomeryContext ctx(m);
  const BigInt a = rng.uniform_below(m);
  EXPECT_EQ(ctx.pow(a, BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx.pow(a, BigInt(1)), a);
  EXPECT_EQ(ctx.pow(BigInt(0), BigInt(9)), BigInt(0));
  EXPECT_EQ(ctx.pow(BigInt(1), BigInt(1) << 200), BigInt(1));
  // Exponent with every window pattern: all-ones exponent exercises every
  // table entry at the widest window.
  const BigInt ones = (BigInt(1) << 300) - BigInt(1);
  EXPECT_EQ(ctx.pow(a, ones), BigInt::pow_mod(a, ones, m));
  EXPECT_THROW((void)ctx.pow(a, BigInt(-1)), std::invalid_argument);
}

TEST(FixedMontKernel, OpCountsArePinned) {
  // The multiply schedule depends on the exponent's length alone, never
  // on its bits or the width.  A 300-bit e takes 5-bit windows: one
  // to_mont and 30 more table entries, 59 x 5 squarings, 59 window
  // multiplies and one from_mont = 386, whether its windows are all ones
  // (2^300 - 1) or all zero below the top (2^299).  mul_mod is one
  // to_mont plus one multiply; e = 0 is the final from_mont alone.
  DeterministicRng rng(17);
  const BigInt e = (BigInt(1) << 300) - BigInt(1);
  const BigInt sparse = BigInt(1) << 299;
  for (const BigInt& m :
       {BigInt(3), odd_modulus_exact(160, rng), odd_modulus_exact(1024, rng),
        odd_modulus_exact(4160, rng)}) {
    const MontgomeryContext ctx(m);
    const BigInt base = rng.uniform_below(m);
    const auto count_ops = [](const auto& op) {
      obs::MetricsRegistry reg;
      {
        const obs::ObserverScope scope(nullptr, &reg, "t");
        op();
      }
      return std::pair{reg.total(obs::Op::kBigIntModMul),
                       reg.total(obs::Op::kBigIntModExp)};
    };
    EXPECT_EQ(count_ops([&] { (void)ctx.pow(base, e); }),
              (std::pair<std::uint64_t, std::uint64_t>{386, 1}))
        << m.bit_length();
    EXPECT_EQ(count_ops([&] { (void)ctx.pow(base, sparse); }),
              (std::pair<std::uint64_t, std::uint64_t>{386, 1}))
        << m.bit_length();
    EXPECT_EQ(count_ops([&] { (void)ctx.mul_mod(base, base); }),
              (std::pair<std::uint64_t, std::uint64_t>{2, 0}))
        << m.bit_length();
    EXPECT_EQ(count_ops([&] { (void)ctx.pow(base, BigInt(0)); }),
              (std::pair<std::uint64_t, std::uint64_t>{1, 1}))
        << m.bit_length();
  }
}

TEST(FixedMontKernel, ScratchIsWipedAfterEveryOperation) {
  // A pow's window table and accumulator are residues mod its modulus; in
  // a decryption that modulus is the secret p² or q², and any one of those
  // words with the public ciphertext factors n.  After a pow and a mul_mod
  // (at a deployment width and a paper one) the calling thread's scratch
  // must hold no nonzero word.
  DeterministicRng rng(18);
  for (const std::size_t bits : {2048u, 160u}) {
    const BigInt m = odd_modulus_exact(bits, rng);
    const MontgomeryContext ctx(m);
    const BigInt a = rng.uniform_below(m);
    const BigInt b = rng.uniform_below(m);
    (void)ctx.pow(a, rng.random_bits_exact(bits));
    (void)ctx.mul_mod(a, b);
    const std::span<const std::uint64_t> scratch = kern::Cios::thread_scratch();
    // 2048 bits: 32 words, a 64-entry table plus the temporaries.
    ASSERT_GE(scratch.size(), 67u * 32u) << bits;
    EXPECT_TRUE(std::all_of(scratch.begin(), scratch.end(),
                            [](std::uint64_t w) { return w == 0; }))
        << bits << "-bit modulus";
  }
}

}  // namespace
}  // namespace pcl
