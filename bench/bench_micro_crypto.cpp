// Micro-benchmarks (google-benchmark) for the crypto substrate, with key-
// size ablations.  These are not a paper table; they quantify the design
// choices DESIGN.md calls out: Paillier cost vs key size, DGK encryption /
// zero-test cost, the per-comparison cost that dominates Table I, and the
// bignum primitives underneath.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "bigint/montgomery.h"
#include "bigint/primes.h"
#include "crypto/dgk.h"
#include "crypto/paillier.h"
#include "mpc/dgk_compare.h"

namespace {

using namespace pcl;

void BM_BigIntMul(benchmark::State& state) {
  DeterministicRng rng(1);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt a = rng.random_bits_exact(bits);
  const BigInt b = rng.random_bits_exact(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BigIntDivMod(benchmark::State& state) {
  DeterministicRng rng(2);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt a = rng.random_bits_exact(2 * bits);
  const BigInt b = rng.random_bits_exact(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::div_mod(a, b));
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(64)->Arg(256)->Arg(1024);

void BM_BigIntPowMod(benchmark::State& state) {
  DeterministicRng rng(3);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt m = rng.random_bits_exact(bits);
  const BigInt base = rng.uniform_below(m);
  const BigInt exp = rng.random_bits_exact(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::pow_mod(base, exp, m));
  }
}
BENCHMARK(BM_BigIntPowMod)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// The pow_mod ablation triple, at the moduli the protocol actually runs
// (DGK n at 1024, Paillier n^2 at 2048 bits; the held context also at
// the paper's 128 and 192 bits): the division-based
// square-and-multiply BigInt::pow_mod used before the Montgomery routing,
// the fixed-window Montgomery kernel with a context built per call (what
// BigInt::pow_mod does for an odd modulus), and one context built once and
// held, as a key holds the contexts for its moduli.  The bulk of the win
// is the kernel (no trial division per step + windows); holding the
// context then makes the remaining per-call setup (R mod m, R^2 mod m, the
// inverse limb) a one-time cost per key, which is what the lane-batched
// pipeline leans on when thousands of exponentiations share one key.

void BM_PowModNaiveReference(benchmark::State& state) {
  DeterministicRng rng(12);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt base = rng.uniform_below(m);
  const BigInt exp = rng.random_bits_exact(bits);
  for (auto _ : state) {
    BigInt acc(1);
    BigInt b = base;
    for (std::size_t i = 0; i < exp.bit_length(); ++i) {
      if (exp.bit(i)) acc = (acc * b).mod(m);
      b = (b * b).mod(m);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PowModNaiveReference)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_PowModFreshContext(benchmark::State& state) {
  DeterministicRng rng(12);  // same seed: identical operands across the triple
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt base = rng.uniform_below(m);
  const BigInt exp = rng.random_bits_exact(bits);
  for (auto _ : state) {
    const MontgomeryContext ctx(m);
    benchmark::DoNotOptimize(ctx.pow(base, exp));
  }
}
BENCHMARK(BM_PowModFreshContext)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_PowModCachedContext(benchmark::State& state) {
  DeterministicRng rng(12);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt base = rng.uniform_below(m);
  const BigInt exp = rng.random_bits_exact(bits);
  const MontgomeryContext ctx(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.pow(base, exp));
  }
}
BENCHMARK(BM_PowModCachedContext)->Arg(128)->Arg(192)->Arg(512)->Arg(1024)
    ->Arg(2048)->Unit(benchmark::kMillisecond);

// One full modular product a * b mod m per iteration through the CIOS
// kernel, its temporaries carved from the thread's scratch and wiped before
// it returns (DESIGN.md §12).  The widths are the paper's (Paillier n² and
// DGK n at 128 and 192 bits) and the deployment moduli (DGK n at
// 1024/2048, Paillier n² at 2048/4096).

void BM_ModMul(benchmark::State& state) {
  DeterministicRng rng(13);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt a = rng.uniform_below(m);
  const BigInt b = rng.uniform_below(m);
  const MontgomeryContext ctx(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mul_mod(a, b));
  }
}
BENCHMARK(BM_ModMul)->Arg(128)->Arg(192)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_PrimeGeneration(benchmark::State& state) {
  DeterministicRng rng(4);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_prime(bits, rng));
  }
}
BENCHMARK(BM_PrimeGeneration)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  DeterministicRng rng(5);
  const auto key = generate_paillier_key(
      static_cast<std::size_t>(state.range(0)), rng);
  const BigInt m(123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.pk.encrypt(m, rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  DeterministicRng rng(6);
  const auto key = generate_paillier_key(
      static_cast<std::size_t>(state.range(0)), rng);
  const PaillierCiphertext c = key.pk.encrypt(BigInt(-987654), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sk.decrypt(c));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_PaillierHomomorphicAdd(benchmark::State& state) {
  DeterministicRng rng(7);
  const auto key = generate_paillier_key(64, rng);
  const PaillierCiphertext c1 = key.pk.encrypt(BigInt(17), rng);
  const PaillierCiphertext c2 = key.pk.encrypt(BigInt(25), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.pk.add(c1, c2));
  }
}
BENCHMARK(BM_PaillierHomomorphicAdd);

void BM_DgkEncrypt(benchmark::State& state) {
  DeterministicRng rng(8);
  DgkParams params;
  params.n_bits = static_cast<std::size_t>(state.range(0));
  params.v_bits = 40;
  params.plaintext_bound = 256;
  const auto key = generate_dgk_key(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.pk.encrypt(std::uint64_t{1}, rng));
  }
}
BENCHMARK(BM_DgkEncrypt)->Arg(160)->Arg(192)->Arg(256)->Arg(384)
    ->Unit(benchmark::kMicrosecond);

// One DGK randomizer power h^r from the key's comb table (DESIGN.md §12),
// the work behind every DGK encryption and stream power: the paper's
// 192-bit n with 40-bit v (112-bit r) and the deployment profile's
// 2048-bit n with 160-bit v (352-bit r).
void BM_DgkRandomizerPower(benchmark::State& state) {
  DeterministicRng rng(14);
  DgkParams params;
  params.n_bits = static_cast<std::size_t>(state.range(0));
  params.v_bits = static_cast<std::size_t>(state.range(1));
  params.plaintext_bound = 256;
  const auto key = generate_dgk_key(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.pk.randomizer_power(rng));
  }
}
BENCHMARK(BM_DgkRandomizerPower)->Args({192, 40})->Args({2048, 160})
    ->Unit(benchmark::kMicrosecond);

void BM_DgkZeroTest(benchmark::State& state) {
  DeterministicRng rng(9);
  DgkParams params;
  params.n_bits = static_cast<std::size_t>(state.range(0));
  params.v_bits = 40;
  params.plaintext_bound = 256;
  const auto key = generate_dgk_key(params, rng);
  const DgkCiphertext c = key.pk.encrypt(std::uint64_t{0}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sk.is_zero(c));
  }
}
BENCHMARK(BM_DgkZeroTest)->Arg(160)->Arg(192)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_DgkCompare(benchmark::State& state) {
  // The unit cost behind Table I's dominant steps, as a function of the
  // comparison bit-width ell.
  DeterministicRng rng(10);
  DgkParams params;
  params.n_bits = 192;
  params.v_bits = 40;
  params.plaintext_bound = 256;
  const auto key = generate_dgk_key(params, rng);
  const std::size_t ell = static_cast<std::size_t>(state.range(0));
  const DgkCompareContext ctx(key.pk, key.sk, ell);
  std::int64_t x = 12345, y = -9876;
  // The message-slot halves in protocol order, each message handed to the
  // peer's half directly: the comparison's crypto and serialization only.
  for (auto _ : state) {
    MessageReader e_bits(dgk_compare_s2_bits(ctx, y, rng).take());
    MessageReader blinded(
        dgk_compare_s1_blind(key.pk, ell, x, e_bits, rng).take());
    MessageWriter reply;
    benchmark::DoNotOptimize(dgk_compare_s2_decide(ctx, blinded, reply));
    std::swap(x, y);
  }
}
BENCHMARK(BM_DgkCompare)->Arg(16)->Arg(32)->Arg(52)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the uniform bench flags (--json) are
// stripped before google-benchmark sees the command line.
int main(int argc, char** argv) {
  pclbench::BenchCli cli = pclbench::parse_bench_cli(argc, argv);
  pclbench::BenchRecorder recorder("bench_micro_crypto");
  const pcl::obs::ObserverScope obs_scope(&recorder.trace(),
                                          &recorder.metrics(), "bench");
  int bench_argc = static_cast<int>(cli.passthrough_argv.size());
  benchmark::Initialize(&bench_argc, cli.passthrough_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             cli.passthrough_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!cli.json_path.empty()) recorder.write_json(cli.json_path);
  return 0;
}
