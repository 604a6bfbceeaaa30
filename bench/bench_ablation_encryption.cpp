// Ablation reproducing the paper's Sec. VI-A engineering finding ("Encrypt
// numbers efficiently"): naive sharing of one randomness generator
// serializes parallel encryption; pre-generating the randomizers, with one
// generator per worker, restores the expected speedup.
//
// Every row runs on the one precomputation mechanism, the deterministic
// PrecomputeService streams (DESIGN.md §15):
//   1. sequential fresh encryption from one generator (the baseline);
//   2. offline generation of the randomizer powers as one stream per
//      LanePool::shared() lane, each stream owning its DeterministicRng,
//      run concurrently (the paper's one-generator-per-worker fix) and,
//      for the speed-up, serially;
//   3. online encryption drawing from those warm streams (two
//      multiplications per ciphertext);
//   4. plaintext packing on a warm stream (several values per ciphertext,
//      so the per-VALUE cost divides by the slot count).
// Each row decrypts a seeded sample of its ciphertexts, and the bench exits
// 1 on a mismatch or a stream miss.  Stream hit/miss counters land in the
// --json record.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "crypto/packing.h"
#include "crypto/precompute_service.h"
#include "mpc/lane_pool.h"

using namespace pcl;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Decrypts a seeded sample of `cts` and compares each with its plaintext
/// in `plains`; reports the first mismatch on stderr.
bool sample_decrypts(const PaillierPrivateKey& sk,
                     const std::vector<PaillierCiphertext>& cts,
                     const std::vector<BigInt>& plains, const char* row,
                     std::uint64_t seed) {
  if (cts.size() != plains.size()) {
    std::fprintf(stderr, "%s: %zu ciphertexts for %zu plaintexts\n", row,
                 cts.size(), plains.size());
    return false;
  }
  DeterministicRng pick(seed);
  for (int i = 0; i < 64 && !cts.empty(); ++i) {
    const std::size_t at = pick.index_below(cts.size());
    if (sk.decrypt(cts[at]) != plains[at]) {
      std::fprintf(stderr, "%s: ciphertext %zu decrypts wrong\n", row, at);
      return false;
    }
  }
  return true;
}

/// One power stream per worker, seeded `seed + w`.
std::vector<std::unique_ptr<PaillierPowerStream>> make_streams(
    const PaillierPublicKey& pk, std::size_t workers, std::uint64_t seed) {
  std::vector<std::unique_ptr<PaillierPowerStream>> streams;
  for (std::size_t w = 0; w < workers; ++w) {
    streams.push_back(std::make_unique<PaillierPowerStream>(pk, seed + w));
  }
  return streams;
}

}  // namespace

int main(int argc, char** argv) {
  const pclbench::BenchCli cli = pclbench::parse_bench_cli(argc, argv);
  pclbench::BenchRecorder recorder("bench_ablation_encryption");
  const obs::ObserverScope obs_scope(&recorder.trace(), &recorder.metrics(),
                                     "bench");
  const std::size_t count =
      std::strtoul(cli.positional_or(0, "4000").c_str(), nullptr, 10);
  recorder.set_param("count", static_cast<double>(count));
  DeterministicRng rng(11);
  const PaillierKeyPair key = generate_paillier_key(64, rng);

  std::vector<std::int64_t> values(count);
  std::vector<BigInt> plains;
  plains.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = static_cast<std::int64_t>(i) - 500;
    plains.emplace_back(values[i]);
  }

  std::printf("Paillier bulk-encryption ablation (%zu values, 64-bit key)\n\n",
              count);
  std::printf("%-38s %12s %12s\n", "strategy", "seconds", "enc/s");
  bool ok = true;

  // 1. Sequential baseline: every encryption runs its own pow_mod.
  double sequential_s = 0.0;
  {
    std::vector<PaillierCiphertext> cts;
    cts.reserve(count);
    const auto start = std::chrono::steady_clock::now();
    for (const std::int64_t v : values) {
      cts.push_back(key.pk.encrypt(BigInt(v), rng));
    }
    sequential_s = seconds_since(start);
    std::printf("%-38s %12.3f %12.0f\n", "sequential (one generator)",
                sequential_s, count / sequential_s);
    recorder.set_param("fresh_s", sequential_s);
    ok &= sample_decrypts(key.sk, cts, plains, "sequential", 1);
  }

  // 2. Offline: the randomizer powers as one stream per lane of the shared
  // pool, each stream generating its contiguous chunk from its own
  // generator.  The same streams generated one after another give the
  // speed-up; both yield the same powers (precompute_service_test).
  LanePool& lanes = LanePool::shared();
  const std::size_t workers = lanes.thread_count() + 1;  // + the submitter
  const std::size_t chunk = (count + workers - 1) / workers;
  const auto chunk_size = [&](std::size_t w) {
    return std::min(count, (w + 1) * chunk) - std::min(count, w * chunk);
  };
  auto streams = make_streams(key.pk, workers, 11);
  double concurrent_s = 0.0;
  {
    auto serial = make_streams(key.pk, workers, 11);
    const auto serial_start = std::chrono::steady_clock::now();
    for (std::size_t w = 0; w < workers; ++w) {
      serial[w]->generate(chunk_size(w));
    }
    const double serial_s = seconds_since(serial_start);
    const auto start = std::chrono::steady_clock::now();
    lanes.run(workers,
              [&](std::size_t w) { streams[w]->generate(chunk_size(w)); });
    concurrent_s = seconds_since(start);
    char label[64];
    std::snprintf(label, sizeof(label), "offline: %zu streams on lane pool",
                  workers);
    std::printf("%-38s %12.3f %12.0f   (%.1fx over serial %.3fs)\n", label,
                concurrent_s, count / concurrent_s, serial_s / concurrent_s,
                serial_s);
    recorder.set_param("lane_workers",
                       static_cast<double>(lanes.thread_count()));
    recorder.set_param("stream_offline_s", concurrent_s);
    recorder.set_param("stream_offline_serial_s", serial_s);
  }

  // 3. Online: each value draws the next power of its chunk's warm stream,
  // so an encryption is two multiplications; an empty stream would fall
  // through inline (counted as a miss) instead of throwing.
  {
    std::vector<PaillierCiphertext> cts;
    cts.reserve(count);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      cts.push_back(streams[i / chunk]->encrypt(plains[i]));
    }
    const double s = seconds_since(start);
    std::printf("%-38s %12.3f %12.0f   (%.1fx; +%.3fs offline)\n",
                "precompute streams, warm (online)", s, count / s,
                sequential_s / s, concurrent_s);
    PrecomputeStats totals;
    for (const auto& stream : streams) {
      totals.hits += stream->stats().hits;
      totals.misses += stream->stats().misses;
    }
    recorder.set_param("stream_online_s", s);
    recorder.set_param("stream_hits", static_cast<double>(totals.hits));
    recorder.set_param("stream_misses", static_cast<double>(totals.misses));
    ok &= totals.misses == 0;
    ok &= sample_decrypts(key.sk, cts, plains, "warm streams", 2);
  }

  // 4. Plaintext packing on a warm stream: slots_per_ct values share one
  // ciphertext, so the whole batch needs only num_cts encryptions — the
  // per-value cost divides by the slot count on top of the stream's win.
  {
    std::int64_t max_abs = 1;
    for (const std::int64_t v : values) {
      max_abs = std::max(max_abs, v < 0 ? -v : v);
    }
    std::size_t value_bits = 2;
    while ((std::int64_t{1} << (value_bits - 1)) <= max_abs) ++value_bits;
    const PackingLayout layout = make_packing_layout(count, value_bits, 1, 62);
    PaillierPowerStream stream(key.pk, 12);
    const auto prep_start = std::chrono::steady_clock::now();
    const std::vector<BigInt> packed = pack_values(layout, values, 1);
    stream.generate(packed.size());
    const double prep_s = seconds_since(prep_start);
    std::vector<PaillierCiphertext> cts;
    cts.reserve(packed.size());
    const auto start = std::chrono::steady_clock::now();
    for (const BigInt& m : packed) cts.push_back(stream.encrypt(m));
    const double s = seconds_since(start);
    char label[64];
    std::snprintf(label, sizeof(label), "packed stream (%zu values/ct)",
                  layout.slots_per_ct);
    std::printf("%-38s %12.3f %12.0f   (%.1fx; +%.3fs prep)\n", label, s,
                count / s, sequential_s / s, prep_s);
    recorder.set_param("packed_online_s", s);
    recorder.set_param("packed_cts", static_cast<double>(layout.num_cts));
    recorder.set_param("packed_slots_per_ct",
                       static_cast<double>(layout.slots_per_ct));
    ok &= stream.stats().misses == 0;
    ok &= sample_decrypts(key.sk, cts, packed, "packed stream", 3);
  }

  std::printf("\nshape check: one generator per stream lets offline "
              "generation scale with the lane pool (%zu workers + the "
              "caller); warm draws are the fastest online path — the "
              "pow_mod moved into precomputation — mirroring the paper's "
              "randomness-table fix\n",
              lanes.thread_count());

  if (!cli.json_path.empty()) recorder.write_json(cli.json_path);
  if (!ok) {
    std::fprintf(stderr, "bench_ablation_encryption: a row failed its "
                         "decryption or miss check\n");
    return 1;
  }
  return 0;
}
