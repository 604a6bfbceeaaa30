#include "crypto/encryption_pool.h"

#include <stdexcept>
#include <thread>

#include "bigint/montgomery.h"
#include "obs/trace.h"

namespace pcl {

namespace {

/// One randomizer power r^n mod n^2 with r uniform in Z_n^*.
BigInt make_randomizer_power(const PaillierPublicKey& pk, Rng& rng) {
  BigInt r = rng.uniform_in(BigInt(1), pk.n() - BigInt(1));
  while (BigInt::gcd(r, pk.n()) != BigInt(1)) {
    r = rng.uniform_in(BigInt(1), pk.n() - BigInt(1));
  }
  return BigInt::pow_mod(r, pk.n(), pk.n_squared());
}

/// Splits [0, n) into `threads` contiguous chunks and runs fn(thread_index,
/// begin, end) on each.
template <typename Fn>
void parallel_chunks(std::size_t n, std::size_t threads, Fn&& fn) {
  if (threads == 0) throw std::invalid_argument("need at least one thread");
  threads = std::min(threads, n == 0 ? std::size_t{1} : n);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const std::size_t chunk = (n + threads - 1) / threads;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([&fn, t, begin, end] { fn(t, begin, end); });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace

PaillierRandomizerPool::PaillierRandomizerPool(const PaillierPublicKey& pk,
                                               std::size_t capacity,
                                               std::size_t threads,
                                               std::uint64_t seed)
    : pk_(pk),
      seed_(seed),
      randomizer_powers_(capacity),
      fallback_rng_(seed ^ 0xd6e8feb86659fd93ull) {
  parallel_chunks(capacity, threads,
                  [&](std::size_t t, std::size_t begin, std::size_t end) {
                    DeterministicRng rng(seed ^ (0x9e3779b97f4a7c15ull * (t + 1)));
                    for (std::size_t i = begin; i < end; ++i) {
                      randomizer_powers_[i] = make_randomizer_power(pk_, rng);
                    }
                  });
}

void PaillierRandomizerPool::refill(std::size_t count, std::size_t threads) {
  // Refills are the canonical OFFLINE work: input-independent precompute a
  // deployment schedules during idle time.  The phase tag keeps their cost
  // out of the online percentiles an operator watches (telemetry v2).
  const obs::PhaseScope phase(obs::Phase::kOffline);
  const obs::Span span("paillier.pool_refill");
  std::uint64_t generation = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    generation = ++generation_;
  }
  // Generate outside the lock so concurrent draws keep flowing; each refill
  // generation salts the worker seeds so streams never repeat the
  // construction batch or earlier refills.
  std::vector<BigInt> fresh(count);
  parallel_chunks(
      count, threads, [&](std::size_t t, std::size_t begin, std::size_t end) {
        DeterministicRng rng(seed_ ^ (0x9e3779b97f4a7c15ull * (t + 1)) ^
                             (0x94d049bb133111ebull * generation));
        for (std::size_t i = begin; i < end; ++i) {
          fresh[i] = make_randomizer_power(pk_, rng);
        }
      });
  const std::lock_guard<std::mutex> lock(mutex_);
  randomizer_powers_.insert(randomizer_powers_.end(),
                            std::make_move_iterator(fresh.begin()),
                            std::make_move_iterator(fresh.end()));
}

std::size_t PaillierRandomizerPool::remaining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return randomizer_powers_.size();
}

std::uint64_t PaillierRandomizerPool::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

PaillierCiphertext PaillierRandomizerPool::encrypt(const BigInt& m) {
  BigInt power;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (randomizer_powers_.empty()) {
      // Exhaustion fall-through: generate inline from the dedicated
      // fallback stream instead of throwing, and count the miss so an
      // operator can see online-path degradation in the metrics.
      obs::count(obs::Op::kPoolMiss);
      ++misses_;
      power = make_randomizer_power(pk_, fallback_rng_);
    } else {
      power = std::move(randomizer_powers_.back());
      randomizer_powers_.pop_back();
    }
  }
  // c = (1 + m*n) * r^n mod n^2 — the pooled power replaces the pow_mod,
  // and the key-attached context's mul_mod (two CIOS Montgomery
  // multiplies) replaces the double-width product + division.
  const BigInt g_to_m =
      (BigInt(1) + m.mod(pk_.n()) * pk_.n()).mod(pk_.n_squared());
  const std::shared_ptr<const MontgomeryContext>& ctx = pk_.mont_n_squared();
  if (ctx != nullptr) return {ctx->mul_mod(g_to_m, power)};
  return {(g_to_m * power).mod(pk_.n_squared())};
}

std::vector<PaillierCiphertext> PaillierRandomizerPool::encrypt_batch(
    std::span<const std::int64_t> values) {
  std::vector<PaillierCiphertext> out;
  out.reserve(values.size());
  for (const std::int64_t v : values) out.push_back(encrypt(BigInt(v)));
  return out;
}

std::vector<PaillierCiphertext> encrypt_batch_parallel(
    const PaillierPublicKey& pk, std::span<const std::int64_t> values,
    std::size_t threads, std::uint64_t seed) {
  std::vector<PaillierCiphertext> out(values.size());
  parallel_chunks(values.size(), threads,
                  [&](std::size_t t, std::size_t begin, std::size_t end) {
                    DeterministicRng rng(seed ^ (0xbf58476d1ce4e5b9ull * (t + 1)));
                    for (std::size_t i = begin; i < end; ++i) {
                      out[i] = pk.encrypt(BigInt(values[i]), rng);
                    }
                  });
  return out;
}

}  // namespace pcl
