// Precompute service — the offline half of the offline/online phase split
// (DESIGN.md §15).
//
// Almost all crypto in a consensus query is input-INDEPENDENT: Paillier
// randomizer powers r^n mod n² and DGK blinding powers h^r mod n.  This
// service is a registry of deterministic, seeded streams of exactly that
// material.  A caller fills a stream with an exact count before the online
// phase (the draws one query makes from it, measured on a cold run; see
// ConsensusProtocol::precompute_demand), so the online path degenerates to
// a few modular multiplications per ciphertext.
//
// Determinism is the load-bearing property.  Every stream owns a private
// DeterministicRng seeded at registration; material is consumed strictly
// in generation order, and a draw that finds the stream empty computes the
// SAME value inline from the same Rng position (counted as
// obs::Op::kPoolMiss — never thrown).  Pool warmth therefore changes
// WHERE the work happens (offline vs online phase), never WHAT bytes go on
// the wire: a warm run, a cold run and a half-warm run of the same seed
// are byte-identical, which is what keeps the serving-mode byte-parity
// gates and the batch==sequential equivalence intact with pools enabled.
//
// Generation runs under PhaseScope(kOffline) inside a "precompute.*" span,
// so PR 8's latency histograms attribute pool fills to the offline phase
// and BENCH_batch.json can report the two walls separately.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "bigint/rng.h"
#include "crypto/dgk.h"
#include "crypto/paillier.h"

namespace pcl {

/// Counters for one stream (or a service-wide aggregate).  `ready` is the
/// material generated but not yet consumed; `misses` counts draws served
/// by inline generation on the online path; `released` counts material
/// dropped unused by release().  generated == hits + ready + released.
struct PrecomputeStats {
  std::size_t ready = 0;
  std::uint64_t generated = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t released = 0;
};

/// Deterministic stream of randomizer powers for one (key, seed) identity:
/// Paillier r^n mod n² or DGK h^r mod n, as the key's randomizer_power
/// computes them.  DGK powers serve both bit-ciphertext encryption
/// (g^m · h^r, m tiny) and multiplicative blinding.  draw_power()/encrypt()
/// consume in generation order; an empty stream computes inline from the
/// same Rng position.
template <typename PublicKey>
class PowerStream {
 public:
  PowerStream(const PublicKey& pk, std::uint64_t seed) : pk_(pk), rng_(seed) {}

  /// Offline: appends `count` powers (PhaseScope kOffline, span
  /// "precompute.paillier" or "precompute.dgk").
  void generate(std::size_t count);
  /// Online: the next randomizer power — ready material or inline.
  [[nodiscard]] BigInt draw_power();
  /// Online: one full encryption using the next power.
  [[nodiscard]] auto encrypt(const BigInt& m) {
    return pk_.encrypt_with_power(m, draw_power());
  }
  /// After the query that drew from the stream has ended: frees the ready
  /// powers it left undrawn (a ⊥ query's steps 6-9) and counts them as
  /// released.  The stream keeps its counters and its Rng position, so a
  /// later draw computes the power after the released ones.
  void release();
  [[nodiscard]] PrecomputeStats stats() const;

 private:
  const PublicKey pk_;
  mutable std::mutex mutex_;
  DeterministicRng rng_;
  std::deque<BigInt> ready_;
  std::uint64_t generated_ = 0, hits_ = 0, misses_ = 0, released_ = 0;
};

using PaillierPowerStream = PowerStream<PaillierPublicKey>;
using DgkPowerStream = PowerStream<DgkPublicKey>;

/// Per-key registry of power streams.  Streams are identified by (key,
/// stream seed) and created on first access, so the side that fills a
/// stream and the side that draws from it rendezvous on the derivation
/// convention alone; access is safe from any thread.
class PrecomputeService {
 public:
  [[nodiscard]] PaillierPowerStream& paillier_powers(
      const PaillierPublicKey& pk, std::uint64_t seed);
  [[nodiscard]] DgkPowerStream& dgk_powers(const DgkPublicKey& pk,
                                           std::uint64_t seed);

  /// Service-wide aggregate of every stream's counters.
  [[nodiscard]] PrecomputeStats totals() const;

 private:
  /// (key tag, stream seed).
  using Key = std::pair<std::uint64_t, std::uint64_t>;

  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<PaillierPowerStream>> paillier_;
  std::map<Key, std::unique_ptr<DgkPowerStream>> dgk_;
};

}  // namespace pcl
