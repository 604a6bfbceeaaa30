#include "crypto/precompute_service.h"

#include <utility>

#include "obs/trace.h"

namespace pcl {

namespace {

/// Cheap key identity for the registry: the modulus' low limbs XOR its bit
/// length.  Collisions would only merge streams of different keys that
/// also share a seed — and the per-stream key copy still encrypts with the
/// right key, so a collision costs determinism, not correctness; the
/// protocol only ever registers a handful of keys.
std::uint64_t key_tag(const BigInt& n) {
  const auto limbs = n.limb_span();
  std::uint64_t tag = 0x9e3779b97f4a7c15ull * (n.bit_length() + 1);
  for (std::size_t i = 0; i < limbs.size() && i < 4; ++i) {
    tag ^= static_cast<std::uint64_t>(limbs[i]) << ((i % 2) * 32);
  }
  return tag;
}

const char* generate_span(const PaillierPublicKey&) {
  return "precompute.paillier";
}
const char* generate_span(const DgkPublicKey&) { return "precompute.dgk"; }

template <typename Stream, typename PublicKey>
Stream& find_or_register(
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::unique_ptr<Stream>>&
        streams,
    const PublicKey& pk, std::uint64_t seed) {
  std::unique_ptr<Stream>& slot = streams[{key_tag(pk.n()), seed}];
  if (slot == nullptr) slot = std::make_unique<Stream>(pk, seed);
  return *slot;
}

}  // namespace

// ----------------------------------------------------------------- Stream

template <typename PublicKey>
void PowerStream<PublicKey>::generate(std::size_t count) {
  const obs::PhaseScope phase(obs::Phase::kOffline);
  const obs::Span span(generate_span(pk_));
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < count; ++i) {
    ready_.push_back(pk_.randomizer_power(rng_));
    ++generated_;
  }
}

template <typename PublicKey>
BigInt PowerStream<PublicKey>::draw_power() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!ready_.empty()) {
    BigInt power = std::move(ready_.front());
    ready_.pop_front();
    ++hits_;
    return power;
  }
  // Inline fall-through from the same Rng position the generator would
  // have used: bytes match a warm run, only the phase attribution shifts.
  obs::count(obs::Op::kPoolMiss);
  ++misses_;
  return pk_.randomizer_power(rng_);
}

template <typename PublicKey>
void PowerStream<PublicKey>::release() {
  const std::lock_guard<std::mutex> lock(mutex_);
  released_ += ready_.size();
  std::deque<BigInt>().swap(ready_);  // clear() may keep the deque's blocks
}

template <typename PublicKey>
PrecomputeStats PowerStream<PublicKey>::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {ready_.size(), generated_, hits_, misses_, released_};
}

template class PowerStream<PaillierPublicKey>;
template class PowerStream<DgkPublicKey>;

// ---------------------------------------------------------------- Service

PaillierPowerStream& PrecomputeService::paillier_powers(
    const PaillierPublicKey& pk, std::uint64_t seed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_register(paillier_, pk, seed);
}

DgkPowerStream& PrecomputeService::dgk_powers(const DgkPublicKey& pk,
                                              std::uint64_t seed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_register(dgk_, pk, seed);
}

PrecomputeStats PrecomputeService::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  PrecomputeStats out;
  const auto fold = [&out](const PrecomputeStats& s) {
    out.ready += s.ready;
    out.generated += s.generated;
    out.hits += s.hits;
    out.misses += s.misses;
    out.released += s.released;
  };
  for (const auto& [key, stream] : paillier_) fold(stream->stats());
  for (const auto& [key, stream] : dgk_) fold(stream->stats());
  return out;
}

}  // namespace pcl
