#include "obs/metrics.h"

namespace pcl::obs {

const char* op_name(Op op) {
  switch (op) {
    case Op::kBigIntModExp:
      return "bigint.modexp";
    case Op::kBigIntModMul:
      return "bigint.modmul";
    case Op::kPaillierEncrypt:
      return "paillier.encrypt";
    case Op::kPaillierDecrypt:
      return "paillier.decrypt";
    case Op::kPaillierAdd:
      return "paillier.add";
    case Op::kPaillierScalarMul:
      return "paillier.scalar_mul";
    case Op::kDgkEncrypt:
      return "dgk.encrypt";
    case Op::kDgkZeroTest:
      return "dgk.zero_test";
    case Op::kDgkCompare:
      return "dgk.compare";
    case Op::kDgkCompareBit:
      return "dgk.compare_bit";
    case Op::kSecureSumSubmit:
      return "secure_sum.submit";
    case Op::kSecureSumCollect:
      return "secure_sum.collect";
    case Op::kBlindPermuteRound:
      return "bnp.round";
    case Op::kRestorationReveal:
      return "restoration.reveal";
    case Op::kNoisyMaxRelease:
      return "noisy_max.release";
    case Op::kPoolMiss:
      return "pool.miss";
  }
  return "unknown";
}

StepCounters& MetricsRegistry::counters_for(const std::string& step) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<StepCounters>& slot = steps_[step];
  if (slot == nullptr) slot = std::make_unique<StepCounters>();
  return *slot;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> out;
  for (const auto& [step, counters] : steps_) {
    for (std::size_t i = 0; i < kNumOps; ++i) {
      const Op op = static_cast<Op>(i);
      const std::uint64_t count = counters->get(op);
      if (count != 0) out.push_back({step, op, count});
    }
  }
  return out;
}

std::uint64_t MetricsRegistry::total(Op op) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [step, counters] : steps_) total += counters->get(op);
  return total;
}

Histogram& MetricsRegistry::latency_for(const std::string& step, Phase phase) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot =
      latency_[step][static_cast<std::size_t>(phase)];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<MetricsRegistry::LatencyEntry> MetricsRegistry::latencies() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LatencyEntry> out;
  for (const auto& [step, per_phase] : latency_) {
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      if (per_phase[i] == nullptr) continue;
      HistogramSnapshot snap = per_phase[i]->snapshot();
      if (snap.count != 0) out.push_back({step, static_cast<Phase>(i), snap});
    }
  }
  return out;
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [step, counters] : steps_) {
    for (std::size_t i = 0; i < kNumOps; ++i) {
      // Reset by subtracting the current value: StepCounters only exposes
      // add/get, and pointers handed out must stay valid.
      const Op op = static_cast<Op>(i);
      counters->add(op, 0 - counters->get(op));
    }
  }
  for (auto& [step, per_phase] : latency_) {
    for (auto& hist : per_phase) {
      if (hist != nullptr) hist->reset();
    }
  }
}

}  // namespace pcl::obs
