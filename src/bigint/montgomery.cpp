#include "bigint/montgomery.h"

#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

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

struct SharedCache {
  struct Entry {
    std::shared_ptr<const MontgomeryContext> context;
    std::list<BigInt>::iterator recency;  // position in the LRU list
  };
  std::mutex mutex;
  std::map<BigInt, Entry> entries;
  std::list<BigInt> lru;  // front = newest
};

SharedCache& shared_cache() {
  // Leaked singleton: lane workers may still resolve contexts while other
  // threads unwind at process exit, so never run its destructor.
  static SharedCache* cache = new SharedCache;
  return *cache;
}

}  // namespace

MontgomeryContext::MontgomeryContext(BigInt modulus)
    : modulus_(checked_modulus(std::move(modulus))),
      kernel_(modulus_.limb_span()) {}

MontgomeryContext::~MontgomeryContext() { modulus_.zeroize(); }

std::shared_ptr<const MontgomeryContext> MontgomeryContext::shared(
    const BigInt& modulus) {
  SharedCache& cache = shared_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  const auto it = cache.entries.find(modulus);
  if (it != cache.entries.end()) {
    cache.lru.splice(cache.lru.begin(), cache.lru, it->second.recency);
    return it->second.context;
  }
  auto context = std::make_shared<const MontgomeryContext>(modulus);
  if (cache.entries.size() >= kSharedCacheCapacity) {
    cache.entries.erase(cache.lru.back());
    cache.lru.pop_back();
  }
  cache.lru.push_front(modulus);
  cache.entries.emplace(modulus,
                        SharedCache::Entry{context, cache.lru.begin()});
  return context;
}

std::vector<BigInt> MontgomeryContext::shared_moduli() {
  SharedCache& cache = shared_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return {cache.lru.begin(), cache.lru.end()};
}

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

}  // namespace pcl
