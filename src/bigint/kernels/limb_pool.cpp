#include "bigint/kernels/limb_pool.h"

#include <stdexcept>

namespace pcl::kern {

LimbPool& LimbPool::local() {
  thread_local LimbPool pool;
  return pool;
}

std::uint64_t* LimbPool::acquire() {
  ++acquires_;
  if (enabled_ && free_count_ > 0) {
    ++reuses_;
    return free_[--free_count_];
  }
  ++fresh_allocs_;
  return new std::uint64_t[kCellWords];
}

void LimbPool::release(std::uint64_t* cell) noexcept {
  if (enabled_ && free_count_ < kMaxFreeCells) {
    free_[free_count_++] = cell;
    return;
  }
  delete[] cell;
}

void LimbPool::set_enabled(bool enabled) { local().enabled_ = enabled; }

PoolStats LimbPool::stats() const {
  PoolStats s;
  s.acquires = acquires_;
  s.fresh_allocs = fresh_allocs_;
  s.reuses = reuses_;
  s.free_cells = free_count_;
  s.enabled = enabled_;
  return s;
}

void LimbPool::reset_stats() {
  acquires_ = 0;
  fresh_allocs_ = 0;
  reuses_ = 0;
}

LimbPool::~LimbPool() {
  while (free_count_ > 0) delete[] free_[--free_count_];
}

std::uint64_t* CellLease::carve(std::size_t words) {
  if (words > capacity_ - used_) {
    throw std::logic_error("LimbPool cell exhausted (kernel sizing bug)");
  }
  std::uint64_t* out = cell_ + used_;
  used_ += words;
  return out;
}

}  // namespace pcl::kern
