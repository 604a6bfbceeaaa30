#include "mpc/lane_pool.h"

#include <algorithm>

namespace pcl {
namespace {

// True while this thread runs a lane of some job, as a pool worker or as
// the submitter inside its own job.  A run() issued there runs inline: the
// job slot it would wait for is held by the very job this lane belongs to.
thread_local bool t_in_lane = false;

}  // namespace

LanePool::LanePool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

LanePool::~LanePool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

LanePool& LanePool::shared() {
  // Leaked singleton: party threads may still be unwinding at process exit.
  // On a single-core host workers only add context switches (the submitter
  // already claims lanes itself), so the pool runs inline there.
  const std::size_t cores = std::thread::hardware_concurrency();
  static LanePool* pool = new LanePool(cores >= 2 ? cores : 0);
  return *pool;
}

void LanePool::worker_main() {
  t_in_lane = true;  // a worker only ever runs lanes
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stopping_ || (job_id_ != seen && job_.next < job_.lanes);
    });
    if (stopping_) return;
    seen = job_id_;
    while (job_.next < job_.lanes) {
      const std::size_t lane = job_.next++;
      ++job_.active;
      lock.unlock();
      try {
        // Attribute this lane's spans/ops to the submitting party.
        const obs::ObserverScope scope(job_.snapshot);
        (*job_.fn)(lane);
        lock.lock();
      } catch (...) {
        lock.lock();
        if (!job_.error) job_.error = std::current_exception();
        job_.next = job_.lanes;  // cancel the unclaimed remainder
      }
      --job_.active;
      if (job_.next >= job_.lanes && job_.active == 0) done_cv_.notify_all();
    }
  }
}

void LanePool::run(std::size_t lanes,
                   const std::function<void(std::size_t)>& fn) {
  if (lanes == 0) return;
  if (t_in_lane) {
    for (std::size_t lane = 0; lane < lanes; ++lane) fn(lane);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return !busy_; });
  busy_ = true;
  job_.fn = &fn;
  job_.snapshot = obs::current_observer();
  job_.lanes = lanes;
  job_.next = 0;
  job_.active = 0;
  job_.error = nullptr;
  ++job_id_;
  work_cv_.notify_all();
  // The submitting thread claims lanes too (its observer is already
  // installed, so no snapshot scope here).  No lane exception escapes the
  // loop, so the flag is always cleared after it.
  t_in_lane = true;
  while (job_.next < job_.lanes) {
    const std::size_t lane = job_.next++;
    ++job_.active;
    lock.unlock();
    try {
      fn(lane);
      lock.lock();
    } catch (...) {
      lock.lock();
      if (!job_.error) job_.error = std::current_exception();
      job_.next = job_.lanes;
    }
    --job_.active;
  }
  t_in_lane = false;
  done_cv_.wait(lock, [&] { return job_.active == 0; });
  const std::exception_ptr error = job_.error;
  job_.fn = nullptr;
  busy_ = false;
  idle_cv_.notify_one();
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void for_each_element(std::size_t modulus_bits, std::size_t count,
                      const std::function<void(std::size_t)>& fn) {
  if (modulus_bits >= kElementFanOutMinBits) {
    LanePool::shared().run(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

}  // namespace pcl
