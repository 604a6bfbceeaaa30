// Shared worker pool for crypto fan-out: query lanes of a batch, and the
// elements of one vector at deployment key widths.
//
// Batched protocol rounds coalesce Q queries' payloads into one frame; the
// per-lane crypto (encryptions, blinding, zero-tests) is independent across
// lanes, so a party program hands the lane loop to this pool instead of
// running it serially.  The workers are plain threads that persist across
// rounds: a batched query makes hundreds of fan-out calls, and respawning
// workers per call would dominate the win.
//
// A one-lane query (Q = 1) has no lanes to spread, but at deployment widths
// each element of its vector crypto costs milliseconds and is independent
// of the others: the decryptions, S2's zero-tests, and the exponentiations
// of each DGK comparison's bit encryptions and blinded sequence, whose Rng
// and stream draws are made first, in order, on the calling thread.
// for_each_element() runs them on the shared pool when the public modulus
// has at least kElementFanOutMinBits bits.  Below that an element costs
// microseconds, less than a dispatch, and runs inline in index order.
//
// Observability: run() snapshots the submitting thread's observer binding
// (obs::current_observer) and each worker installs it for the duration of a
// lane, so spans opened and ops counted inside fn attribute to the
// submitting party and step exactly as in the sequential path.  The
// submitting thread participates in the lane loop itself (it would
// otherwise idle), which also makes a zero-worker pool valid.
//
// Concurrent run() calls from different party threads serialize on the one
// job slot; lanes within a job run concurrently.  A run() issued from a
// thread that is already running a lane — a worker, or the submitter inside
// its own job — runs every inner lane inline on that thread: the job slot
// it would wait for is held by its own job.  So a lane of a Q > 1 batch
// that reaches for_each_element() decrypts serially, and the pool's threads
// stay busy with lanes.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace pcl {

class LanePool {
 public:
  /// Spawns `threads` persistent workers (0 is valid: run() then executes
  /// every lane on the submitting thread).
  explicit LanePool(std::size_t threads);
  ~LanePool();
  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  /// Runs fn(lane) for every lane in [0, lanes), blocking until all lanes
  /// finish.  The first exception thrown by any lane cancels the unclaimed
  /// remainder and is rethrown here.  fn must be safe to call concurrently
  /// for distinct lanes.  Called from inside a lane, it runs inline.
  void run(std::size_t lanes, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Process-wide pool sized to the hardware, shared by every batched party
  /// program in the process (the two servers run in one process on the
  /// in-process and threaded transports; sharing keeps total threads
  /// bounded).
  [[nodiscard]] static LanePool& shared();

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    obs::ObserverSnapshot snapshot;
    std::size_t lanes = 0;
    std::size_t next = 0;    // next unclaimed lane
    std::size_t active = 0;  // lanes claimed but not yet finished
    std::exception_ptr error;
  };

  void worker_main();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a job has unclaimed lanes
  std::condition_variable done_cv_;  // submitter: all lanes finished
  std::condition_variable idle_cv_;  // next submitter: job slot free
  Job job_;
  std::uint64_t job_id_ = 0;  // bumped per run() so workers spot new work
  bool busy_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Public-modulus width from which one element's crypto outweighs a pool
/// dispatch: a 1024-bit Paillier decryption costs about 0.7 ms, and one bit
/// of a comparison under a 2048-bit DGK n about 0.1 ms on each server (S1's
/// negation, 3W and blinding; S2's zero-test), while an element at the
/// paper's 64-bit Paillier and 192-bit DGK keys costs a few microseconds.
inline constexpr std::size_t kElementFanOutMinBits = 1024;

/// Runs fn(i) for every i in [0, count): on LanePool::shared() when
/// `modulus_bits` — the bit length of a PUBLIC modulus — reaches
/// kElementFanOutMinBits, inline in index order otherwise.  fn must write
/// only its own element's result.
void for_each_element(std::size_t modulus_bits, std::size_t count,
                      const std::function<void(std::size_t)>& fn);

}  // namespace pcl
