// Pooled limb buffers for the Montgomery kernel.
//
// Every hot bigint operation used to pay one or more heap allocations for
// its temporaries (the double-width product vector in REDC, the window
// table in pow, conversion scratch).  The pool replaces that churn with a
// per-thread free list of fixed CELL-sized buffers: a kernel operation
// acquires one cell, carves all of its temporaries out of it, and returns
// it on scope exit.  After the first few operations on a thread the free
// list is warm and the steady state performs zero heap allocations per
// modular multiply (LimbPool::stats() proves it; bench_micro_crypto's
// ModMul pool on/off pair quantifies it).
//
// Thread-safety contract: the pool is strictly thread-local — cells never
// migrate between threads, so acquire/release take no locks.  A cell must
// be released on the thread that acquired it (CellLease enforces this by
// construction: it is neither copyable nor movable).  Cells live until the
// owning thread exits; lane-pool worker threads therefore keep their warm
// free lists across protocol executions.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pcl::kern {

/// Fixed cell size, in 64-bit words.  Sized for a 2^6-entry window table at
/// a 64-word (4096-bit) modulus plus CIOS scratch and conversion buffers,
/// which covers every protocol width; an operation that needs more leases
/// a heap buffer of its own size instead (see CellLease).
inline constexpr std::size_t kCellWords = 4480;

struct PoolStats {
  std::uint64_t acquires = 0;      ///< total acquire() calls
  std::uint64_t fresh_allocs = 0;  ///< acquires served by a heap allocation
  std::uint64_t reuses = 0;        ///< acquires served from the free list
  std::size_t free_cells = 0;      ///< cells currently parked in the list
  bool enabled = true;
};

/// Per-thread free list of kCellWords-word buffers.
class LimbPool {
 public:
  /// The calling thread's pool (constructed on first use).
  [[nodiscard]] static LimbPool& local();

  /// A cell of kCellWords words.  Contents are unspecified (callers must
  /// initialize what they use).  Pops the free list when possible.
  [[nodiscard]] std::uint64_t* acquire();

  /// Returns a cell to the free list (or frees it when pooling is
  /// disabled).  `cell` must have come from acquire() on this thread.
  void release(std::uint64_t* cell) noexcept;

  /// Thread-local ablation switch: when disabled, acquire() always heap-
  /// allocates and release() frees, modelling the unpooled kernel
  /// (bench_micro_crypto's BM_ModMulUnpooled).  Cells already parked stay
  /// parked until re-enabled.
  static void set_enabled(bool enabled);

  [[nodiscard]] PoolStats stats() const;
  void reset_stats();

  ~LimbPool();
  LimbPool(const LimbPool&) = delete;
  LimbPool& operator=(const LimbPool&) = delete;

 private:
  LimbPool() = default;

  // Free list as a raw array of cell pointers: release pushes, acquire
  // pops.  Bounded so a pathological burst cannot pin unbounded memory.
  static constexpr std::size_t kMaxFreeCells = 64;
  std::uint64_t* free_[kMaxFreeCells] = {};
  std::size_t free_count_ = 0;
  bool enabled_ = true;
  std::uint64_t acquires_ = 0;
  std::uint64_t fresh_allocs_ = 0;
  std::uint64_t reuses_ = 0;
};

/// RAII lease of scratch on the current thread: one pool cell when
/// `words` fits in kCellWords, otherwise a heap buffer of exactly `words`
/// words that bypasses the pool (only moduli above 64 words can need one).
class CellLease {
 public:
  explicit CellLease(std::size_t words = kCellWords)
      : pool_(words <= kCellWords ? &LimbPool::local() : nullptr),
        capacity_(pool_ != nullptr ? kCellWords : words),
        cell_(pool_ != nullptr ? pool_->acquire()
                               : new std::uint64_t[words]) {}
  ~CellLease() {
    if (pool_ != nullptr) {
      pool_->release(cell_);
    } else {
      delete[] cell_;
    }
  }
  CellLease(const CellLease&) = delete;
  CellLease& operator=(const CellLease&) = delete;

  [[nodiscard]] std::uint64_t* data() { return cell_; }
  /// Carves `words` words off the front of the remaining lease.  Throws
  /// std::logic_error if the lease is exhausted (a kernel sizing bug, not
  /// a runtime condition).
  [[nodiscard]] std::uint64_t* carve(std::size_t words);

 private:
  LimbPool* pool_;  // null for a heap buffer wider than one cell
  std::size_t capacity_;
  std::uint64_t* cell_;
  std::size_t used_ = 0;
};

}  // namespace pcl::kern
