#pragma once
// Fixed-size worker pool: the one pool par::Runtime owns per solver, shared
// by superstep rank dispatch and the intra-rank kernel executor.
//
// The pool exists for exactly one call shape: parallel_for(n, fn) runs
// fn(0..n-1) across the workers plus the calling thread and returns when
// every index has finished. Indices are claimed dynamically from a shared
// atomic counter, so the *schedule* is nondeterministic — callers must
// ensure fn(i) and fn(j) touch disjoint state (the BSP runtime guarantees
// this by giving every rank its own clock slot, busy slot, and staging
// buffer; see DESIGN.md §2c). The first exception thrown by any index is
// captured and rethrown on the calling thread after the batch drains.
//
// Dispatch rules (DESIGN.md §2c, one thread budget):
//  * Concurrent external callers are legal: batches are serialized on an
//    internal mutex.
//  * Nested calls (parallel_for from inside an fn running on this pool)
//    degrade to inline serial execution instead of deadlocking on the
//    batch mutex. This is what lets one pool serve both levels: kernels
//    inside rank bodies that run on the pool take their inline path.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dsmcpic::support {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining lane).
  /// `threads <= 0` means one lane per hardware thread.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n) and blocks until all complete.
  /// Callable from multiple threads (batches serialize); a nested call from
  /// inside fn on the same pool runs its indices inline on that thread.
  void parallel_for(int n, const std::function<void(int)>& fn);

  /// True on a thread that is running an index of one of this pool's
  /// batches (a worker or the batch's caller): parallel_for runs inline.
  bool in_batch() const;

 private:
  void worker_loop();
  void drain(const std::function<void(int)>& fn, int n);
  void record_error();

  std::vector<std::thread> workers_;

  std::mutex batch_mu_;  // serializes whole batches from external callers
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* task_ = nullptr;  // valid while batch runs
  int ntasks_ = 0;
  int next_ = 0;           // next unclaimed index (guarded by mu_)
  int active_ = 0;         // workers still inside the current batch
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;  // first exception of the current batch
};

}  // namespace dsmcpic::support
