#pragma once
// Intra-rank kernel executor: chunks an index range [0, n) across the
// solver's one ThreadPool, which par::Runtime owns (DESIGN.md §2c).
//
// KernelExec is a non-owning view of that pool, and whether a call chunks
// is decided per call from what the pool observes. Move/deposit chunk over
// particles, collide/react over owned cells. When the runtime spreads rank
// bodies across the pool, a kernel inside a body already holds one of the
// pool's lanes, so it runs the one-chunk inline path (ThreadPool's
// nested-call rule). When bodies run in rank order on the driver, each
// kernel chunks across every lane.
//
// Determinism contract: callers must arrange that results are invariant
// under the chunk count (per-chunk accumulators reduced in chunk order,
// RNG streams keyed by particle/cell id, appends buffered per chunk and
// merged in chunk order). Chunk boundaries are pure arithmetic on (n,
// num_chunks) — no allocation, no scheduling dependence — so for_chunks
// adds no per-call state.

#include <cstdint>
#include <functional>

#include "support/thread_pool.hpp"

namespace dsmcpic::support {

class KernelExec {
 public:
  /// A view of `pool` (not owned). Null or a one-lane pool means serial.
  explicit KernelExec(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Lanes a chunked call spreads over.
  int threads() const { return pool_ ? pool_->num_threads() : 1; }
  /// True when calls from this thread run inline as one chunk: no pool, a
  /// one-lane pool, or a call from inside one of the pool's own batches.
  bool serial() const { return threads() <= 1 || pool_->in_batch(); }

  /// Number of chunks a range of n items is split into. 1 when serial or
  /// when the range is tiny; otherwise a few chunks per lane (capped) so
  /// dynamic index claiming can even out per-chunk cost imbalance.
  int num_chunks(std::int64_t n) const;

  /// Runs fn(chunk, begin, end) for each chunk covering [0, n). Chunks are
  /// half-open, contiguous, ascending, and their union is exactly [0, n).
  /// Serial calls run the single chunk inline on the calling thread.
  void for_chunks(std::int64_t n,
                  const std::function<void(int, std::int64_t, std::int64_t)>&
                      fn) const;

  /// Runs fn(task) for each task in [0, ntasks) — the fixed-task-count
  /// companion to for_chunks for callers that plan their own partition
  /// (cost-balanced collide chunks, the deposit's fixed reduction blocks).
  /// The task count is the caller's: it must NOT depend on the thread
  /// count when the caller's determinism contract requires a schedule
  /// that is invariant across thread settings. Serial calls run every
  /// task inline, in ascending order, on the calling thread.
  void for_tasks(int ntasks, const std::function<void(int)>& fn) const;

  /// Chunk boundary arithmetic, exposed so tests can assert coverage.
  static std::int64_t chunk_begin(std::int64_t n, int num_chunks, int chunk) {
    return n * chunk / num_chunks;
  }

 private:
  ThreadPool* pool_ = nullptr;
};

}  // namespace dsmcpic::support
