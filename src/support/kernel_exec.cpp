#include "support/kernel_exec.hpp"

#include <algorithm>

namespace dsmcpic::support {

namespace {
// A few chunks per lane lets the pool's dynamic index claiming absorb
// per-chunk cost imbalance; the cap bounds caller-side per-chunk scratch
// (stack arrays of MoveStats etc.) at a fixed small size.
constexpr int kChunksPerLane = 4;
constexpr int kMaxChunks = 64;
}  // namespace

int KernelExec::num_chunks(std::int64_t n) const {
  if (serial() || n <= 1) return 1;
  const std::int64_t want = std::min<std::int64_t>(
      static_cast<std::int64_t>(threads()) * kChunksPerLane, kMaxChunks);
  return static_cast<int>(std::min(n, want));
}

void KernelExec::for_tasks(int ntasks, const std::function<void(int)>& fn) const {
  if (ntasks <= 0) return;
  if (serial() || ntasks == 1) {
    for (int t = 0; t < ntasks; ++t) fn(t);
    return;
  }
  pool_->parallel_for(ntasks, fn);
}

void KernelExec::for_chunks(
    std::int64_t n,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) const {
  if (n <= 0) return;
  const int nc = num_chunks(n);
  if (nc == 1) {
    fn(0, 0, n);
    return;
  }
  pool_->parallel_for(nc, [&](int c) {
    fn(c, chunk_begin(n, nc, c), chunk_begin(n, nc, c + 1));
  });
}

}  // namespace dsmcpic::support
