#include "support/thread_pool.hpp"

#include <algorithm>

namespace dsmcpic::support {

namespace {
// Pool this thread is currently draining tasks for, if any. Lets a nested
// parallel_for on the same pool fall back to inline execution instead of
// deadlocking on batch_mu_.
thread_local const ThreadPool* g_draining_pool = nullptr;

struct DrainScope {
  const ThreadPool* prev;
  explicit DrainScope(const ThreadPool* p) : prev(g_draining_pool) {
    g_draining_pool = p;
  }
  ~DrainScope() { g_draining_pool = prev; }
};
}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 0; t < threads - 1; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::record_error() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_) error_ = std::current_exception();
}

void ThreadPool::drain(const std::function<void(int)>& fn, int n) {
  DrainScope scope(this);
  for (;;) {
    int i;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (next_ >= n) return;
      i = next_++;
    }
    try {
      fn(i);
    } catch (...) {
      record_error();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* fn;
    int n;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = task_;
      n = ntasks_;
    }
    drain(*fn, n);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) cv_done_.notify_one();
    }
  }
}

bool ThreadPool::in_batch() const { return g_draining_pool == this; }

void ThreadPool::parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1 || in_batch()) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> batch(batch_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &fn;
    ntasks_ = n;
    next_ = 0;
    active_ = static_cast<int>(workers_.size());
    error_ = nullptr;
    ++generation_;
  }
  cv_start_.notify_all();
  drain(fn, n);
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return active_ == 0; });
    task_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace dsmcpic::support
