#include "obs/host_profiler.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>

namespace dsmcpic::obs {

namespace {
// Per-thread nesting stack: holds the '/'-joined path of open scopes on
// this thread. Thread-local so concurrent superstep bodies and kernel
// chunks on the runtime's pool never observe each other's nesting.
thread_local std::string t_scope_path;
}  // namespace

double HostProfiler::now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

HostProfiler::Scope::Scope(HostProfiler* prof, const char* name)
    : prof_(prof) {
  if (!prof_) return;
  const std::size_t last = t_scope_path.find_last_of('/');
  const std::string_view innermost =
      std::string_view(t_scope_path)
          .substr(last == std::string::npos ? 0 : last + 1);
  if (!t_scope_path.empty() && innermost == name) {
    prof_ = nullptr;  // joins the open scope of the same name
    return;
  }
  if (!t_scope_path.empty()) t_scope_path += '/';
  t_scope_path += name;
  t0_ms_ = now_ms();
}

HostProfiler::Scope::~Scope() {
  if (!prof_) return;
  const double ms = now_ms() - t0_ms_;
  prof_->record(t_scope_path, ms);
  const std::size_t slash = t_scope_path.find_last_of('/');
  t_scope_path.resize(slash == std::string::npos ? 0 : slash);
}

void HostProfiler::record(const std::string& kernel, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[kernel].push_back(ms);
  total_ms_sum_ += ms;
}

std::map<std::string, HostProfiler::KernelStats> HostProfiler::stats() const {
  std::map<std::string, std::vector<double>> copy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    copy = samples_;
  }
  std::map<std::string, KernelStats> out;
  for (auto& [name, vals] : copy) {
    std::sort(vals.begin(), vals.end());
    KernelStats s;
    s.count = static_cast<std::int64_t>(vals.size());
    for (const double v : vals) s.total_ms += v;
    s.min_ms = vals.front();
    s.max_ms = vals.back();
    // Nearest-rank percentile: ceil(p * n) - 1.
    const auto rank = [&](double p) {
      const auto n = static_cast<std::int64_t>(vals.size());
      std::int64_t k = static_cast<std::int64_t>(p * static_cast<double>(n));
      if (static_cast<double>(k) < p * static_cast<double>(n)) ++k;
      return vals[static_cast<std::size_t>(std::max<std::int64_t>(k - 1, 0))];
    };
    s.p50_ms = rank(0.50);
    s.p95_ms = rank(0.95);
    out.emplace(name, s);
  }
  return out;
}

std::int64_t HostProfiler::sample_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const auto& [name, vals] : samples_) n += static_cast<std::int64_t>(vals.size());
  return n;
}

double HostProfiler::total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ms_sum_;
}

void HostProfiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  total_ms_sum_ = 0.0;
}

}  // namespace dsmcpic::obs
