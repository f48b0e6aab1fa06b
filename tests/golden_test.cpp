// Golden regression digests: an FNV-1a 64-bit hash over every step
// diagnostic and the final virtual clocks, compared against checked-in
// values for a few representative configs. Any unintended change to the
// physics, the cost model, the RNG streams, or the superstep routing
// order shows up here as a digest mismatch — the failure message prints
// the new digest so an INTENDED change can be re-goldened deliberately.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "obs/health_auditor.hpp"
#include "obs/host_profiler.hpp"
#include "obs/telemetry.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::core {
namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

SolverConfig tiny_config() {
  Dataset d = make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

std::uint64_t run_digest(exchange::Strategy strategy, bool balance_enabled,
                         int threads = 1, bool traced = false,
                         bool audited = false, int sort_every = 0,
                         balance::CostModelKind cost_model =
                             balance::CostModelKind::kStatic,
                         balance::PolicyKind policy =
                             balance::PolicyKind::kThreshold,
                         bool telemetry = false) {
  ParallelConfig par;
  par.nranks = 6;
  par.strategy = strategy;
  par.balance.enabled = balance_enabled;
  par.balance.period = 3;
  par.balance.cost_model.kind = cost_model;
  par.balance.policy.kind = policy;
  par.threads = threads;
  obs::HealthAuditor auditor({obs::AuditSeverity::kAbort});
  obs::HostProfiler prof;
  SolverConfig cfg = tiny_config();
  cfg.sort_every = sort_every;
  CoupledSolver solver(cfg, par);
  trace::TraceRecorder rec(par.nranks);
  if (traced) solver.runtime().set_tracer(&rec);
  if (audited) {
    solver.set_auditor(&auditor);
    solver.set_host_profiler(&prof);
  }
  // Telemetry samples every step and keeps a flight recorder, but writes
  // nothing (empty paths) — the digest must not notice it exists.
  obs::TelemetryConfig tc;
  tc.metrics_interval = 1;
  obs::TelemetryHub hub(tc);
  if (telemetry) {
    hub.set_host_profiler(&prof);
    solver.set_telemetry(&hub);
  }
  solver.run(8);
  if (audited) {
    EXPECT_EQ(auditor.report().violations(), 0);
  }

  Fnv1a d;
  for (const StepDiagnostics& s : solver.history()) {
    d.i64(s.dsmc_step);
    for (const std::int64_t p : s.particles_per_rank) d.i64(p);
    d.i64(s.total_h);
    d.i64(s.total_hplus);
    d.i64(s.injected);
    d.i64(s.migrated_dsmc);
    d.i64(s.migrated_pic);
    d.i64(s.collisions);
    d.i64(s.ionizations);
    d.i64(s.recombinations);
    d.i64(s.poisson_iterations);
    d.f64(s.lii);
    d.i64(s.rebalanced ? 1 : 0);
  }
  for (int r = 0; r < solver.runtime().size(); ++r)
    d.f64(solver.runtime().clock(r));
  d.f64(solver.runtime().total_time());
  return d.value();
}

// Golden values harvested from the seed behavior of this repo. If a change
// is SUPPOSED to alter results (new physics, cost-model retune), rerun the
// test, verify the new numbers are intended, and update these constants in
// the same commit that explains why.
constexpr std::uint64_t kGoldenDcBalanced = 0xef94e5e11bc00cc4ULL;
constexpr std::uint64_t kGoldenDcUnbalanced = 0xf2d8975ddd0bec20ULL;
constexpr std::uint64_t kGoldenCcUnbalanced = 0x590b94314ef0aa30ULL;

TEST(Golden, DistributedWithRebalance) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

TEST(Golden, DistributedNoRebalance) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/false);
  EXPECT_EQ(got, kGoldenDcUnbalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

TEST(Golden, CentralizedNoRebalance) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kCentralized, /*balance=*/false);
  EXPECT_EQ(got, kGoldenCcUnbalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// Intra-rank kernel parallelism must hit the SAME golden value as the
// serial-kernel run — the knob is required to be invisible in every digest
// input (diagnostics and virtual clocks alike). 6 ranks on 8 lanes: every
// superstep runs its bodies on the caller and chunks kernels on the pool.
TEST(Golden, KernelThreadsFourMatchesSerialGolden) {
  const std::uint64_t got = run_digest(exchange::Strategy::kDistributed,
                                       /*balance=*/true, /*threads=*/8);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// Tracing (DESIGN.md §2e) claims pure observation: a trace-enabled run
// must hit the SAME golden value as the untraced run.
TEST(Golden, TraceEnabledMatchesSerialGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*threads=*/1, /*traced=*/true);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// Health audits + host profiling (DESIGN.md §2f) make the same claim:
// attaching both, at abort severity, must neither flag a violation nor
// move the digest off the golden value.
TEST(Golden, AuditsEnabledMatchSerialGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*threads=*/1, /*traced=*/false, /*audited=*/true);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// The telemetry hub (docs/observability.md §6) makes the same
// zero-perturbation claim as audits and traces: sampling every step into
// the series + flight recorder, with the host profiler attached, must not
// move the digest off the golden value.
TEST(Golden, TelemetryEnabledMatchesSerialGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*threads=*/1, /*traced=*/false, /*audited=*/true,
                 /*sort_every=*/0, balance::CostModelKind::kStatic,
                 balance::PolicyKind::kThreshold, /*telemetry=*/true);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// The periodic cell sort (DESIGN.md §2g) is pure memory-layout work: a run
// that sorts every step must hit the SAME golden value as the never-sorted
// run. This is the strongest form of the sort's determinism contract —
// stable permutation + cell-major canonical reindex + order-canonical
// deposit leave every digest input untouched.
TEST(Golden, SortEveryStepMatchesUnsortedGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*threads=*/1, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/1);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// An odd sort period composed with kernel chunking (6 ranks on 8 lanes) —
// both knobs at once must still be invisible (sorting changes the store
// order the kernels chunk over, so this exercises chunk-boundary
// independence on sorted layouts).
TEST(Golden, SortEverySevenWithKernelThreadsMatchesGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*threads=*/8, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/7);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// Same claim on the centralized-exchange golden (different communication
// shape feeding the stores between sorts).
TEST(Golden, SortedCentralizedMatchesUnsortedGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kCentralized, /*balance=*/false,
                 /*threads=*/1, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/2);
  EXPECT_EQ(got, kGoldenCcUnbalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// ---- Timer cost model + look-ahead policy (DESIGN.md §2h) ------------------

// The timer-augmented run has its own golden: measured corrections feed the
// partition weights, so its trajectory legitimately differs from the static
// one — but it must still be one fixed, reproducible trajectory.
constexpr std::uint64_t kGoldenDcTimerLookahead = 0x95971dad00b61899ULL;

// Keeping --cost-model static (the default) must NOT move the original
// goldens — the static path bypasses the cost model entirely. That claim is
// pinned by the unchanged kGoldenDcBalanced constants above; this test pins
// the explicit-static spelling to the same value.
TEST(GoldenCostModel, ExplicitStaticMatchesOriginalGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*threads=*/1, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/0, balance::CostModelKind::kStatic,
                 balance::PolicyKind::kThreshold);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

TEST(GoldenCostModel, TimerLookaheadIsReproducible) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*threads=*/1, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/0, balance::CostModelKind::kTimer,
                 balance::PolicyKind::kLookahead);
  EXPECT_EQ(got, kGoldenDcTimerLookahead)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// The determinism contract across thread budgets, in golden form: kernel
// chunking (6 ranks on 8 lanes) and, below, rank dispatch (6 ranks on 2
// lanes) with the periodic sort must be invisible to the timer-fed
// trajectory too (the corrections are pure virtual-time functions).
TEST(GoldenCostModel, TimerKernelThreadsMatchesTimerGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*threads=*/8, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/0, balance::CostModelKind::kTimer,
                 balance::PolicyKind::kLookahead);
  EXPECT_EQ(got, kGoldenDcTimerLookahead)
      << "new digest: 0x" << std::hex << got << "ULL";
}

TEST(GoldenCostModel, TimerSortedMatchesTimerGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*threads=*/2, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/2, balance::CostModelKind::kTimer,
                 balance::PolicyKind::kLookahead);
  EXPECT_EQ(got, kGoldenDcTimerLookahead)
      << "new digest: 0x" << std::hex << got << "ULL";
}

}  // namespace
}  // namespace dsmcpic::core
