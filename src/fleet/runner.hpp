#pragma once
// FleetRunner — the simulation-fleet service (DESIGN.md §2j): N independent
// solver runs served concurrently from one process.
//
// Execution model: `slots` lanes on one support::ThreadPool, one run per
// slot. The runner schedules in rounds — every queued job gets a lease, a
// lease steps its solver up to `lease_steps` DSMC steps (or to its park
// point, or to completion), then either finishes the run or checkpoints it
// (checkpoint v4) and requeues it in deterministic job order. Because every
// run is a self-contained deterministic solver and the digest/report bytes
// never depend on wall-clock, results are bit-identical for ANY slot count,
// lease length, or completion order.
//
// Preemption protocol: a lease that stops early writes
//   <run_dir>/checkpoint.bin   — full solver state at the step boundary
//   <run_dir>/lease.bin        — fleet-side carry: digest state (one u64 of
//                                streaming FNV), cumulative step totals,
//                                job identity
// and frees its slot. park_at > 0 parks the run there for good (this
// runner will not requeue it); a fresh FleetRunner — possibly another
// process — picks it up with add_resume(run_dir) and produces the same
// final digest and run_report.json bytes as an uninterrupted run.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/scenario.hpp"
#include "fleet/shared_assets.hpp"
#include "obs/run_report.hpp"

namespace dsmcpic::fleet {

struct FleetJob {
  std::string scenario;    // corpus name (ScenarioCorpus::by_name)
  int steps = 0;           // 0 = scenario default
  int ranks = 0;           // 0 = scenario default
  std::uint64_t seed = 42;
  /// Preempt the run for good at this DSMC step (> 0): checkpointed, slot
  /// freed, left parked for add_resume(). 0 = run to completion.
  int park_at = 0;
};

struct FleetOptions {
  int slots = 4;
  /// Per-run output root: <results_dir>/<run_id>/ gets run_report.json +
  /// digest.txt on completion (plus checkpoint.bin/lease.bin while parked),
  /// and <results_dir>/fleet_summary.json indexes the fleet. Empty keeps
  /// results in memory only — then leases and park_at are unavailable
  /// (preemption needs a checkpoint on disk).
  std::string results_dir;
  /// Preemption granularity: max DSMC steps per lease (0 = to completion).
  int lease_steps = 0;
  std::string machine = "tianhe2";
  int threads = 1;     // per-run thread budget, see ParallelConfig::threads
  int sort_every = 8;  // digest-invariant, see SolverConfig::sort_every
  /// Live telemetry (docs/observability.md §6). With a results dir, every
  /// lease runs under a TelemetryHub publishing <run_dir>/metrics.prom +
  /// metrics.json every `metrics_interval` steps; a parked run dumps
  /// <run_dir>/postmortem.json. Telemetry never perturbs digests/reports.
  bool telemetry = false;
  int metrics_interval = 10;
  int flight_recorder = 32;
};

enum class RunState { kPending, kParked, kDone };

struct FleetRunResult {
  std::string run_id;
  std::string scenario;
  RunState state = RunState::kPending;
  int steps_done = 0;
  int steps_total = 0;
  int leases = 0;
  std::uint64_t digest = 0;  // golden digest; valid when state == kDone
  std::int64_t final_particles = 0;
  double virtual_seconds = 0.0;  // end-to-end virtual time
  double wall_ms = 0.0;          // host time across this runner's leases
};

struct FleetStats {
  int slots = 0;
  std::int64_t runs_total = 0;
  std::int64_t runs_done = 0;
  std::int64_t runs_parked = 0;
  double wall_ms = 0.0;  // run_all() end to end
  double busy_ms = 0.0;  // summed lease time across slots
  double slot_utilization = 0.0;  // busy / (slots * wall)
  double runs_per_sec = 0.0;      // completed runs per wall second
  SharedAssets::Stats cache;
};

class FleetRunner {
 public:
  /// `assets` may be shared across runners; nullptr creates a private
  /// registry.
  explicit FleetRunner(FleetOptions opt,
                       std::shared_ptr<SharedAssets> assets = nullptr);
  ~FleetRunner();

  const ScenarioCorpus& corpus() const { return corpus_; }
  SharedAssets& assets() { return *assets_; }

  /// Queues a job; returns its deterministic run id ("run000-<scenario>",
  /// numbered in add order). Creates <results_dir>/<run_id>/ eagerly.
  std::string add(const FleetJob& job);

  /// Queues a run parked by a previous FleetRunner: reads <run_dir>/
  /// lease.bin + checkpoint.bin and continues it to completion. Outputs
  /// keep landing in `run_dir` (the fleet summary of THIS runner indexes it
  /// under its original run id).
  std::string add_resume(const std::string& run_dir);

  /// Runs every queued job to completion (or its park point) on the slot
  /// pool. Returns per-run results in add order regardless of completion
  /// order, and writes <results_dir>/fleet_summary.json when a results dir
  /// is configured. The summary (plus <results_dir>/fleet_metrics.prom,
  /// the fleet-level Prometheus exposition with per-run labels and live
  /// slot/progress gauges) is republished ATOMICALLY after every lease, so
  /// an interrupted fleet always leaves a valid partial summary behind —
  /// not only after all runs complete. Call once.
  std::vector<FleetRunResult> run_all();

  /// Scheduling/throughput counters of the last run_all().
  const FleetStats& stats() const { return stats_; }

 private:
  struct JobState;

  void run_lease(JobState& js);
  void finish_run(JobState& js, core::CoupledSolver& solver);
  void write_lease(const JobState& js) const;
  static FleetRunResult make_result(const JobState& js);
  /// Renders + atomically publishes fleet_summary.json and
  /// fleet_metrics.prom for the given per-run snapshot.
  void write_fleet_summary(const std::vector<FleetRunResult>& results) const;
  void write_fleet_metrics(const std::vector<FleetRunResult>& results) const;
  /// Copies job `idx`'s state into the shared progress snapshot and
  /// republishes both fleet files. Thread-safe (one lock for snapshot +
  /// write, so concurrent leases serialize their publications).
  void publish_progress(std::size_t idx);

  FleetOptions opts_;
  std::shared_ptr<SharedAssets> assets_;
  ScenarioCorpus corpus_;
  std::vector<std::unique_ptr<JobState>> jobs_;
  FleetStats stats_;
  mutable std::mutex publish_mu_;
  std::vector<FleetRunResult> progress_;  // guarded by publish_mu_
};

}  // namespace dsmcpic::fleet
