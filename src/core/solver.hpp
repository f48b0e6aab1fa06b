#pragma once
// The coupled DSMC/PIC solver — the paper's Fig. 1 workflow on the virtual
// distributed machine:
//
//   Init -> per DSMC step:
//     Inject -> DSMC_Move -> DSMC_Exchange -> Reindex -> Colli_React
//       -> { PIC_Move -> PIC_Exchange -> Poisson_Solve } x pic_substeps
//       -> Rebalance (dynamic load balancer, Algorithm 1)
//
// Only the coarse grid is decomposed (the fine PIC grid is nested, Fig. 2);
// each rank simulates the particles living in its coarse cells and the
// Poisson rows of its owned fine-grid nodes. Setting nranks = 1 yields the
// serial reference implementation used by the validation experiment.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "balance/rebalancer.hpp"
#include "core/case_geometry.hpp"
#include "core/config.hpp"
#include "dsmc/collide.hpp"
#include "dsmc/injector.hpp"
#include "dsmc/mover.hpp"
#include "dsmc/sampling.hpp"
#include "linalg/dist.hpp"
#include "mesh/refine.hpp"
#include "obs/step_record.hpp"
#include "par/runtime.hpp"
#include "pic/deposit.hpp"
#include "pic/fine_grid.hpp"
#include "pic/node_exchange.hpp"
#include "pic/poisson.hpp"
#include "support/kernel_exec.hpp"

namespace dsmcpic::obs {
class HealthAuditor;
class HostProfiler;
class TelemetryHub;
}

namespace dsmcpic::core {

/// Per-DSMC-step record (drives Fig. 5 / Fig. 9-style outputs and every
/// observability sink; see obs/step_record.hpp).
using StepDiagnostics = obs::StepRecord;

/// The one copy of a runtime phase's accounting into the sinks' plain form.
obs::PhaseRecord phase_record(const std::string& name,
                              const par::PhaseStats& stats);
/// The one copy of a policy decision into the sinks' plain form.
obs::DecisionRecord decision_record(const balance::PolicyDecision& d);

/// End-of-run accounting used by the bench harness.
struct RunSummary {
  double total_time = 0.0;  // end-to-end virtual seconds
  std::vector<std::string> phase_names;
  std::vector<par::PhaseStats> phase_stats;  // parallel to phase_names
  balance::RebalanceStats rebalance;
  /// Every periodic when-to-rebalance decision the policy made.
  std::vector<balance::PolicyDecision> decisions;
  /// Every periodic ensemble resize decision (empty unless elastic).
  std::vector<balance::EnsembleDecision> ensemble_decisions;
  std::int64_t final_particles = 0;
  std::uint64_t supersteps = 0;  // runtime supersteps executed end-to-end
  int active_ranks = 0;          // active count at end of run

  /// Sum of per-rank busy seconds across every phase — the "node-seconds"
  /// the run consumed (what an elastic ensemble tries to shrink).
  double busy_sum_total() const;

  double phase_max(const std::string& name) const;
};

class CoupledSolver {
 public:
  CoupledSolver(SolverConfig cfg, ParallelConfig par);
  /// Shares pre-built immutable geometry (coarse grid + nested refinement,
  /// including the FacePlane/BaryCache tables) across solver instances —
  /// the fleet service builds each scenario's meshes once and hands the
  /// same CaseGeometry to every concurrent run. `geom` must have been built
  /// from the SAME NozzleSpec as cfg.nozzle (checked); nullptr builds
  /// privately, identical to the two-argument constructor.
  CoupledSolver(SolverConfig cfg, ParallelConfig par,
                std::shared_ptr<const CaseGeometry> geom);
  ~CoupledSolver();

  /// Runs `n` DSMC steps (each containing cfg.pic_substeps PIC steps).
  void run(int n);
  /// One DSMC step; diagnostics are also appended to history().
  StepDiagnostics step();

  // ---- inspection --------------------------------------------------------
  par::Runtime& runtime() { return *rt_; }
  const par::Runtime& runtime() const { return *rt_; }
  const SolverConfig& config() const { return cfg_; }
  const ParallelConfig& parallel_config() const { return pcfg_; }
  const mesh::TetMesh& coarse_grid() const { return coarse_; }
  const pic::FineGrid& fine_grid() const { return *fine_; }
  const dsmc::SpeciesTable& species() const { return species_; }
  const dsmc::CellSampler& sampler() const { return sampler_; }
  std::span<const std::int32_t> owner() const { return owner_; }
  int current_step() const { return step_; }
  const std::vector<StepDiagnostics>& history() const { return history_; }
  const balance::RebalanceStats& rebalance_stats() const { return lb_stats_; }
  /// Timer-augmented cost model state (DESIGN.md §2h).
  const balance::CostModel& cost_model() const { return cost_model_; }
  /// When-to-rebalance policy state and its recorded decisions.
  const balance::RebalancePolicy& policy() const { return policy_; }
  /// Elastic-ensemble policy state and its recorded decisions (§2i).
  const balance::EnsemblePolicy& ensemble() const { return ensemble_; }
  /// Ranks currently participating (== nranks unless the ensemble shrank).
  int active_ranks() const { return active_; }
  /// Per-rank partition-adjacency neighbor lists (built for Strategy::
  /// kNeighbor; empty otherwise).
  const std::vector<std::vector<int>>& neighbors() const { return neighbors_; }

  std::vector<std::int64_t> particles_per_rank() const;
  std::int64_t total_particles() const;
  /// Read-only view of the per-rank particle stores (inspection/tests).
  const std::vector<dsmc::ParticleStore>& stores() const { return stores_; }
  /// Global electric potential on fine-grid nodes (last solve).
  const std::vector<double>& potential() const { return phi_global_; }

  RunSummary summary() const;

  // ---- observability (DESIGN.md §2f) -------------------------------------
  /// Attaches a health auditor; nullptr detaches. Audit hooks run on the
  /// driver thread between supersteps, read accounting state only (plus one
  /// read-only particle re-sum for the charge balance) and never draw
  /// randomness, so attaching an auditor cannot perturb golden digests or
  /// trace bytes. The auditor must outlive the attachment.
  void set_auditor(obs::HealthAuditor* auditor) { auditor_ = auditor; }
  obs::HealthAuditor* auditor() const { return auditor_; }

  /// Attaches a host wall-clock profiler; nullptr detaches. Every scope
  /// opens on the driver thread, one per row of the step (inject, move,
  /// exchange, reindex, sort, collide, deposit, audit, field_solve, sample,
  /// rebalance, record), so the rows are disjoint and sum to at most the
  /// wall time of step(). Samples live only in the profiler, strictly
  /// outside deterministic state.
  void set_host_profiler(obs::HostProfiler* prof) { prof_ = prof; }
  obs::HostProfiler* host_profiler() const { return prof_; }

  /// Attaches a live telemetry hub; nullptr detaches. Sampled once per DSMC
  /// step on the driver thread from accounting state only (same contract as
  /// the auditor: read-only, no randomness), so attaching a hub cannot
  /// perturb golden digests, traces or reports. On a HealthAuditor abort
  /// (or any error escaping step()), a fault-injection trip, or a park the
  /// hub's flight recorder is dumped to its postmortem path. The hub must
  /// outlive the attachment.
  void set_telemetry(obs::TelemetryHub* hub) { telemetry_ = hub; }
  obs::TelemetryHub* telemetry() const { return telemetry_; }

  // ---- checkpoint / restart ----------------------------------------------
  /// Writes the complete simulation state (particles, potential, ownership,
  /// RNG stream positions, accounting clocks) to a binary file. Call
  /// between steps.
  void save_checkpoint(const std::string& path) const;
  /// Restores state saved by save_checkpoint into a solver constructed with
  /// the SAME SolverConfig/ParallelConfig (verified by fingerprint).
  /// Continuing the run reproduces the uninterrupted run exactly.
  void restore_checkpoint(const std::string& path);

 private:
  void init();
  /// (Re)builds rank-local cell lists, node exchange, and the distributed
  /// Poisson operator for the current owner_ map; charges setup work under
  /// `phase` when charge_costs is true.
  void rebuild_parallel_structures(const std::string& phase, bool charge_costs);

  /// StepRecord counters a superstep body may add to: each body writes only
  /// its own rank's slot, and superstep() folds the slots into rec_.
  struct RankTally {
    std::int64_t injected = 0, exited_dsmc = 0, collisions = 0,
                 ionizations = 0, recombinations = 0, exited_pic = 0,
                 pic_lost = 0;
  };
  /// The one runner of the step's supersteps: opens the host-profiler
  /// `scope` on the driver thread (joining it when the caller's row already
  /// holds it open), runs `body` on every active rank under runtime `phase`
  /// with that rank's zeroed tally slot, then adds the slots into rec_ in
  /// rank order.
  void superstep(const char* scope, const std::string& phase,
                 const std::function<void(par::Comm&, RankTally&)>& body);

  /// Stage 1 of the step record, before the auditor closes the step: the
  /// end-of-step ledger, clocks and this step's exchange deltas.
  void close_record();
  /// Migration bytes and messages routed so far (DSMC + PIC exchange and
  /// rebalance migration); the step-boundary baseline is a copy of it.
  par::PhaseStats exchange_totals() const;
  /// Trace sink: feeds the attached recorder's per-step counters
  /// (particles/cells owned per rank, migration volume, lii) and marks
  /// rebalances as instant events. No-op without a recorder.
  void record_trace();
  /// Stage 2 of the step record, after the auditor closed the step, and the
  /// hub sink. No-op without a hub.
  void record_telemetry();
  /// step() body; step() wraps it to dump the flight recorder on abort.
  StepDiagnostics step_impl();

  /// Number of removal-flagged particles across all ranks — the drop count
  /// the next exchange must produce. Audit-only read.
  std::int64_t flagged_count() const;

  /// Routes every particle to `owner`'s rank under runtime `phase`, with
  /// the auditor's flagged/conservation books around it, in host `scope`.
  exchange::ExchangeStats audited_exchange(
      const char* scope, const char* phase,
      std::span<const std::int32_t> owner,
      const std::vector<std::vector<int>>* neighbors);

  // The step's rows, in order; each opens its own host-profiler scope.
  void do_inject();
  void do_dsmc_move();
  void do_reindex();
  void do_cell_sort();
  void do_colli_react(bool sorted);
  void do_pic_substep(int substep);
  void do_poisson_solve();
  void maybe_rebalance();
  /// Elastic-ensemble resize check at rebalance-period boundaries (§2i).
  void maybe_resize_ensemble();
  /// Repartitions into `target` parts, migrates particles, and resizes the
  /// runtime's active rank set (grow activates before migration so new
  /// ranks can receive; shrink migrates first so parked ranks drain).
  void resize_active(int target);

  /// Cumulative per-rank busy time at a step boundary: all phases, the
  /// particle migration and Poisson components (the lii window) and the
  /// particle-proportional phases (the cost model's window).
  struct BusyWindow {
    std::vector<double> total, pm, poi, particle;
  };
  BusyWindow busy_window() const;
  /// Live neutral / charged particle counts per coarse cell (Eq. 7 inputs).
  struct CellCounts {
    std::vector<std::int64_t> neutrals, charged;
  };
  CellCounts count_cell_particles() const;
  /// Static Eq.-7 predicted load per rank: N_r + R*C_r + W_cell * ncells_r.
  std::vector<double> predicted_rank_loads() const;

  SolverConfig cfg_;
  ParallelConfig pcfg_;

  dsmc::SpeciesTable species_;
  /// Owns the meshes (possibly shared with other solver instances); the
  /// references below alias into it so every existing call site reads
  /// `coarse_` / `refined_` unchanged. Declared before them: member init
  /// order is declaration order.
  std::shared_ptr<const CaseGeometry> geom_;
  const mesh::TetMesh& coarse_;
  const mesh::RefinedMesh& refined_;
  std::unique_ptr<pic::FineGrid> fine_;
  partition::Graph dual_;

  std::unique_ptr<par::Runtime> rt_;
  int active_ = 0;                              // active rank prefix [0, n)
  std::vector<std::int32_t> owner_;             // coarse cell -> rank
  std::vector<std::vector<std::int32_t>> my_cells_;  // per rank (nominal size;
                                                     // parked lists empty)
  std::vector<std::vector<int>> neighbors_;     // partition adjacency (NC)

  std::vector<dsmc::ParticleStore> stores_;          // per rank
  std::vector<std::vector<std::uint8_t>> removed_;   // per rank flags

  // Intra-rank kernel executor (a view of the runtime's pool) and per-rank
  // reusable scratch so chunking allocates nothing in steady state.
  support::KernelExec kexec_;
  std::vector<dsmc::CellIndex> cell_index_;  // per rank, Reindex→Colli_React
  std::vector<dsmc::CollideScratch> collide_scratch_;
  std::vector<pic::DepositScratch> deposit_scratch_;
  std::vector<dsmc::SortScratch> sort_scratch_;      // periodic cell sort

  std::unique_ptr<dsmc::MaxwellianInjector> inject_h_;
  std::unique_ptr<dsmc::MaxwellianInjector> inject_hplus_;
  std::unique_ptr<dsmc::Mover> mover_;
  std::unique_ptr<dsmc::Chemistry> chemistry_;
  std::unique_ptr<dsmc::CollisionKernel> collide_;

  std::unique_ptr<pic::PoissonSystem> psys_;
  std::unique_ptr<pic::NodeExchange> nodex_;
  linalg::DistMatrix dmat_;
  // Per rank: NodeExchange local index of each owned Poisson row.
  std::vector<std::vector<std::int32_t>> owned_node_li_;
  linalg::DistVector x_;                        // per-rank owned phi (warm)
  std::vector<std::vector<double>> phi_local_;  // per-rank, rank_nodes order
  std::vector<double> phi_global_;              // driver-side mirror

  dsmc::CellSampler sampler_;

  int step_ = 0;
  int steps_since_rebalance_ = 0;
  par::PhaseStats prev_exch_;  // exchange_totals() at the last step boundary
  BusyWindow prev_busy_;  // busy_window() at the last step boundary
  std::vector<double> prev_predicted_;  // last step's static wlm per rank
  balance::RebalanceStats lb_stats_;
  balance::CostModel cost_model_;
  balance::RebalancePolicy policy_;
  balance::EnsemblePolicy ensemble_;
  std::vector<StepDiagnostics> history_;
  StepDiagnostics rec_;             // the step in progress
  std::vector<RankTally> tally_;    // per rank, reset by every superstep()

  obs::HealthAuditor* auditor_ = nullptr;  // not owned
  obs::HostProfiler* prof_ = nullptr;      // not owned
  obs::TelemetryHub* telemetry_ = nullptr;  // not owned
  bool fault_fired_ = false;  // a fault-injection site was reached
};

}  // namespace dsmcpic::core
