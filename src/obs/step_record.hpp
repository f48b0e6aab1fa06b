#pragma once
// The one per-step record (DESIGN.md §2f, docs/observability.md §6.6). The
// solver fills one StepRecord per DSMC step and every sink reads it: the
// trace's metric counters, the TelemetryHub (series, flight recorder,
// exposition), the run report's step totals and the fleet's streaming
// digest. No sink keeps a copy of its own or a baseline of its own.
//
// The record is plain values so this module stays below core, par and
// balance in the layer graph; the two copies out of those layers
// (par::PhaseStats -> PhaseRecord, balance::PolicyDecision ->
// DecisionRecord) live in core/solver.cpp, once each.

#include <cstdint>
#include <string>
#include <vector>

namespace dsmcpic::obs {

/// Cumulative virtual-time accounting of one runtime phase.
struct PhaseRecord {
  std::string name;
  double busy_max = 0.0;
  double busy_min = 0.0;
  double busy_sum = 0.0;
  std::uint64_t transactions = 0;
  double bytes = 0.0;
};

/// One when-to-rebalance decision of the balancer's policy.
struct DecisionRecord {
  int step = 0;
  double lii = 0.0;
  double imbalance_per_step = 0.0;
  double projected_imbalance_cost = 0.0;
  double rebalance_cost_estimate = 0.0;
  bool rebalance = false;
};

/// Everything the solver knows about one DSMC step. Filled in two stages:
/// the first before the health auditor closes the step (so an aborted step
/// still reaches the trace), the second after it (so the telemetry carries
/// the step's audit tallies). Every field except message_arena_bytes
/// derives from deterministic virtual state and is bit-identical across
/// exec backends; the arena size is host state (a restored run starts with
/// empty arenas).
struct StepRecord {
  // ---- stage 1: every step ------------------------------------------------
  int dsmc_step = 0;
  std::vector<std::int64_t> particles_per_rank;  // alive at step end
  std::int64_t total_h = 0;
  std::int64_t total_hplus = 0;
  std::int64_t injected = 0;
  std::int64_t migrated_dsmc = 0;
  std::int64_t migrated_pic = 0;
  std::int64_t collisions = 0;
  std::int64_t ionizations = 0;
  std::int64_t recombinations = 0;
  std::int64_t exited_dsmc = 0;  // neutrals removed through inlet/outlet
  std::int64_t exited_pic = 0;   // charged particles removed at boundaries
  std::int64_t pic_lost = 0;     // charged particles the fine locate lost
  int poisson_iterations = 0;    // last PIC substep
  double lii = 0.0;              // load imbalance indicator this step
  bool rebalanced = false;

  std::uint64_t supersteps = 0;  // runtime supersteps executed so far
  double virtual_time = 0.0;     // end-to-end virtual seconds so far
  int active_ranks = 0;
  /// Migration bytes / messages routed this step (DSMC + PIC exchange and
  /// rebalance migration), against the solver's one step-boundary baseline.
  double exchange_bytes = 0.0;
  std::uint64_t exchange_messages = 0;

  // ---- stage 2: only while a TelemetryHub is attached ----------------------
  std::vector<PhaseRecord> phases;  // cumulative, runtime phase order
  std::uint64_t message_arena_bytes = 0;  // par::Runtime::arena_bytes()
  /// Cost-model per-rank correction factors over the active set (1.0
  /// everywhere on the static model).
  double cost_scale_min = 1.0;
  double cost_scale_max = 1.0;
  double cost_scale_mean = 1.0;
  std::vector<DecisionRecord> decisions;  // made at this step
  std::int64_t audit_checks = 0;          // cumulative; 0 without an auditor
  std::int64_t audit_violations = 0;

  /// Particles alive across all ranks at step end.
  std::int64_t particles() const;
};

/// Run totals of the per-step ledger. The run report's `steps` section and
/// the hub's counters both accumulate records through add().
struct StepTotals {
  std::int64_t injected = 0;
  std::int64_t migrated_dsmc = 0;
  std::int64_t migrated_pic = 0;
  std::int64_t collisions = 0;
  std::int64_t ionizations = 0;
  std::int64_t recombinations = 0;
  std::int64_t exited = 0;  // exited_dsmc + exited_pic
  std::int64_t pic_lost = 0;
  std::int64_t rebalances = 0;
  double exchange_bytes = 0.0;
  std::uint64_t exchange_messages = 0;

  void add(const StepRecord& r);
};

}  // namespace dsmcpic::obs
