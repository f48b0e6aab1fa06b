#pragma once
// Elastic rank ensembles (DESIGN.md §2i).
//
// Pigeon's dynamic balancer resizes the processor count per ensemble from
// observed load (calc_new_nprocs): when the work per processor is small the
// synchronization overhead dominates and fewer, fuller processors finish a
// step sooner; when work grows the ensemble expands again. Ported to the
// virtual runtime: the solver keeps a NOMINAL rank set (the machine it was
// given) but runs on an ACTIVE prefix the policy resizes between rebalance
// boundaries, with parked ranks skipped by superstep dispatch at zero
// virtual cost (par::Runtime::set_active_ranks).
//
// The model: one step on n active ranks costs roughly
//
//   T(n) = C/n + v * n
//
// where C is the total compute the step must do (perfectly divisible in the
// best case) and v is the per-rank share of synchronization/communication
// overhead (barriers, collectives, handshakes — all grow with the
// participant count). Both are observed, not assumed: C from the sum of
// per-rank compute cost, v from (step total time sum - compute sum) / n.
// T is minimized at n* = sqrt(C * n_cur / overhead_cur) — the policy moves
// toward n*, clamped to [ranks_min, ranks_max], at most doubling or halving
// per decision, with a hysteresis deadband so noise never thrashes the
// decomposition. All inputs are virtual time: decision sequences are
// deterministic and reproducible across thread budgets.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dsmcpic::balance {

enum class EnsembleKind { kFixed, kElastic };

const char* ensemble_name(EnsembleKind k);
/// Parses "fixed" / "elastic" (throws on anything else).
EnsembleKind parse_ensemble(const std::string& name);

struct EnsembleConfig {
  EnsembleKind kind = EnsembleKind::kFixed;
  /// Smallest active count the policy may choose (clamped to >= 1).
  int ranks_min = 1;
  /// Largest active count; 0 means the nominal rank count.
  int ranks_max = 0;
  /// Active count at init; 0 means start with every rank active. Honored
  /// for kFixed too (a fixed reduced ensemble on a larger nominal machine —
  /// how the bench measures O(active) dispatch).
  int initial = 0;
  /// EWMA weight of the newest compute/overhead sample.
  double ewma_alpha = 0.3;
  /// Resize deadband: move only when |n* - n| > hysteresis * n.
  double hysteresis = 0.25;
};

/// One resize decision, recorded for run_report.json and the tests.
struct EnsembleDecision {
  int step = 0;
  double compute_ewma = 0.0;   // C: summed per-step compute (EWMA)
  double overhead_ewma = 0.0;  // step time sum - compute sum (EWMA)
  int target = 0;              // chosen active count (== current if no move)
  bool resized = false;

  /// Field by field: the struct's padding bytes never reach a file.
  template <class Ar>
  void persist(Ar& ar) {
    ar(step, compute_ewma, overhead_ewma, target, resized);
  }
};

class EnsemblePolicy {
 public:
  EnsemblePolicy() : EnsemblePolicy(EnsembleConfig{}, 1) {}
  EnsemblePolicy(EnsembleConfig cfg, int nominal_ranks);

  const EnsembleConfig& config() const { return cfg_; }
  /// Active count to start the run with (cfg.initial resolved & clamped).
  int initial_active() const;

  /// Per-step observation: each ACTIVE rank's compute cost this step plus
  /// the summed total step time over active ranks (compute + comm + wait).
  void observe_step(std::span<const double> rank_compute, double step_total);

  /// The periodic resize decision (call at rebalance-period boundaries
  /// only, between supersteps). Returns the target active count — equal to
  /// `current_active` when the policy stays put. Appends to decisions().
  int decide(int step, int current_active);

  const std::vector<EnsembleDecision>& decisions() const { return decisions_; }
  int resizes() const { return resizes_; }

  /// Checkpoint fields (state must survive restart bit-for-bit).
  template <class Ar>
  void persist(Ar& ar) {
    ar(compute_ewma_, overhead_ewma_, has_observation_, resizes_, decisions_);
  }

 private:
  EnsembleConfig cfg_;
  int nominal_ = 1;
  double compute_ewma_ = 0.0;
  double overhead_ewma_ = 0.0;
  bool has_observation_ = false;
  int resizes_ = 0;
  std::vector<EnsembleDecision> decisions_;
};

}  // namespace dsmcpic::balance
