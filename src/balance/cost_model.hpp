#pragma once
// Timer-augmented cost model for the rebalancer (DESIGN.md §2h).
//
// The paper's weighted load model (Eq. 7) predicts per-cell cost purely
// from particle counts: wlm_i = N_i + R*C_i + W_cell. That is a *static*
// model — it assumes every particle costs the same everywhere. In reality
// (and in our virtual-time cost model) particles in different regions do
// different amounts of work: inlet-side particles cross more faces per
// move, dense cells run more NTC candidates per particle, and so on.
// Following McDoniel & Bientinesi's timer-augmented cost function, the
// CostModel closes the loop from observability into the balancer: it
// watches the measured per-rank, per-phase *virtual-time* cost of each
// DSMC step, regresses it down to a per-rank correction factor against
// the static model's prediction (EWMA-smoothed over recent supersteps),
// and scales each cell's static weight by its owner's correction when the
// rebalancer asks for fresh partition weights.
//
// Determinism contract: every input is a deterministic function of the
// simulation (virtual-time busy counters and particle counts — never wall
// clock), so the produced weights, and therefore the rebalancer's
// decisions and the golden digests, are bit-identical run-to-run and
// across --threads / --sort-every.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace dsmcpic::balance {

/// Which weight model feeds the repartitioner.
///  * kStatic — the paper's Eq. 7, untouched (default-compatible path).
///  * kTimer  — Eq. 7 scaled by the measured per-rank correction.
///  * kHybrid — Eq. 7 scaled by a blend of 1 and the measured correction.
enum class CostModelKind { kStatic, kTimer, kHybrid };

const char* cost_model_name(CostModelKind k);
/// Parses "static" / "timer" / "hybrid" (throws on anything else).
CostModelKind parse_cost_model(const std::string& name);

struct CostModelConfig {
  CostModelKind kind = CostModelKind::kStatic;
  /// EWMA weight of the newest per-rank correction sample. Tuned on the
  /// fig05/fig13 lanes: smaller values lag the (fast-moving) population,
  /// larger ones chase one-window noise.
  double ewma_alpha = 0.4;
  /// Timer share in kHybrid: 0 reproduces kStatic, 1 reproduces kTimer.
  double hybrid_blend = 0.5;
  /// Correction factors are clamped to [min_scale, max_scale] before
  /// smoothing, so one noisy window cannot blow up the partition weights.
  double min_scale = 0.25;
  double max_scale = 4.0;
};

/// Per-rank correction factors learned from measured phase timings.
class CostModel {
 public:
  CostModel() = default;
  CostModel(CostModelConfig cfg, int nranks);

  const CostModelConfig& config() const { return cfg_; }
  int nranks() const { return static_cast<int>(scale_.size()); }
  int observations() const { return observations_; }

  /// One step's signals: `measured[r]` is rank r's virtual-time cost over
  /// the particle phases this step, `predicted[r]` the static model's
  /// per-rank load (the sum of Eq.-7 weights over r's cells). Both are
  /// normalized internally, so units cancel; the correction is
  ///   scale_r <- EWMA( (measured_r / mean measured) / (predicted_r / mean
  ///   predicted) ).
  /// A no-op for kStatic and for degenerate windows (zero totals).
  void observe_step(std::span<const double> measured,
                    std::span<const double> predicted);

  /// Measured/static correction for one rank (1.0 until observed).
  double rank_scale(int r) const { return scale_.at(static_cast<std::size_t>(r)); }

  /// Per-cell partition weights: the static Eq.-7 weight per cell, scaled
  /// per `kind` by the owner rank's correction. The kStatic path returns
  /// exactly the Eq.-7 values (bit-identical to the pre-cost-model
  /// rebalancer).
  std::vector<double> cell_weights(std::span<const std::int32_t> owner,
                                   std::span<const std::int64_t> neutral_counts,
                                   std::span<const std::int64_t> charged_counts,
                                   double weight_ratio,
                                   double cell_weight) const;

  /// Checkpoint fields (state must survive restart bit-for-bit).
  template <class Ar>
  void persist(Ar& ar) {
    [[maybe_unused]] const std::size_t nranks = scale_.size();
    ar(scale_, observations_);
    if constexpr (Ar::kLoading)
      DSMCPIC_CHECK_MSG(scale_.size() == nranks,
                        "cost-model checkpoint rank-count mismatch");
  }

 private:
  CostModelConfig cfg_;
  std::vector<double> scale_;  // per-rank EWMA correction, starts at 1
  int observations_ = 0;
};

}  // namespace dsmcpic::balance
