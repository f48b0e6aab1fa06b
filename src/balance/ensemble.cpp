#include "balance/ensemble.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace dsmcpic::balance {

const char* ensemble_name(EnsembleKind k) {
  switch (k) {
    case EnsembleKind::kFixed: return "fixed";
    case EnsembleKind::kElastic: return "elastic";
  }
  return "?";
}

EnsembleKind parse_ensemble(const std::string& name) {
  if (name == "fixed") return EnsembleKind::kFixed;
  if (name == "elastic") return EnsembleKind::kElastic;
  throw Error("unknown ensemble kind '" + name + "' (expected fixed|elastic)");
}

EnsemblePolicy::EnsemblePolicy(EnsembleConfig cfg, int nominal_ranks)
    : cfg_(cfg), nominal_(nominal_ranks) {
  DSMCPIC_CHECK_MSG(nominal_ >= 1, "ensemble needs at least one nominal rank");
  DSMCPIC_CHECK_MSG(cfg_.ewma_alpha > 0.0 && cfg_.ewma_alpha <= 1.0,
                    "ensemble ewma_alpha must be in (0, 1]");
  DSMCPIC_CHECK_MSG(cfg_.hysteresis >= 0.0, "hysteresis must be >= 0");
  cfg_.ranks_min = std::max(1, cfg_.ranks_min);
  cfg_.ranks_max = cfg_.ranks_max <= 0 ? nominal_
                                       : std::min(cfg_.ranks_max, nominal_);
  DSMCPIC_CHECK_MSG(cfg_.ranks_min <= cfg_.ranks_max,
                    "ranks_min " << cfg_.ranks_min << " > ranks_max "
                                 << cfg_.ranks_max);
  if (cfg_.initial > 0)
    DSMCPIC_CHECK_MSG(
        cfg_.initial >= cfg_.ranks_min && cfg_.initial <= cfg_.ranks_max,
        "initial active count " << cfg_.initial << " outside ["
                                << cfg_.ranks_min << ", " << cfg_.ranks_max
                                << "]");
}

int EnsemblePolicy::initial_active() const {
  if (cfg_.initial > 0) return cfg_.initial;
  return std::clamp(nominal_, cfg_.ranks_min, cfg_.ranks_max);
}

void EnsemblePolicy::observe_step(std::span<const double> rank_compute,
                                  double step_total) {
  double comp = 0.0;
  for (const double c : rank_compute) comp += c;
  const double ovh = std::max(0.0, step_total - comp);
  if (!has_observation_) {
    compute_ewma_ = comp;
    overhead_ewma_ = ovh;
    has_observation_ = true;
  } else {
    compute_ewma_ =
        (1.0 - cfg_.ewma_alpha) * compute_ewma_ + cfg_.ewma_alpha * comp;
    overhead_ewma_ =
        (1.0 - cfg_.ewma_alpha) * overhead_ewma_ + cfg_.ewma_alpha * ovh;
  }
}

int EnsemblePolicy::decide(int step, int current_active) {
  EnsembleDecision d;
  d.step = step;
  d.compute_ewma = compute_ewma_;
  d.overhead_ewma = overhead_ewma_;
  d.target = current_active;

  if (cfg_.kind == EnsembleKind::kElastic && has_observation_ &&
      compute_ewma_ > 0.0 && overhead_ewma_ > 0.0) {
    // T(n) = C/n + (ovh/n_cur) * n is minimized at sqrt(C * n_cur / ovh).
    const double n_star =
        std::sqrt(compute_ewma_ * static_cast<double>(current_active) /
                  overhead_ewma_);
    // At most double or halve per decision: redecompose quality degrades
    // when ownership churns wholesale, and the EWMA re-learns the new
    // operating point before the next boundary anyway.
    int target = static_cast<int>(std::llround(n_star));
    target = std::clamp(target, current_active / 2, current_active * 2);
    target = std::clamp(target, cfg_.ranks_min, cfg_.ranks_max);
    // Deadband: ignore moves the noise floor can explain.
    if (std::abs(target - current_active) >
        cfg_.hysteresis * static_cast<double>(current_active))
      d.target = target;
  }

  d.resized = d.target != current_active;
  if (d.resized) ++resizes_;
  decisions_.push_back(d);
  return d.target;
}

}  // namespace dsmcpic::balance
