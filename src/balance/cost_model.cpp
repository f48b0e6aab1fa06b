#include "balance/cost_model.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dsmcpic::balance {

const char* cost_model_name(CostModelKind k) {
  switch (k) {
    case CostModelKind::kStatic: return "static";
    case CostModelKind::kTimer: return "timer";
    case CostModelKind::kHybrid: return "hybrid";
  }
  return "?";
}

CostModelKind parse_cost_model(const std::string& name) {
  if (name == "static") return CostModelKind::kStatic;
  if (name == "timer") return CostModelKind::kTimer;
  if (name == "hybrid") return CostModelKind::kHybrid;
  throw Error("unknown cost model '" + name +
              "' (expected static|timer|hybrid)");
}

CostModel::CostModel(CostModelConfig cfg, int nranks) : cfg_(cfg) {
  DSMCPIC_CHECK_MSG(nranks >= 1, "cost model needs at least one rank");
  DSMCPIC_CHECK_MSG(cfg_.ewma_alpha > 0.0 && cfg_.ewma_alpha <= 1.0,
                    "ewma_alpha must be in (0, 1]");
  DSMCPIC_CHECK_MSG(cfg_.hybrid_blend >= 0.0 && cfg_.hybrid_blend <= 1.0,
                    "hybrid_blend must be in [0, 1]");
  DSMCPIC_CHECK_MSG(cfg_.min_scale > 0.0 && cfg_.min_scale <= 1.0 &&
                        cfg_.max_scale >= 1.0,
                    "scale clamp must bracket 1");
  scale_.assign(static_cast<std::size_t>(nranks), 1.0);
}

void CostModel::observe_step(std::span<const double> measured,
                             std::span<const double> predicted) {
  if (cfg_.kind == CostModelKind::kStatic) return;
  DSMCPIC_CHECK(measured.size() == scale_.size());
  DSMCPIC_CHECK(predicted.size() == scale_.size());
  double sum_m = 0.0, sum_p = 0.0;
  for (const double m : measured) sum_m += m;
  for (const double p : predicted) sum_p += p;
  // Degenerate window (nothing ran or the static model predicts zero
  // everywhere): keep the previous corrections.
  if (!(sum_m > 0.0) || !(sum_p > 0.0)) return;
  const double n = static_cast<double>(scale_.size());
  for (std::size_t r = 0; r < scale_.size(); ++r) {
    if (!(predicted[r] > 0.0) || !(measured[r] >= 0.0)) continue;
    // Relative speed of rank r vs the static model's expectation. Both
    // shares are dimensionless, so virtual seconds regress cleanly onto
    // particle-count weights.
    const double measured_share = measured[r] / (sum_m / n);
    const double predicted_share = predicted[r] / (sum_p / n);
    const double ratio = std::clamp(measured_share / predicted_share,
                                    cfg_.min_scale, cfg_.max_scale);
    scale_[r] = (1.0 - cfg_.ewma_alpha) * scale_[r] + cfg_.ewma_alpha * ratio;
  }
  ++observations_;
}

std::vector<double> CostModel::cell_weights(
    std::span<const std::int32_t> owner,
    std::span<const std::int64_t> neutral_counts,
    std::span<const std::int64_t> charged_counts, double weight_ratio,
    double cell_weight) const {
  DSMCPIC_CHECK(owner.size() == neutral_counts.size());
  DSMCPIC_CHECK(owner.size() == charged_counts.size());
  std::vector<double> w(owner.size());
  for (std::size_t c = 0; c < owner.size(); ++c) {
    // Eq. (7), exactly as the static rebalancer computes it.
    double wc = static_cast<double>(neutral_counts[c]) +
                weight_ratio * static_cast<double>(charged_counts[c]) +
                cell_weight;
    switch (cfg_.kind) {
      case CostModelKind::kStatic:
        break;
      case CostModelKind::kTimer:
        wc *= rank_scale(owner[c]);
        break;
      case CostModelKind::kHybrid:
        wc *= (1.0 - cfg_.hybrid_blend) +
              cfg_.hybrid_blend * rank_scale(owner[c]);
        break;
    }
    w[c] = wc;
  }
  return w;
}

}  // namespace dsmcpic::balance
