#include "balance/policy.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace dsmcpic::balance {

const char* policy_name(PolicyKind k) {
  switch (k) {
    case PolicyKind::kThreshold: return "threshold";
    case PolicyKind::kLookahead: return "lookahead";
  }
  return "?";
}

PolicyKind parse_policy(const std::string& name) {
  if (name == "threshold") return PolicyKind::kThreshold;
  if (name == "lookahead") return PolicyKind::kLookahead;
  throw Error("unknown rebalance policy '" + name +
              "' (expected threshold|lookahead)");
}

RebalancePolicy::RebalancePolicy(PolicyConfig cfg) : cfg_(cfg) {
  DSMCPIC_CHECK_MSG(cfg_.horizon >= 0, "policy horizon must be >= 0");
  DSMCPIC_CHECK_MSG(cfg_.ewma_alpha > 0.0 && cfg_.ewma_alpha <= 1.0,
                    "ewma_alpha must be in (0, 1]");
  DSMCPIC_CHECK_MSG(cfg_.initial_rebalance_cost >= 0.0,
                    "initial rebalance cost must be >= 0");
  DSMCPIC_CHECK_MSG(cfg_.cost_margin > 0.0, "cost margin must be > 0");
  DSMCPIC_CHECK_MSG(cfg_.nranks >= 0, "policy nranks must be >= 0");
  DSMCPIC_CHECK_MSG(cfg_.residual_margin >= 0.0,
                    "residual margin must be >= 0");
}

void RebalancePolicy::observe_step(std::span<const double> rank_step_cost) {
  DSMCPIC_CHECK(!rank_step_cost.empty());
  double mx = rank_step_cost[0], sum = 0.0;
  for (const double c : rank_step_cost) {
    mx = std::max(mx, c);
    sum += c;
  }
  // Virtual seconds the step loses to imbalance: the slowest rank's cost
  // over the mean. Balanced -> 0.
  const double imb =
      std::max(0.0, mx - sum / static_cast<double>(rank_step_cost.size()));
  if (awaiting_residual_) {
    // First step on the fresh partition: this is the imbalance a rebalance
    // buys, i.e. what branch A can never recover below.
    residual_ = residual_samples_ == 0
                    ? imb
                    : (1.0 - cfg_.ewma_alpha) * residual_ +
                          cfg_.ewma_alpha * imb;
    ++residual_samples_;
    awaiting_residual_ = false;
  }
  if (!has_observation_) {
    imb_level_ = imb;
    imb_trend_ = 0.0;
    has_observation_ = true;
  } else {
    imb_trend_ = (1.0 - cfg_.ewma_alpha) * imb_trend_ +
                 cfg_.ewma_alpha * (imb - prev_imb_);
    imb_level_ =
        (1.0 - cfg_.ewma_alpha) * imb_level_ + cfg_.ewma_alpha * imb;
  }
  prev_imb_ = imb;
}

void RebalancePolicy::observe_rebalance(double measured_cost) {
  DSMCPIC_CHECK_MSG(measured_cost >= 0.0, "rebalance cost must be >= 0");
  cost_estimate_ = rebalances_observed_ == 0
                       ? measured_cost
                       : (1.0 - cfg_.ewma_alpha) * cost_estimate_ +
                             cfg_.ewma_alpha * measured_cost;
  ++rebalances_observed_;
  // The decomposition just changed: yesterday's imbalance level and trend
  // describe a partition that no longer exists. Re-learn from scratch.
  imb_level_ = 0.0;
  imb_trend_ = 0.0;
  prev_imb_ = 0.0;
  has_observation_ = false;
  awaiting_residual_ = true;
}

double RebalancePolicy::rebalance_cost_estimate() const {
  return rebalances_observed_ == 0 ? cfg_.initial_rebalance_cost
                                   : cost_estimate_;
}

PolicyDecision RebalancePolicy::decide(int step, double lii) {
  PolicyDecision d;
  d.step = step;
  d.lii = lii;
  d.imbalance_per_step = imb_level_;
  d.rebalance_cost_estimate = rebalance_cost_estimate();

  // Branch A: the *recoverable* cost of staying imbalanced for the next
  // `horizon` steps — the EWMA level extrapolated along its trend, less
  // the learned post-rebalance residual (a rebalance cannot do better
  // than a fresh partition does), clamped at zero per step. The residual
  // gets a rank-count margin: with many ranks each owns few cells, the
  // single-step residual sample is optimistic, and an unwidened branch A
  // over-buys rebalances (PolicyConfig::nranks). 1.0x at <= 64 ranks.
  const double rank_margin =
      cfg_.nranks > 64
          ? 1.0 + cfg_.residual_margin *
                      std::log2(static_cast<double>(cfg_.nranks) / 64.0)
          : 1.0;
  const double residual = residual_ * rank_margin;
  double projected = 0.0;
  for (int k = 1; k <= cfg_.horizon; ++k)
    projected += std::max(
        0.0, imb_level_ + static_cast<double>(k) * imb_trend_ - residual);
  d.projected_imbalance_cost = projected;

  if (cfg_.kind == PolicyKind::kThreshold || cfg_.horizon == 0) {
    // The paper's fixed trigger; also the H = 0 degenerate case of the
    // look-ahead (nothing to project over).
    d.rebalance = lii > cfg_.threshold;
  } else {
    d.rebalance = has_observation_ && projected > 0.0 &&
                  projected > cfg_.cost_margin * d.rebalance_cost_estimate;
  }
  decisions_.push_back(d);
  return d;
}

}  // namespace dsmcpic::balance
