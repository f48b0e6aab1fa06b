#include "obs/run_report.hpp"

#include <ostream>
#include <sstream>

#include "support/serialize.hpp"
#include "trace/json_writer.hpp"

namespace dsmcpic::obs {

void write_run_report(std::ostream& os, const RunReport& report) {
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kRunReportSchema);
  w.kv("bench", report.config.bench);
  w.kv("case", report.config.case_name);

  w.key("config");
  w.begin_object();
  w.kv("ranks", report.config.ranks);
  w.kv("steps", report.config.steps);
  w.kv("machine", report.config.machine);
  w.kv("seed", report.config.seed);
  w.kv("threads", report.config.threads);
  w.kv("sort_every", report.config.sort_every);
  w.kv("strategy", report.config.strategy);
  w.kv("balance", report.config.balance);
  w.kv("audit", report.config.audit_severity);
  w.kv("cost_model", report.config.cost_model);
  w.kv("policy", report.config.policy);
  w.kv("horizon", report.config.horizon);
  w.end_object();

  w.key("ensemble");
  w.begin_object();
  w.kv("kind", report.ensemble.kind);
  w.kv("ranks_min", report.ensemble.ranks_min);
  w.kv("ranks_max", report.ensemble.ranks_max);
  w.kv("active_initial", report.ensemble.active_initial);
  w.kv("active_final", report.ensemble.active_final);
  w.kv("resizes", report.ensemble.resizes);
  w.end_object();

  w.key("virtual_time");
  w.begin_object();
  w.kv("total_seconds", report.total_virtual_time);
  w.key("phases");
  w.begin_array();
  for (const PhaseRecord& p : report.phases) {
    w.begin_object();
    w.kv("phase", p.name);
    w.kv("busy_max", p.busy_max);
    w.kv("busy_min", p.busy_min);
    w.kv("busy_sum", p.busy_sum);
    w.kv("transactions", p.transactions);
    w.kv("bytes", p.bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("steps");
  w.begin_object();
  w.kv("final_particles", report.steps.final_particles);
  w.kv("injected", report.steps.injected);
  w.kv("migrated_dsmc", report.steps.migrated_dsmc);
  w.kv("migrated_pic", report.steps.migrated_pic);
  w.kv("collisions", report.steps.collisions);
  w.kv("ionizations", report.steps.ionizations);
  w.kv("recombinations", report.steps.recombinations);
  w.kv("rebalances", report.steps.rebalances);
  w.end_object();

  w.key("rebalance_decisions");
  w.begin_array();
  for (const DecisionRecord& d : report.rebalance_decisions) {
    w.begin_object();
    w.kv("step", d.step);
    w.kv("lii", d.lii);
    w.kv("imbalance_per_step", d.imbalance_per_step);
    w.kv("projected_imbalance_cost", d.projected_imbalance_cost);
    w.kv("rebalance_cost_estimate", d.rebalance_cost_estimate);
    w.kv("rebalance", d.rebalance);
    w.end_object();
  }
  w.end_array();

  w.key("audit");
  w.begin_object();
  w.kv("enabled", report.audit != nullptr);
  if (report.audit != nullptr) {
    w.kv("checks", report.audit->checks());
    w.kv("violations", report.audit->violations());
    w.key("by_invariant");
    w.begin_object();
    for (int i = 0; i < kNumInvariants; ++i) {
      const auto& t = report.audit->by_invariant[static_cast<std::size_t>(i)];
      w.key(invariant_name(static_cast<Invariant>(i)));
      w.begin_object();
      w.kv("checks", t.checks);
      w.kv("violations", t.violations);
      w.end_object();
    }
    w.end_object();
    w.kv("first_violation", report.audit->first_violation);
    w.kv("first_violation_step", report.audit->first_violation_step);
  }
  w.end_object();

  w.key("host_profile");
  w.begin_object();
  w.kv("enabled", report.profiler != nullptr);
  if (report.profiler != nullptr) {
    w.kv("sample_count", report.profiler->sample_count());
    w.key("kernels");
    w.begin_object();
    for (const auto& [name, s] : report.profiler->stats()) {
      w.key(name);
      w.begin_object();
      w.kv("count", s.count);
      w.kv("total_ms", s.total_ms);
      w.kv("min_ms", s.min_ms);
      w.kv("p50_ms", s.p50_ms);
      w.kv("p95_ms", s.p95_ms);
      w.kv("max_ms", s.max_ms);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();

  w.end_object();
  w.finish();
}

void write_run_report_file(const std::string& path, const RunReport& report) {
  std::ostringstream os;
  write_run_report(os, report);
  io::atomic_write_file(path, os.str());
}

}  // namespace dsmcpic::obs
