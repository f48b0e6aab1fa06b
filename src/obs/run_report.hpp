#pragma once
// Machine-readable end-of-run report (DESIGN.md §2f). Every bench case can
// emit one `run_report.json` capturing what the run was (config echo), what
// the cost model said (virtual-time summary per phase), what the physics
// did (step totals), whether the books balanced (health-audit tallies) and
// where the host spent real milliseconds (host profile). scripts/
// check_report.sh validates the shape; scripts/check_bench_regression.py
// gates the kernel timings.
//
// The struct is plain values so this module stays below core in the layer
// graph: fleet::fill_run_report fills it from core::RunSummary and the
// solver's per-step records (obs/step_record.hpp); obs never includes
// core headers. Serialization uses trace::JsonWriter, so identical inputs
// produce identical bytes (the host-profile milliseconds are wall-clock
// and naturally vary; the document *structure* never does).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/health_auditor.hpp"
#include "obs/host_profiler.hpp"
#include "obs/step_record.hpp"

namespace dsmcpic::obs {

inline constexpr const char* kRunReportSchema = "dsmcpic.run_report.v1";

/// Echo of the case configuration (strings pre-rendered by the caller).
struct RunReportConfig {
  std::string bench;       // bench binary name, e.g. "bench_strategies"
  std::string case_name;   // human-readable case id within the bench
  int ranks = 0;
  int steps = 0;
  std::string machine;
  std::uint64_t seed = 0;
  int threads = 0;     // host thread budget (0 = one per hardware thread)
  int sort_every = 0;  // periodic cell-sort interval (0 = never)
  std::string strategy;
  bool balance = false;
  std::string audit_severity;  // "off" when no auditor was attached
  std::string cost_model;      // "static" | "timer" | "hybrid"
  std::string policy;          // "threshold" | "lookahead"
  int horizon = 0;             // look-ahead horizon H (steps)
};

/// Elastic rank ensemble summary (DESIGN.md §2i). `ranks` in the config
/// above stays the NOMINAL machine size; this section says how much of it
/// was actually dispatched. active_final == ranks and resizes == 0 on the
/// fixed dense path.
struct RunReportEnsemble {
  std::string kind = "fixed";  // "fixed" | "elastic"
  int ranks_min = 0;
  int ranks_max = 0;
  int active_initial = 0;
  int active_final = 0;
  int resizes = 0;
};

/// Whole-run physics totals: the per-step records summed through
/// StepTotals::add, plus the particle count at the end of the run. The
/// report prints final_particles and the injected..rebalances totals; the
/// exit, loss and exchange totals are not part of the document.
struct RunReportSteps : StepTotals {
  std::int64_t final_particles = 0;
};

struct RunReport {
  RunReportConfig config;
  RunReportEnsemble ensemble;
  double total_virtual_time = 0.0;
  std::vector<PhaseRecord> phases;
  RunReportSteps steps;
  /// Every policy decision made during the run (empty when balancing was
  /// off). Deterministic: virtual-time inputs only.
  std::vector<DecisionRecord> rebalance_decisions;
  /// Optional sections; null pointer renders as {"enabled": false}.
  const AuditReport* audit = nullptr;
  const HostProfiler* profiler = nullptr;
};

void write_run_report(std::ostream& os, const RunReport& report);
/// Writes (replaces) `path` atomically; throws dsmcpic::Error on I/O
/// failure.
void write_run_report_file(const std::string& path, const RunReport& report);

}  // namespace dsmcpic::obs
