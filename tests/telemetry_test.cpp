// Tests for the live telemetry bus (docs/observability.md §6): the
// deterministic 2:1 series downsampling, the flight recorder's postmortem
// dumps (byte-identical across execution knobs, triggered by fault trips,
// auditor aborts and fleet parks), the atomic Prometheus/JSON exposition,
// and — the load-bearing claim — that attaching a TelemetryHub perturbs
// neither solver digests nor run_report.json bytes. The StepRecord tests
// hold every sink of the one per-step record to the solver's history,
// including across a checkpoint restore.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "fleet/report.hpp"
#include "fleet/runner.hpp"
#include "obs/health_auditor.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "support/error.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::core {
namespace {

// ---- TelemetrySeries --------------------------------------------------------

TEST(TelemetrySeries, DownsamplesTwoToOneDeterministically) {
  obs::TelemetrySeries s(8);
  for (int step = 0; step < 100; ++step)
    s.push(step, static_cast<double>(step));
  // stride doubles at every fill: 1 -> 2 -> 4 -> 8 -> 16. The retained set
  // is a pure function of (capacity, steps pushed).
  EXPECT_EQ(s.stride(), 16);
  std::vector<std::int64_t> steps;
  for (const obs::TelemetrySeries::Point& p : s.points()) {
    steps.push_back(p.step);
    EXPECT_EQ(p.value, static_cast<double>(p.step));
  }
  EXPECT_EQ(steps, (std::vector<std::int64_t>{0, 16, 32, 48, 64, 80, 96}));
}

TEST(TelemetrySeries, NeverExceedsCapacity) {
  obs::TelemetrySeries s(4);
  for (int step = 0; step < 1000; ++step) s.push(step, 1.0);
  EXPECT_LT(s.points().size(), 4u);
  EXPECT_GE(s.points().size(), 2u);
}

TEST(TelemetryHub, RejectsNonPositiveKnobs) {
  obs::TelemetryConfig bad_interval;
  bad_interval.metrics_interval = 0;
  EXPECT_THROW(obs::TelemetryHub{bad_interval}, Error);
  obs::TelemetryConfig bad_recorder;
  bad_recorder.flight_recorder = 0;
  EXPECT_THROW(obs::TelemetryHub{bad_recorder}, Error);
  obs::TelemetryConfig bad_capacity;
  bad_capacity.series_capacity = 1;
  EXPECT_THROW(obs::TelemetryHub{bad_capacity}, Error);
}

// ---- end-to-end helpers -----------------------------------------------------

SolverConfig tiny_config() {
  Dataset d = make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

struct Knobs {
  int threads = 1;
  int sort_every = 8;
};

std::uint64_t history_digest(const CoupledSolver& solver) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const StepDiagnostics& s : solver.history()) {
    mix(static_cast<std::uint64_t>(s.dsmc_step));
    for (const std::int64_t p : s.particles_per_rank)
      mix(static_cast<std::uint64_t>(p));
    mix(static_cast<std::uint64_t>(s.injected));
    mix(static_cast<std::uint64_t>(s.migrated_dsmc));
    mix(static_cast<std::uint64_t>(s.collisions));
    mix(static_cast<std::uint64_t>(s.poisson_iterations));
    mix(std::bit_cast<std::uint64_t>(s.lii));
    mix(s.rebalanced ? 1u : 0u);
  }
  for (int r = 0; r < solver.runtime().size(); ++r)
    mix(std::bit_cast<std::uint64_t>(solver.runtime().clock(r)));
  mix(std::bit_cast<std::uint64_t>(solver.runtime().total_time()));
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Runs the tiny scenario with a fault injected and a telemetry hub whose
/// postmortem lands in `dir`; returns the postmortem bytes.
std::string faulted_postmortem(FaultInjection fault, const Knobs& k,
                               const std::string& dir) {
  std::filesystem::create_directories(dir);
  SolverConfig cfg = tiny_config();
  cfg.fault = fault;
  cfg.sort_every = k.sort_every;
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  // Aggressive trigger so kSkewRebalanceCost (which only fires on an
  // actual rebalance) trips within the step budget.
  par.balance.threshold = 1.01;
  par.threads = k.threads;
  obs::TelemetryConfig tc;
  tc.metrics_interval = 4;
  tc.flight_recorder = 4;
  tc.postmortem_path = dir + "/postmortem.json";
  tc.run_label = "telemetry_test";
  obs::TelemetryHub hub(tc);
  CoupledSolver solver(cfg, par);
  solver.set_telemetry(&hub);
  solver.run(14);
  EXPECT_TRUE(hub.postmortem_written())
      << "fault never tripped a postmortem";
  return slurp(tc.postmortem_path);
}

// ---- zero perturbation ------------------------------------------------------

TEST(TelemetryPerturbation, DigestsAndReportBytesAreIdenticalWithHub) {
  const auto run = [](bool with_hub, std::string* report_bytes) {
    SolverConfig cfg = tiny_config();
    ParallelConfig par;
    par.nranks = 6;
    par.balance.enabled = true;
    par.balance.period = 3;
    obs::TelemetryConfig tc;
    tc.metrics_interval = 1;
    tc.flight_recorder = 8;
    obs::TelemetryHub hub(tc);
    CoupledSolver solver(cfg, par);
    if (with_hub) solver.set_telemetry(&hub);
    solver.run(8);
    if (with_hub) {
      EXPECT_EQ(hub.samples_seen(), 8);
      EXPECT_EQ(hub.flight().size(), 8u);
    }
    // No host profiler attached: the report is then a pure function of the
    // deterministic run and must be BYTE-identical with the hub attached.
    obs::RunReport rep;
    fleet::ReportMeta meta;
    meta.bench = "telemetry_test";
    meta.case_name = "tiny";
    meta.seed = cfg.seed;
    meta.steps = 8;
    fleet::fill_run_report(rep, solver, solver.summary(), solver.history(),
                           meta);
    std::ostringstream os;
    obs::write_run_report(os, rep);
    *report_bytes = os.str();
    return history_digest(solver);
  };
  std::string plain_report, hub_report;
  const std::uint64_t plain = run(false, &plain_report);
  const std::uint64_t with_hub = run(true, &hub_report);
  EXPECT_EQ(with_hub, plain);
  EXPECT_EQ(hub_report, plain_report);
}

// ---- postmortem byte-identity across execution knobs ------------------------

class PostmortemFaults : public ::testing::TestWithParam<FaultInjection> {};

TEST_P(PostmortemFaults, BytesIdenticalAcrossExecKnobs) {
  const FaultInjection fault = GetParam();
  const std::string base = ::testing::TempDir() + "telemetry_pm_" +
                           std::to_string(static_cast<int>(fault));
  // 6 ranks: 4 lanes dispatch rank bodies, 8 lanes chunk kernels.
  const std::string a =
      faulted_postmortem(fault, Knobs{1, 8}, base + "_a");
  const std::string b =
      faulted_postmortem(fault, Knobs{4, 3}, base + "_b");
  const std::string c =
      faulted_postmortem(fault, Knobs{8, 0}, base + "_c");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "postmortem depends on rank dispatch / sort_every";
  EXPECT_EQ(a, c) << "postmortem depends on kernel chunking / sort_every";
  EXPECT_NE(a.find(obs::kPostmortemSchema), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllFaults, PostmortemFaults,
                         ::testing::Values(FaultInjection::kDropParticle,
                                           FaultInjection::kSkewDeposit,
                                           FaultInjection::kSkewRebalanceCost));

TEST(Postmortem, AuditorAbortDumpsFlightRecorder) {
  const std::string dir = ::testing::TempDir() + "telemetry_abort";
  std::filesystem::create_directories(dir);
  SolverConfig cfg = tiny_config();
  cfg.fault = FaultInjection::kDropParticle;
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  obs::HealthAuditor auditor({obs::AuditSeverity::kAbort});
  obs::TelemetryConfig tc;
  tc.postmortem_path = dir + "/postmortem.json";
  obs::TelemetryHub hub(tc);
  CoupledSolver solver(cfg, par);
  solver.set_auditor(&auditor);
  solver.set_telemetry(&hub);
  EXPECT_THROW(solver.run(6), Error);
  EXPECT_TRUE(hub.postmortem_written());
  const std::string bytes = slurp(tc.postmortem_path);
  EXPECT_NE(bytes.find("\"reason\": \"abort\""), std::string::npos) << bytes;
}

TEST(Postmortem, FirstTriggerWins) {
  const std::string dir = ::testing::TempDir() + "telemetry_first";
  std::filesystem::create_directories(dir);
  obs::TelemetryConfig tc;
  tc.postmortem_path = dir + "/postmortem.json";
  obs::TelemetryHub hub(tc);
  hub.dump_postmortem("abort");
  hub.dump_postmortem("park");  // must NOT overwrite the abort dump
  const std::string bytes = slurp(tc.postmortem_path);
  EXPECT_NE(bytes.find("\"reason\": \"abort\""), std::string::npos);
  EXPECT_EQ(bytes.find("\"reason\": \"park\""), std::string::npos);
}

// ---- exposition -------------------------------------------------------------

TEST(Exposition, PublishesPromAndJsonAtomically) {
  const std::string dir = ::testing::TempDir() + "telemetry_expo";
  std::filesystem::create_directories(dir);
  SolverConfig cfg = tiny_config();
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  obs::TelemetryConfig tc;
  tc.metrics_interval = 3;
  tc.metrics_prom_path = dir + "/metrics.prom";
  tc.metrics_json_path = dir + "/metrics.json";
  tc.run_label = "expo/\"case0\"";  // exercises label escaping
  obs::TelemetryHub hub(tc);
  CoupledSolver solver(cfg, par);
  solver.set_telemetry(&hub);
  solver.run(7);
  EXPECT_GE(hub.publishes(), 2);  // steps 3 and 6 crossed the interval
  // No .tmp staging file may survive a publish.
  EXPECT_FALSE(std::filesystem::exists(dir + "/metrics.prom.tmp"));
  const std::string prom = slurp(tc.metrics_prom_path);
  EXPECT_NE(prom.find("# HELP dsmcpic_particles "), std::string::npos);
  EXPECT_NE(prom.find("# TYPE dsmcpic_particles gauge"), std::string::npos);
  EXPECT_NE(prom.find("run=\"expo/\\\"case0\\\"\""), std::string::npos)
      << prom.substr(0, 400);
  const std::string json = slurp(tc.metrics_json_path);
  EXPECT_NE(json.find(obs::kMetricsSchema), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
}

// ---- one step record, every sink ---------------------------------------------

ParallelConfig balanced_six_ranks() {
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  return par;
}

/// Values of the trace counter `name`, in step order.
std::vector<double> counter_values(const trace::TraceRecorder& rec,
                                   const std::string& name) {
  std::vector<double> out;
  const trace::MetricsRegistry& m = rec.metrics();
  for (const trace::CounterSample& c : m.samples())
    if (m.name_of(c.key) == name) out.push_back(c.value);
  return out;
}

/// The number after `"key": ` inside the JSON object that follows
/// `"section": {` (flat sections only).
double json_number(const std::string& doc, const std::string& section,
                   const std::string& key) {
  const std::size_t begin = doc.find("\"" + section + "\": {");
  EXPECT_NE(begin, std::string::npos) << "no section " << section;
  const std::size_t end = doc.find('}', begin);
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = doc.find(needle, begin);
  EXPECT_LT(at, end) << "no key " << key << " in " << section;
  return std::stod(doc.substr(at + needle.size()));
}

TEST(StepRecord, ExchangeDeltasAfterRestoreMatchUninterruptedRun) {
  constexpr int kSaved = 4;  // steps run before the checkpoint
  const std::string path =
      ::testing::TempDir() + "step_record_restore.ckpt";

  trace::TraceRecorder rec_full(6);
  obs::TelemetryHub hub_full;
  CoupledSolver full(tiny_config(), balanced_six_ranks());
  full.runtime().set_tracer(&rec_full);
  full.set_telemetry(&hub_full);
  full.run(kSaved + 1);

  CoupledSolver first(tiny_config(), balanced_six_ranks());
  first.run(kSaved);
  first.save_checkpoint(path);

  trace::TraceRecorder rec_resumed(6);
  obs::TelemetryHub hub_resumed;
  CoupledSolver resumed(tiny_config(), balanced_six_ranks());
  resumed.runtime().set_tracer(&rec_resumed);
  resumed.set_telemetry(&hub_resumed);
  resumed.restore_checkpoint(path);
  resumed.step();
  std::filesystem::remove(path);

  // The steps before the checkpoint migrated something, so a baseline left
  // at zero would report their bytes again.
  double before = 0.0;
  for (int i = 0; i < kSaved; ++i) before += full.history()[i].exchange_bytes;
  ASSERT_GT(before, 0.0);

  const StepDiagnostics& want = full.history()[kSaved];
  const StepDiagnostics& got = resumed.history().front();
  ASSERT_EQ(got.dsmc_step, want.dsmc_step);
  EXPECT_EQ(got.exchange_bytes, want.exchange_bytes);
  EXPECT_EQ(got.exchange_messages, want.exchange_messages);
  EXPECT_EQ(hub_resumed.flight().back().exchange_bytes, want.exchange_bytes);
  EXPECT_EQ(counter_values(rec_resumed, "bytes_migrated"),
            std::vector<double>{counter_values(rec_full, "bytes_migrated")
                                    .at(kSaved)});
}

TEST(StepRecord, TraceTelemetryAndReportAgreeWithHistory) {
  obs::HealthAuditor auditor({obs::AuditSeverity::kCountOnly});
  trace::TraceRecorder rec(6);
  obs::TelemetryHub hub;
  ParallelConfig par = balanced_six_ranks();
  par.balance.threshold = 1.01;  // rebalance at every period boundary
  CoupledSolver solver(tiny_config(), par);
  solver.runtime().set_tracer(&rec);
  solver.set_telemetry(&hub);
  solver.set_auditor(&auditor);
  solver.run(8);

  // The sums of the records, field by field, without StepTotals::add.
  std::int64_t injected = 0, migrated_dsmc = 0, migrated_pic = 0,
               collisions = 0, ionizations = 0, recombinations = 0,
               exited = 0, pic_lost = 0, rebalances = 0;
  double exchange_bytes = 0.0;
  std::uint64_t exchange_messages = 0;
  for (const StepDiagnostics& d : solver.history()) {
    injected += d.injected;
    migrated_dsmc += d.migrated_dsmc;
    migrated_pic += d.migrated_pic;
    collisions += d.collisions;
    ionizations += d.ionizations;
    recombinations += d.recombinations;
    exited += d.exited_dsmc + d.exited_pic;
    pic_lost += d.pic_lost;
    rebalances += d.rebalanced ? 1 : 0;
    exchange_bytes += d.exchange_bytes;
    exchange_messages += d.exchange_messages;
  }
  ASSERT_GT(rebalances, 0);
  ASSERT_GT(exchange_bytes, 0.0);

  obs::RunReport report;
  fleet::ReportMeta meta;
  meta.steps = 8;
  fleet::fill_run_report(report, solver, solver.summary(), solver.history(),
                         meta);
  std::ostringstream report_os, hub_os;
  obs::write_run_report(report_os, report);
  hub.write_json_snapshot(hub_os);
  const std::string doc = report_os.str();
  const std::string snap = hub_os.str();

  const std::pair<const char*, std::int64_t> ledger[] = {
      {"injected", injected},           {"migrated_dsmc", migrated_dsmc},
      {"migrated_pic", migrated_pic},   {"collisions", collisions},
      {"ionizations", ionizations},     {"recombinations", recombinations},
      {"rebalances", rebalances}};
  for (const auto& [key, sum] : ledger) {
    EXPECT_EQ(json_number(doc, "steps", key), static_cast<double>(sum)) << key;
    EXPECT_EQ(json_number(snap, "counters", key), static_cast<double>(sum))
        << key;
  }
  EXPECT_EQ(json_number(doc, "steps", "final_particles"),
            static_cast<double>(solver.total_particles()));
  EXPECT_EQ(json_number(snap, "counters", "exited"),
            static_cast<double>(exited));
  EXPECT_EQ(json_number(snap, "counters", "pic_lost"),
            static_cast<double>(pic_lost));
  EXPECT_EQ(json_number(snap, "counters", "exchange_bytes"), exchange_bytes);
  EXPECT_EQ(json_number(snap, "counters", "exchange_messages"),
            static_cast<double>(exchange_messages));

  double traced_bytes = 0.0;
  for (const double v : counter_values(rec, "bytes_migrated")) traced_bytes += v;
  EXPECT_EQ(traced_bytes, json_number(snap, "counters", "exchange_bytes"));

  // Stage 2 ran after the auditor closed each step: the last record
  // carries the run's final audit tallies.
  EXPECT_GT(auditor.report().checks(), 0);
  EXPECT_EQ(hub.flight().back().audit_checks, auditor.report().checks());
  EXPECT_EQ(hub.flight().back().audit_violations,
            auditor.report().violations());
}

// ---- fleet integration ------------------------------------------------------

TEST(FleetTelemetry, ParkedRunLeavesPostmortemAndFleetMetrics) {
  const std::string dir = ::testing::TempDir() + "telemetry_fleet";
  std::filesystem::remove_all(dir);
  fleet::FleetOptions fo;
  fo.slots = 2;
  fo.results_dir = dir;
  fo.lease_steps = 2;
  fo.telemetry = true;
  fo.metrics_interval = 1;
  fleet::FleetRunner runner(fo);
  fleet::FleetJob a;
  a.scenario = "nozzle";
  a.steps = 4;
  a.park_at = 2;
  fleet::FleetJob b;
  b.scenario = "nozzle";
  b.steps = 4;
  b.seed = 43;
  runner.add(a);
  runner.add(b);
  const std::vector<fleet::FleetRunResult> results = runner.run_all();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].state, fleet::RunState::kParked);
  EXPECT_EQ(results[1].state, fleet::RunState::kDone);

  const std::string pm = slurp(dir + "/run000-nozzle/postmortem.json");
  EXPECT_NE(pm.find("\"reason\": \"park\""), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir + "/run000-nozzle/metrics.prom"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/run001-nozzle/metrics.json"));

  const std::string fleet_prom = slurp(dir + "/fleet_metrics.prom");
  EXPECT_NE(fleet_prom.find("dsmcpic_fleet_runs_parked 1"),
            std::string::npos);
  EXPECT_NE(fleet_prom.find("run=\"run001-nozzle\""), std::string::npos);
  const std::string summary = slurp(dir + "/fleet_summary.json");
  EXPECT_NE(summary.find("\"pending\": 0"), std::string::npos);
  EXPECT_NE(summary.find("\"parked\": 1"), std::string::npos);
}

}  // namespace
}  // namespace dsmcpic::core
