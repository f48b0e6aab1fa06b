// perfbench_workload: runs ONE benchmark workload in this process and prints
// its raw samples as one JSON document on stdout.
// perfbench/run.py builds this binary, calls it, checks the samples against
// the recorded references and reduces them to the metrics named in
// BENCHMARK.json (see perfbench/README.md).
//
// Every timing is taken from outside the library, around calls into public
// APIs (CaseGeometry::build, the CoupledSolver constructor, step(),
// part_graph_kway, save/restore_checkpoint, FleetRunner::run_all). The
// traced repetitions additionally attach the library's own HostProfiler and
// a count-mode HealthAuditor; nothing here adds tracing inside src/.
//
// Usage:
//   perfbench_workload --workload NAME --seed N --seconds S --trace 0|1
//                      --tmp DIR [--smoke 0|1]
// Exit codes: 0 ok, 2 bad arguments (unknown workload included).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/case_geometry.hpp"
#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"
#include "obs/health_auditor.hpp"
#include "obs/host_profiler.hpp"
#include "partition/partitioner.hpp"
#include "trace/json_writer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

using namespace dsmcpic;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Peak resident memory of one repetition: the kernel's high-water mark
// (VmHWM) is reset before it and read after it. Only the first repetition
// starts from a fresh heap; later ones inherit its fragmentation, so their
// peaks wander by 20% and run.py reports the first. Where /proc refuses the
// reset, the figure is the process peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}


// ---- workloads -----------------------------------------------------------

struct Workload {
  const char* name;
  int ranks;
  double particle_scale;  // Dataset 2 multiplier (solver workloads)
  int steps;              // DSMC steps per run
  bool fleet;
};

// Fleet shape of fleet_lease: 16 runs round-robin over the corpus on 2
// slots, parked and resumed every 8 steps.
constexpr int kFleetSlots = 2;
constexpr int kFleetRuns = 16;
constexpr int kFleetLease = 8;

// Sizes of one invocation. --smoke 1 shrinks every workload to a few steps
// and one repetition, so the self-test sees every metric in seconds.
struct Plan {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  int steps = 0;           // DSMC steps per run (fleet: per fleet run)
  int fleet_runs = kFleetRuns;
  int fleet_lease = kFleetLease;
  int min_reps = 3;        // untraced repetitions at least
  int timing_reps = 5;     // repetitions of the partition/probe timings
  std::string tmp;         // scratch directory for checkpoints and fleets
};

constexpr Workload kWorkloads[] = {
    {"field_r24", 24, 1.0, 40, false},
    {"particle_r4", 4, 8.0, 30, false},
    {"ranks_r768", 768, 0.5, 10, false},
    {"fleet_lease", 6, 0.0, 48, true},
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- host fingerprint and calibration --------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Fixed integer + floating-point work, independent of the library, so a
// result from a faster or slower host can be told apart from a regression.
// It is sampled at start-up and again before every repetition, because the
// host's speed drifts over a run.
volatile double calibration_sink = 0.0;
volatile std::uint64_t calibration_iterations = 4'000'000;

double calibration_once(std::uint64_t divisor = 1) {
  const std::uint64_t n = calibration_iterations / divisor;
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += static_cast<double>(x >> 11) * 0x1.0p-53 * (acc < 1e6 ? 1.0 : -1.0);
  }
  calibration_sink = acc;
  return ms_between(t0, Clock::now());
}

// The host is shared: a core whose hardware sibling another tenant keeps
// busy runs this process 30% or more slower (calibration up to 2x), and
// which core that is changes over minutes. Before every repetition the
// binary times a short probe on each core it may use and restricts itself
// to the cores within kCoreSlack of the fastest; threads started later,
// such as the fleet's slot pool, inherit the mask. The process keeps every
// core that is not saturated, so a library that runs threads of its own
// still gets them. Timings stay wall-clock.
class CorePicker {
 public:
  static constexpr double kCoreSlack = 1.25;

  CorePicker() {
    CPU_ZERO(&allowed_);
    sched_getaffinity(0, sizeof allowed_, &allowed_);
  }

  void avoid_saturated() {
    std::vector<std::pair<double, int>> speed;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &allowed_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
      speed.emplace_back(std::min(calibration_once(8), calibration_once(8)), c);
    }
    cpu_set_t keep = allowed_;
    if (!speed.empty()) {
      const double fastest = std::min_element(speed.begin(), speed.end())->first;
      CPU_ZERO(&keep);
      for (const auto& [ms, c] : speed)
        if (ms <= kCoreSlack * fastest) CPU_SET(c, &keep);
    }
    sched_setaffinity(0, sizeof keep, &keep);
  }

 private:
  cpu_set_t allowed_;
};

void emit_fingerprint(trace::JsonWriter& j) {
  j.key("fingerprint");
  j.begin_object();
  j.kv("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  j.kv("cpu_model", cpu_model());
  j.kv("compiler", std::string(
#if defined(__clang__)
                        "clang "
#elif defined(__GNUC__)
                        "gcc "
#endif
                        ) + __VERSION__);
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
  j.kv("cxx_flags", PERFBENCH_CXX_FLAGS);
  j.end_object();
}

// ---- solver workloads -------------------------------------------------------

struct SolverCase {
  core::SolverConfig cfg;
  core::ParallelConfig par;
  int steps = 0;
};

// The bench defaults of bench::make_parallel / run_case: DC strategy,
// balancing on (threshold 2.0, period 10), rel_tol 1e-5, sort_every 8,
// Tianhe-2 profile, sequential supersteps, serial kernels.
SolverCase solver_case(const Plan& plan) {
  const Workload& w = *plan.w;
  const core::Dataset ds = core::make_dataset(2, w.particle_scale);
  const bench::BenchOptions opt;  // library/bench defaults, no exec knobs
  SolverCase c;
  c.cfg = ds.config;
  c.cfg.seed = plan.seed;
  c.cfg.sort_every = opt.sort_every;
  c.cfg.poisson.rel_tol = 1e-5;
  c.cfg.poisson.max_iterations = 200;
  c.par = bench::make_parallel(ds, w.ranks, exchange::Strategy::kDistributed,
                               /*balance_enabled=*/true, opt);
  c.steps = plan.steps;
  return c;
}

// The fleet workload's probe case (per-layer setup and checkpoint timings):
// one nozzle-scenario solver under the corpus' canonical parallel config.
SolverCase fleet_probe_case(const Plan& plan) {
  const fleet::ScenarioCorpus corpus;
  SolverCase c;
  c.cfg = corpus.by_name("nozzle").config;
  c.cfg.seed = plan.seed;
  c.par = fleet::canonical_parallel(plan.w->ranks);
  c.steps = plan.fleet_lease;
  return c;
}

void emit_counts(trace::JsonWriter& j, const core::CoupledSolver& solver,
                 const fleet::RunDigest& digest) {
  const core::RunSummary s = solver.summary();
  std::uint64_t messages = 0;
  double bytes = 0.0;
  for (const par::PhaseStats& ps : s.phase_stats) {
    messages += ps.transactions;
    bytes += ps.bytes;
  }
  std::int64_t cg = 0, migrated = 0;
  for (const core::StepDiagnostics& d : solver.history()) {
    cg += d.poisson_iterations;
    migrated += d.migrated_dsmc + d.migrated_pic;
  }
  j.kv("digest", hex64(digest.value()));
  j.kv("virtual_s", s.total_time);
  j.kv("supersteps", static_cast<std::int64_t>(s.supersteps));
  j.kv("messages", static_cast<std::int64_t>(messages));
  j.kv("bytes", bytes);
  j.kv("cg_iterations", cg);
  j.kv("rebalances", s.rebalance.rebalances);
  j.kv("migrated", migrated);
  j.kv("final_particles", s.final_particles);
  j.kv("steps", static_cast<std::int64_t>(solver.history().size()));
  j.kv("pic_substeps", solver.config().pic_substeps);
}

// One save + restore of `solver` through `dir`; checks the restored state.
void emit_checkpoint(trace::JsonWriter& j, const SolverCase& c,
                     std::shared_ptr<const core::CaseGeometry> geom,
                     const core::CoupledSolver& solver,
                     const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/checkpoint.bin";
  const auto t0 = Clock::now();
  solver.save_checkpoint(path);
  const auto t1 = Clock::now();
  const auto bytes = std::filesystem::file_size(path);
  core::CoupledSolver restored(c.cfg, c.par, std::move(geom));
  const auto t2 = Clock::now();
  restored.restore_checkpoint(path);
  const auto t3 = Clock::now();
  const bool ok = restored.current_step() == solver.current_step() &&
                  restored.total_particles() == solver.total_particles() &&
                  restored.potential() == solver.potential() &&
                  restored.runtime().total_time() ==
                      solver.runtime().total_time();
  std::filesystem::remove(path);
  j.key("checkpoint");
  j.begin_object();
  j.kv("save_ms", ms_between(t0, t1));
  j.kv("restore_ms", ms_between(t2, t3));
  j.kv("bytes", static_cast<std::int64_t>(bytes));
  j.kv("ok", ok ? 1 : 0);
  j.end_object();
}

// One full run of a solver case: geometry, constructor, `steps` DSMC steps.
// A traced run attaches the HostProfiler and a count-mode HealthAuditor and
// reports every step() time; the first traced run also times a checkpoint.
void solver_rep(trace::JsonWriter& j, const SolverCase& c, bool traced, bool checkpoint,
                const std::string& tmp) {
  j.begin_object();
  j.kv("traced", traced ? 1 : 0);
  try {
    reset_peak_rss();
    obs::HostProfiler prof;
    obs::HealthAuditor auditor(obs::AuditConfig{obs::AuditSeverity::kCountOnly});
    const auto t0 = Clock::now();
    auto geom = core::CaseGeometry::build(c.cfg.nozzle);
    const auto t1 = Clock::now();
    core::CoupledSolver solver(c.cfg, c.par, geom);
    const auto t2 = Clock::now();
    if (traced) {
      solver.set_host_profiler(&prof);
      solver.set_auditor(&auditor);
    }
    fleet::RunDigest digest;
    std::vector<double> step_ms;
    step_ms.reserve(static_cast<std::size_t>(c.steps));
    for (int s = 0; s < c.steps; ++s) {
      const auto ts = Clock::now();
      digest.absorb(solver.step());
      step_ms.push_back(ms_between(ts, Clock::now()));
    }
    const auto t3 = Clock::now();
    j.kv("peak_rss_mb", peak_rss_mb());
    digest.absorb_final(solver.runtime());

    j.kv("geometry_ms", ms_between(t0, t1));
    j.kv("init_ms", ms_between(t1, t2));
    j.kv("run_ms", ms_between(t2, t3));
    emit_counts(j, solver, digest);
    if (traced) {
      solver.set_host_profiler(nullptr);
      solver.set_auditor(nullptr);
      j.key("step_ms");
      j.begin_array();
      for (const double v : step_ms) j.value(v);
      j.end_array();
      j.key("scopes_ms");
      j.begin_object();
      for (const auto& [name, st] : prof.stats()) j.kv(name.c_str(), st.total_ms);
      j.end_object();
      j.kv("audit_checks", auditor.report().checks());
      j.kv("audit_violations", auditor.report().violations());
      if (checkpoint) emit_checkpoint(j, c, geom, solver, tmp);
    }
    j.kv("ok", 1);
  } catch (const std::exception& e) {
    j.kv("ok", 0);
    j.kv("error", e.what());
  }
  j.end_object();
}

// part_graph_kway on the coarse dual graph at the case's rank count, with
// the solver's own partition options (what init() runs first).
void emit_partition(trace::JsonWriter& j, const SolverCase& c, int reps) {
  auto geom = core::CaseGeometry::build(c.cfg.nozzle);
  partition::Graph g;
  geom->coarse.dual_graph(g.xadj, g.adjncy);
  j.key("partition");
  j.begin_object();
  j.key("kway_ms");
  j.begin_array();
  std::int64_t cut = 0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const partition::PartitionResult r = partition::part_graph_kway(
        g, c.par.nranks, c.par.balance.partition_options);
    j.value(ms_between(t0, Clock::now()));
    cut = partition::edge_cut(g, r.part);
  }
  j.end_array();
  j.kv("edge_cut", cut);
  j.kv("nparts", c.par.nranks);
  j.end_object();
}

// ---- fleet workload -----------------------------------------------------------

// One fleet: set-up is the FleetRunner, its queue of 16 jobs and the shared
// geometry of every corpus scenario; the run is run_all(). A traced fleet
// turns on the runner's own per-lease telemetry.
void fleet_rep(trace::JsonWriter& j, const Plan& plan, bool traced) {
  const std::string dir = plan.tmp + "/fleet";
  j.begin_object();
  j.kv("traced", traced ? 1 : 0);
  j.kv("runs", plan.fleet_runs);
  try {
    std::filesystem::remove_all(dir);
    reset_peak_rss();
    const auto t0 = Clock::now();
    fleet::FleetOptions fo;
    fo.slots = kFleetSlots;
    fo.results_dir = dir;
    fo.lease_steps = plan.fleet_lease;
    fo.telemetry = traced;
    fleet::FleetRunner runner(fo);
    const auto& scenarios = runner.corpus().all();
    for (int i = 0; i < plan.fleet_runs; ++i) {
      fleet::FleetJob job;
      job.scenario = scenarios[static_cast<std::size_t>(i) % scenarios.size()].name;
      job.steps = plan.steps;
      job.ranks = plan.w->ranks;
      job.seed = plan.seed + static_cast<std::uint64_t>(i);
      runner.add(job);
    }
    for (const fleet::Scenario& sc : scenarios) runner.assets().geometry(sc.config.nozzle);
    const auto t1 = Clock::now();
    const std::vector<fleet::FleetRunResult> results = runner.run_all();
    const auto t2 = Clock::now();
    j.kv("peak_rss_mb", peak_rss_mb());
    const fleet::FleetStats& st = runner.stats();

    // Order-sensitive FNV-1a over the per-run golden digests.
    std::uint64_t h = 14695981039346656037ULL;
    double virtual_s = 0.0;
    std::int64_t done = 0, leases = 0, particles = 0;
    for (const fleet::FleetRunResult& r : results) {
      for (int b = 0; b < 8; ++b) {
        h ^= (r.digest >> (8 * b)) & 0xffu;
        h *= 1099511628211ULL;
      }
      virtual_s += r.virtual_seconds;
      done += r.state == fleet::RunState::kDone ? 1 : 0;
      leases += r.leases;
      particles += r.final_particles;
    }
    const auto& cache = st.cache;
    j.kv("setup_ms", ms_between(t0, t1));
    j.kv("run_ms", ms_between(t1, t2));
    j.kv("digest", hex64(h));
    j.kv("virtual_s", virtual_s);
    j.kv("runs_done", done);
    j.kv("leases", leases);
    j.kv("final_particles", particles);
    j.kv("busy_ms", st.busy_ms);
    j.kv("slot_utilization", st.slot_utilization);
    j.kv("geometry_hits", cache.geometry_hits);
    j.kv("geometry_misses", cache.geometry_misses);
    j.kv("ok", 1);
  } catch (const std::exception& e) {
    j.kv("ok", 0);
    j.kv("error", e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  j.end_object();
}

// Setup timings of the fleet probe case, then one checkpoint of it after a
// lease's worth of steps.
void emit_fleet_probe(trace::JsonWriter& j, const Plan& plan) {
  const SolverCase c = fleet_probe_case(plan);
  j.key("probe");
  j.begin_array();
  for (int i = 0; i < plan.timing_reps; ++i) {
    j.begin_object();
    const auto t0 = Clock::now();
    auto geom = core::CaseGeometry::build(c.cfg.nozzle);
    const auto t1 = Clock::now();
    core::CoupledSolver solver(c.cfg, c.par, geom);
    const auto t2 = Clock::now();
    j.kv("geometry_ms", ms_between(t0, t1));
    j.kv("init_ms", ms_between(t1, t2));
    if (i == 0) {
      solver.run(c.steps);
      emit_checkpoint(j, c, geom, solver, plan.tmp);
    }
    j.end_object();
  }
  j.end_array();
  emit_partition(j, c, plan.timing_reps);
}

// ---- main -------------------------------------------------------------------

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_workload: %s\n"
               "usage: perfbench_workload --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmp DIR [--smoke 0|1]\nworkloads:",
               msg.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  static const char* const kFlags[] = {"workload", "seed", "seconds", "trace",
                                       "tmp", "smoke"};
  std::map<std::string, std::string> args{{"smoke", "0"}};
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument '" + key + "'");
    if (std::find(std::begin(kFlags), std::end(kFlags), key.substr(2)) ==
        std::end(kFlags))
      usage("unknown flag " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (args.size() != std::size(kFlags)) usage("missing a required flag");

  Plan plan;
  for (const Workload& cand : kWorkloads)
    if (args["workload"] == cand.name) plan.w = &cand;
  if (!plan.w) usage("unknown workload '" + args["workload"] + "'");
  const Workload& w = *plan.w;
  double seconds = 0.0;
  int trace = -1, smoke = -1;
  try {
    plan.seed = std::stoull(args["seed"]);
    seconds = std::stod(args["seconds"]);
    trace = std::stoi(args["trace"]);
    smoke = std::stoi(args["smoke"]);
  } catch (const std::exception&) {
    usage("--seed, --seconds, --trace and --smoke must be numbers");
  }
  if (seconds <= 0.0 || (trace != 0 && trace != 1) || (smoke != 0 && smoke != 1))
    usage("bad --seconds, --trace or --smoke");
  plan.steps = w.steps;
  if (smoke) {
    plan.steps = w.fleet ? 4 : 2;
    plan.fleet_runs = 4;
    plan.fleet_lease = 2;
    plan.min_reps = 1;
    plan.timing_reps = 1;
  }
  plan.tmp = args["tmp"];
  std::filesystem::create_directories(plan.tmp);

  std::ostringstream out;
  trace::JsonWriter j(out);
  j.begin_object();
  j.kv("workload", w.name);
  j.kv("seed", static_cast<std::int64_t>(plan.seed));
  j.kv("trace", trace);
  emit_fingerprint(j);

  // Repetitions until `seconds` of measurement have passed (at least three
  // untraced ones, so every median has a middle). A traced invocation
  // alternates untraced and traced repetitions and stops on a whole pair
  // (at least two), giving the trace overhead from pairs run under the
  // same host conditions.
  const SolverCase sc = w.fleet ? SolverCase{} : solver_case(plan);
  CorePicker cores;
  std::vector<double> calibration;
  for (int i = 0; i < 3; ++i) calibration.push_back(calibration_once());
  const auto start = Clock::now();
  j.key("reps");
  j.begin_array();
  int untraced = 0, traced_reps = 0;
  while (true) {
    const double elapsed_s = ms_between(start, Clock::now()) / 1e3;
    const bool enough = trace ? (traced_reps == untraced &&
                                 traced_reps >= std::min(plan.min_reps, 2))
                              : untraced >= plan.min_reps;
    if (enough && (smoke || elapsed_s >= seconds)) break;
    const bool do_trace = trace && untraced > traced_reps;
    cores.avoid_saturated();
    calibration.push_back(calibration_once());
    if (w.fleet) {
      fleet_rep(j, plan, do_trace);
    } else {
      solver_rep(j, sc, do_trace, /*checkpoint=*/do_trace && traced_reps == 0,
                 plan.tmp);
    }
    (do_trace ? traced_reps : untraced) += 1;
  }
  j.end_array();
  j.key("calibration_ms");
  j.begin_array();
  for (const double ms : calibration) j.value(ms);
  j.end_array();

  if (trace) {
    if (w.fleet) {
      emit_fleet_probe(j, plan);
    } else {
      emit_partition(j, sc, plan.timing_reps);
    }
  }

  j.finish();
  std::printf("%s\n", out.str().c_str());
  return 0;
}
