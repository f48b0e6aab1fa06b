#include "obs/telemetry.hpp"

#include <ostream>
#include <sstream>

#include "obs/host_profiler.hpp"
#include "support/error.hpp"
#include "support/serialize.hpp"
#include "trace/chrome_writer.hpp"  // format_double, escape_json
#include "trace/json_writer.hpp"

namespace dsmcpic::obs {

namespace {

/// Escapes a Prometheus label value (backslash, quote, newline).
std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Emits one metric family in Prometheus text format: HELP + TYPE header,
/// then one sample line per labeled value. The `run` label (when set) is
/// prepended to every sample so a fleet aggregator can merge files from
/// several runs without collisions.
class PromFamily {
 public:
  PromFamily(std::ostream& os, const std::string& run_label,
             const std::string& name, const char* type, const char* help)
      : os_(os), name_(name) {
    if (!run_label.empty()) run_ = "run=\"" + escape_label(run_label) + "\"";
    os_ << "# HELP " << name_ << " " << help << "\n";
    os_ << "# TYPE " << name_ << " " << type << "\n";
  }

  void sample(double value, const std::string& extra_labels = "") {
    os_ << name_;
    if (!run_.empty() || !extra_labels.empty()) {
      os_ << "{" << run_;
      if (!run_.empty() && !extra_labels.empty()) os_ << ",";
      os_ << extra_labels << "}";
    }
    os_ << " " << trace::format_double(value) << "\n";
  }

 private:
  std::ostream& os_;
  std::string name_;
  std::string run_;
};

std::string label(const char* key, const std::string& value) {
  return std::string(key) + "=\"" + escape_label(value) + "\"";
}

}  // namespace

// ---- TelemetrySeries -------------------------------------------------------

TelemetrySeries::TelemetrySeries(int capacity) : capacity_(capacity) {
  DSMCPIC_CHECK_MSG(capacity_ >= 2, "telemetry series capacity must be >= 2");
  points_.reserve(static_cast<std::size_t>(capacity_));
}

void TelemetrySeries::push(std::int64_t step, double value) {
  if (step % stride_ != 0) return;
  points_.push_back(Point{step, value});
  if (static_cast<int>(points_.size()) < capacity_) return;
  // Full: keep every other sample (even positions). Retained steps were
  // the multiples of the old stride in ascending order, so the survivors
  // are exactly the multiples of the doubled stride.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < points_.size(); i += 2) points_[keep++] = points_[i];
  points_.resize(keep);
  stride_ *= 2;
}

// ---- TelemetryHub ----------------------------------------------------------

TelemetryHub::TelemetryHub(TelemetryConfig cfg) : cfg_(std::move(cfg)) {
  DSMCPIC_CHECK_MSG(cfg_.series_capacity >= 2,
                    "telemetry series capacity must be >= 2");
  DSMCPIC_CHECK_MSG(cfg_.flight_recorder >= 1,
                    "--flight-recorder must be >= 1");
  DSMCPIC_CHECK_MSG(cfg_.metrics_interval >= 1,
                    "--metrics-interval must be >= 1");
}

void TelemetryHub::push_series(const std::string& name, std::int64_t step,
                               double value) {
  auto it = series_.find(name);
  if (it == series_.end())
    it = series_.emplace(name, TelemetrySeries(cfg_.series_capacity)).first;
  it->second.push(step, value);
}

void TelemetryHub::on_step(const StepRecord& s) {
  const std::int64_t step = s.dsmc_step;
  push_series("particles", step, static_cast<double>(s.particles()));
  push_series("particles_h", step, static_cast<double>(s.total_h));
  push_series("particles_hplus", step, static_cast<double>(s.total_hplus));
  push_series("injected", step, static_cast<double>(s.injected));
  push_series("migrated_dsmc", step, static_cast<double>(s.migrated_dsmc));
  push_series("migrated_pic", step, static_cast<double>(s.migrated_pic));
  push_series("collisions", step, static_cast<double>(s.collisions));
  push_series("ionizations", step, static_cast<double>(s.ionizations));
  push_series("recombinations", step, static_cast<double>(s.recombinations));
  push_series("lii", step, s.lii);
  push_series("rebalanced", step, s.rebalanced ? 1.0 : 0.0);
  push_series("poisson_iterations", step,
              static_cast<double>(s.poisson_iterations));
  push_series("active_ranks", step, static_cast<double>(s.active_ranks));
  push_series("virtual_seconds", step, s.virtual_time);
  push_series("exchange_bytes", step, s.exchange_bytes);
  push_series("exchange_messages", step,
              static_cast<double>(s.exchange_messages));
  push_series("message_arena_bytes", step,
              static_cast<double>(s.message_arena_bytes));
  push_series("cost_scale_min", step, s.cost_scale_min);
  push_series("cost_scale_max", step, s.cost_scale_max);
  push_series("cost_scale_mean", step, s.cost_scale_mean);
  push_series("audit_checks", step, static_cast<double>(s.audit_checks));
  push_series("audit_violations", step,
              static_cast<double>(s.audit_violations));
  for (const PhaseRecord& p : s.phases)
    push_series("phase_busy_max/" + p.name, step, p.busy_max);
  if (prof_) push_series("host_ms", step, prof_->total_ms());

  totals_.add(s);

  flight_.push_back(s);
  while (static_cast<int>(flight_.size()) > cfg_.flight_recorder)
    flight_.pop_front();

  ++samples_seen_;
  if (samples_seen_ % cfg_.metrics_interval == 0) publish();
}

void TelemetryHub::publish() {
  if (!cfg_.metrics_prom_path.empty()) {
    std::ostringstream os;
    write_prometheus(os);
    io::atomic_write_file(cfg_.metrics_prom_path, os.str());
  }
  if (!cfg_.metrics_json_path.empty()) {
    std::ostringstream os;
    write_json_snapshot(os);
    io::atomic_write_file(cfg_.metrics_json_path, os.str());
  }
  ++publishes_;
}

void TelemetryHub::write_prometheus(std::ostream& os) const {
  const StepRecord* last = flight_.empty() ? nullptr : &flight_.back();
  const std::string& run = cfg_.run_label;

  {
    PromFamily f(os, run, "dsmcpic_step", "gauge", "current DSMC step");
    f.sample(last ? static_cast<double>(last->dsmc_step) : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_supersteps_total", "counter",
                 "runtime supersteps executed");
    f.sample(last ? static_cast<double>(last->supersteps) : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_virtual_seconds_total", "counter",
                 "end-to-end virtual time (cost-model seconds)");
    f.sample(last ? last->virtual_time : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_active_ranks", "gauge",
                 "virtual ranks currently active");
    f.sample(last ? static_cast<double>(last->active_ranks) : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_particles", "gauge",
                 "particles alive across all ranks");
    f.sample(last ? static_cast<double>(last->particles()) : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_particles_species", "gauge",
                 "particles alive by species");
    f.sample(last ? static_cast<double>(last->total_h) : 0.0,
             label("species", "H"));
    f.sample(last ? static_cast<double>(last->total_hplus) : 0.0,
             label("species", "Hplus"));
  }
  {
    PromFamily f(os, run, "dsmcpic_lii", "gauge",
                 "load imbalance indicator (last step)");
    f.sample(last ? last->lii : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_poisson_iterations", "gauge",
                 "CG iterations of the last Poisson solve");
    f.sample(last ? static_cast<double>(last->poisson_iterations) : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_injected_total", "counter",
                 "particles injected");
    f.sample(static_cast<double>(totals_.injected));
  }
  {
    PromFamily f(os, run, "dsmcpic_migrated_total", "counter",
                 "particles migrated between ranks, by exchange path");
    f.sample(static_cast<double>(totals_.migrated_dsmc),
             label("path", "dsmc"));
    f.sample(static_cast<double>(totals_.migrated_pic), label("path", "pic"));
  }
  {
    PromFamily f(os, run, "dsmcpic_collisions_total", "counter",
                 "DSMC collisions");
    f.sample(static_cast<double>(totals_.collisions));
  }
  {
    PromFamily f(os, run, "dsmcpic_ionizations_total", "counter",
                 "ionization events");
    f.sample(static_cast<double>(totals_.ionizations));
  }
  {
    PromFamily f(os, run, "dsmcpic_recombinations_total", "counter",
                 "recombination events");
    f.sample(static_cast<double>(totals_.recombinations));
  }
  {
    PromFamily f(os, run, "dsmcpic_exited_total", "counter",
                 "particles removed at boundaries");
    f.sample(static_cast<double>(totals_.exited));
  }
  {
    PromFamily f(os, run, "dsmcpic_pic_lost_total", "counter",
                 "charged particles the fine locate lost");
    f.sample(static_cast<double>(totals_.pic_lost));
  }
  {
    PromFamily f(os, run, "dsmcpic_rebalances_total", "counter",
                 "rebalance events");
    f.sample(static_cast<double>(totals_.rebalances));
  }
  {
    PromFamily f(os, run, "dsmcpic_exchange_bytes_total", "counter",
                 "scaled payload bytes migrated");
    f.sample(totals_.exchange_bytes);
  }
  {
    PromFamily f(os, run, "dsmcpic_exchange_messages_total", "counter",
                 "point-to-point messages routed by the exchanges");
    f.sample(static_cast<double>(totals_.exchange_messages));
  }
  {
    PromFamily f(os, run, "dsmcpic_message_arena_bytes", "gauge",
                 "bytes held by the runtime's message arenas");
    f.sample(last ? static_cast<double>(last->message_arena_bytes) : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_audit_checks_total", "counter",
                 "health-audit checks run");
    f.sample(last ? static_cast<double>(last->audit_checks) : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_audit_violations_total", "counter",
                 "health-audit violations tallied");
    f.sample(last ? static_cast<double>(last->audit_violations) : 0.0);
  }
  {
    PromFamily f(os, run, "dsmcpic_cost_scale", "gauge",
                 "cost-model per-rank correction factors over active ranks");
    f.sample(last ? last->cost_scale_min : 1.0, label("stat", "min"));
    f.sample(last ? last->cost_scale_max : 1.0, label("stat", "max"));
    f.sample(last ? last->cost_scale_mean : 1.0, label("stat", "mean"));
  }
  if (last && !last->phases.empty()) {
    PromFamily busy(os, run, "dsmcpic_phase_busy_seconds", "counter",
                    "cumulative busy_max virtual seconds per runtime phase");
    for (const PhaseRecord& p : last->phases)
      busy.sample(p.busy_max, label("phase", p.name));
    PromFamily bytes(os, run, "dsmcpic_phase_bytes_total", "counter",
                     "cumulative scaled payload bytes per runtime phase");
    for (const PhaseRecord& p : last->phases)
      bytes.sample(p.bytes, label("phase", p.name));
    PromFamily msgs(os, run, "dsmcpic_phase_messages_total", "counter",
                    "cumulative messages routed per runtime phase");
    for (const PhaseRecord& p : last->phases)
      msgs.sample(static_cast<double>(p.transactions),
                  label("phase", p.name));
  }
  if (prof_) {
    PromFamily f(os, run, "dsmcpic_host_kernel_ms_total", "counter",
                 "host wall-clock milliseconds per kernel");
    for (const auto& [name, st] : prof_->stats())
      f.sample(st.total_ms, label("kernel", name));
  }
  {
    PromFamily f(os, run, "dsmcpic_telemetry_samples_total", "counter",
                 "telemetry samples ingested");
    f.sample(static_cast<double>(samples_seen_));
  }
  {
    PromFamily f(os, run, "dsmcpic_telemetry_publishes_total", "counter",
                 "exposition publications (including this one)");
    f.sample(static_cast<double>(publishes_ + 1));
  }
}

void TelemetryHub::write_json_snapshot(std::ostream& os) const {
  const StepRecord* last = flight_.empty() ? nullptr : &flight_.back();
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kMetricsSchema);
  w.kv("run", cfg_.run_label);
  w.kv("samples_seen", samples_seen_);
  w.kv("metrics_interval", cfg_.metrics_interval);
  w.kv("flight_recorder", cfg_.flight_recorder);

  w.key("gauges");
  w.begin_object();
  w.kv("step", last ? last->dsmc_step : 0);
  w.kv("supersteps", last ? last->supersteps : 0);
  w.kv("virtual_seconds", last ? last->virtual_time : 0.0);
  w.kv("active_ranks", last ? last->active_ranks : 0);
  w.kv("particles", last ? last->particles() : 0);
  w.kv("lii", last ? last->lii : 0.0);
  w.end_object();

  w.key("counters");
  w.begin_object();
  w.kv("injected", totals_.injected);
  w.kv("migrated_dsmc", totals_.migrated_dsmc);
  w.kv("migrated_pic", totals_.migrated_pic);
  w.kv("collisions", totals_.collisions);
  w.kv("ionizations", totals_.ionizations);
  w.kv("recombinations", totals_.recombinations);
  w.kv("exited", totals_.exited);
  w.kv("pic_lost", totals_.pic_lost);
  w.kv("rebalances", totals_.rebalances);
  w.kv("exchange_bytes", totals_.exchange_bytes);
  w.kv("exchange_messages", totals_.exchange_messages);
  w.end_object();

  w.key("series");
  w.begin_array();
  for (const auto& [name, s] : series_) {
    w.begin_object();
    w.kv("name", name);
    w.kv("stride", s.stride());
    w.kv("capacity", s.capacity());
    w.key("points");
    w.begin_array();
    for (const TelemetrySeries::Point& p : s.points()) {
      w.begin_object();
      w.kv("step", p.step);
      w.kv("value", p.value);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  w.finish();
  os << "\n";
}

void TelemetryHub::write_postmortem(std::ostream& os,
                                    const std::string& reason) const {
  // Only the deterministic slice of each record: no host wall-clock, no
  // message-arena sizes — the bytes must be identical across execution
  // backends (tests/telemetry_test.cpp).
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kPostmortemSchema);
  w.kv("reason", reason);
  w.kv("run", cfg_.run_label);
  w.kv("flight_recorder", cfg_.flight_recorder);
  w.kv("samples_seen", samples_seen_);
  w.key("records");
  w.begin_array();
  for (const StepRecord& s : flight_) {
    w.begin_object();
    w.kv("step", s.dsmc_step);
    w.kv("supersteps", s.supersteps);
    w.kv("virtual_seconds", s.virtual_time);
    w.kv("active_ranks", s.active_ranks);
    w.kv("particles", s.particles());
    w.kv("particles_h", s.total_h);
    w.kv("particles_hplus", s.total_hplus);
    w.kv("injected", s.injected);
    w.kv("migrated_dsmc", s.migrated_dsmc);
    w.kv("migrated_pic", s.migrated_pic);
    w.kv("collisions", s.collisions);
    w.kv("ionizations", s.ionizations);
    w.kv("recombinations", s.recombinations);
    w.kv("exited_dsmc", s.exited_dsmc);
    w.kv("exited_pic", s.exited_pic);
    w.kv("pic_lost", s.pic_lost);
    w.kv("lii", s.lii);
    w.kv("rebalanced", s.rebalanced);
    w.kv("poisson_iterations", s.poisson_iterations);
    w.key("particles_per_rank");
    w.begin_array();
    for (std::int64_t n : s.particles_per_rank) w.value(n);
    w.end_array();
    w.key("phases");
    w.begin_array();
    for (const PhaseRecord& p : s.phases) {
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
    w.kv("exchange_bytes", s.exchange_bytes);
    w.kv("exchange_messages", s.exchange_messages);
    w.key("cost_scale");
    w.begin_object();
    w.kv("min", s.cost_scale_min);
    w.kv("max", s.cost_scale_max);
    w.kv("mean", s.cost_scale_mean);
    w.end_object();
    w.key("decisions");
    w.begin_array();
    for (const DecisionRecord& d : s.decisions) {
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
    w.kv("checks", s.audit_checks);
    w.kv("violations", s.audit_violations);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.finish();
  os << "\n";
}

void TelemetryHub::dump_postmortem(const std::string& reason) {
  if (cfg_.postmortem_path.empty() || postmortem_written_) return;
  std::ostringstream os;
  write_postmortem(os, reason);
  io::atomic_write_file(cfg_.postmortem_path, os.str());
  postmortem_written_ = true;
}

}  // namespace dsmcpic::obs
