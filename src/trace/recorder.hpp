#pragma once
// TraceRecorder — the in-memory sink for the tracing subsystem
// (DESIGN.md §2e). par::Runtime calls the add_* hooks from the driver
// thread (never from superstep worker threads), so recording needs no
// locks and a trace is bit-identical for every thread budget. Recording
// is pure observation: it never advances a clock, touches a message
// payload, or draws a random number, so a trace-enabled run is
// bit-identical to a trace-disabled one.
//
// Exporters (chrome_writer, metrics CSV) and the offline
// CriticalPathAnalyzer consume the recorder read-only after the run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/events.hpp"
#include "trace/metrics.hpp"

namespace dsmcpic::trace {

class TraceRecorder {
 public:
  explicit TraceRecorder(int nranks);

  int nranks() const { return nranks_; }

  // ---- name interning -----------------------------------------------------
  int intern_phase(const std::string& name);
  int intern_key(const std::string& name);  // work-kind names
  const std::vector<std::string>& phase_names() const { return phase_names_; }
  const std::vector<std::string>& key_names() const { return key_names_; }
  const std::string& phase_name(int id) const { return phase_names_.at(id); }
  const std::string& key_name(int id) const { return key_names_.at(id); }

  /// Monotonic sequence shared by supersteps and collectives; ties trace
  /// records of one routing round / sync together.
  std::uint32_t next_seq() { return seq_++; }

  // ---- recording hooks (driver thread only) -------------------------------
  void add_span(Span s);
  void add_message(MessageRec m);
  void add_sync(SyncRec s);
  void add_instant(int rank, std::string name, double t);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // ---- read-only access ---------------------------------------------------
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<MessageRec>& messages() const { return messages_; }
  const std::vector<SyncRec>& syncs() const { return syncs_; }
  const std::vector<Instant>& instants() const { return instants_; }

  /// Latest virtual time covered by any record (0 when empty).
  double end_time() const { return end_time_; }

 private:
  int nranks_;
  std::uint32_t seq_ = 0;

  std::map<std::string, int> phase_ids_;
  std::vector<std::string> phase_names_;
  std::map<std::string, int> key_ids_;
  std::vector<std::string> key_names_;

  std::vector<Span> spans_;
  std::vector<MessageRec> messages_;
  std::vector<SyncRec> syncs_;
  std::vector<Instant> instants_;
  MetricsRegistry metrics_;
  double end_time_ = 0.0;
};

}  // namespace dsmcpic::trace
