#include "par/runtime.hpp"

#include <algorithm>
#include <cmath>

#include "trace/recorder.hpp"

namespace dsmcpic::par {

// ---- Comm -----------------------------------------------------------------

int Comm::size() const { return rt_->size(); }

void Comm::charge(WorkKind kind, double units) {
  DSMCPIC_CHECK_MSG(rt_->in_superstep_, "charge() outside a superstep");
  const double cost =
      units * rt_->topo_.profile().costs[static_cast<int>(kind)] *
      rt_->scale_of(cost_class(kind));
  rt_->clocks_[rank_] += cost;
  rt_->charge_busy(rank_, rt_->current_phase_for_comm_, cost);
  // Rank-private slot: safe under concurrent bodies, read after the join.
  if (rt_->tracer_)
    rt_->trace_work_[rank_][static_cast<int>(kind)] += units;
}

std::byte* Comm::reserve(int dst, int tag, std::size_t nbytes,
                         CostClass cls) {
  DSMCPIC_CHECK_MSG(rt_->in_superstep_, "send() outside a superstep");
  DSMCPIC_CHECK_MSG(dst >= 0 && dst < rt_->active_,
                    "bad destination rank " << dst << " (active set is [0, "
                                            << rt_->active_ << "))");
  // Sender-private arena and staging buffer: safe under concurrent bodies.
  Runtime::Arena& a = rt_->arenas_[rank_][rt_->supersteps_ & 1];
  constexpr std::size_t kAlign = alignof(std::max_align_t);
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= kAlign);
  const std::size_t offset = (a.used + kAlign - 1) / kAlign * kAlign;
  const std::size_t end = offset + nbytes;
  if (end > a.capacity) {
    // Earlier sends of this superstep are offsets, so moving them is safe.
    const std::size_t capacity = std::max(end, 2 * a.capacity);
    auto grown = std::make_unique_for_overwrite<std::byte[]>(capacity);
    if (a.used) std::memcpy(grown.get(), a.data.get(), a.used);
    a.data = std::move(grown);
    a.capacity = capacity;
  }
  a.used = end;
  rt_->staged_[rank_].push_back(
      {dst, tag, rt_->scale_of(cls), offset, nbytes});
  return a.data.get() + offset;
}

const std::vector<Message>& Comm::inbox() const {
  return rt_->inbox_[rank_];
}

void Comm::charge_comm_seconds(double seconds) {
  DSMCPIC_CHECK_MSG(rt_->in_superstep_, "charge_comm_seconds outside superstep");
  rt_->clocks_[rank_] += seconds;
  rt_->charge_busy(rank_, rt_->current_phase_for_comm_, seconds);
}

double Comm::alpha_to(int peer) const {
  return rt_->topo_.alpha(rank_, peer);
}

// ---- Runtime ----------------------------------------------------------------

Runtime::Runtime(int nranks, Topology topology, double particle_scale,
                 double grid_scale, int threads)
    : nranks_(nranks),
      active_(nranks),
      topo_(std::move(topology)),
      particle_scale_(particle_scale),
      grid_scale_(grid_scale),
      clocks_(nranks, 0.0),
      pending_(nranks),
      inbox_(nranks),
      arenas_(nranks),
      staged_(nranks) {
  DSMCPIC_CHECK_MSG(nranks >= 1, "runtime needs at least one rank");
  DSMCPIC_CHECK_MSG(topo_.nranks() == nranks,
                    "topology sized for " << topo_.nranks() << " ranks, not "
                                          << nranks);
  DSMCPIC_CHECK(particle_scale > 0.0 && grid_scale > 0.0);
  DSMCPIC_CHECK_MSG(threads >= 0, "threads must be >= 0, got " << threads);
  if (threads != 1) {
    pool_ = std::make_unique<support::ThreadPool>(threads);
    if (pool_->num_threads() == 1) pool_.reset();  // one-core host
  }
}

void Runtime::set_tracer(trace::TraceRecorder* rec) {
  if (rec) {
    DSMCPIC_CHECK_MSG(rec->nranks() == nranks_,
                      "trace recorder sized for " << rec->nranks()
                                                  << " ranks, not " << nranks_);
  }
  tracer_ = rec;
  trace_phase_ids_.assign(phases_.size(), -1);
  trace_work_keys_ready_ = false;
  trace_work_.assign(rec ? nranks_ : 0, {});
}

int Runtime::trace_phase(int pid) {
  if (static_cast<std::size_t>(pid) >= trace_phase_ids_.size())
    trace_phase_ids_.resize(phases_.size(), -1);
  int& id = trace_phase_ids_[pid];
  if (id < 0) id = tracer_->intern_phase(phases_[pid].name);
  return id;
}

void Runtime::trace_spans_since(const std::vector<double>& pre, int pid,
                                trace::SpanKind kind, std::uint32_t seq,
                                bool with_work) {
  if (with_work && !trace_work_keys_ready_) {
    for (std::size_t k = 0; k < kNumWorkKinds; ++k)
      trace_work_keys_[k] =
          tracer_->intern_key(work_kind_name(static_cast<WorkKind>(k)));
    trace_work_keys_ready_ = true;
  }
  const int tp = trace_phase(pid);
  for (int r = 0; r < active_; ++r) {
    if (!(clocks_[r] > pre[r])) continue;
    trace::Span s;
    s.rank = r;
    s.phase = tp;
    s.kind = kind;
    s.t0 = pre[r];
    s.t1 = clocks_[r];
    s.seq = seq;
    if (with_work) {
      for (std::size_t k = 0; k < kNumWorkKinds; ++k)
        if (trace_work_[r][k] > 0.0)
          s.work.push_back(
              trace::WorkItem{trace_work_keys_[k], trace_work_[r][k]});
    }
    tracer_->add_span(std::move(s));
  }
}

int Runtime::phase_id(const std::string& phase) {
  auto [it, inserted] = phase_ids_.try_emplace(
      phase, static_cast<int>(phases_.size()));
  if (inserted)
    phases_.push_back(PhaseAccount{phase, std::vector<double>(nranks_, 0.0)});
  return it->second;
}

void Runtime::charge_busy(int rank, int phase, double seconds) {
  phases_[phase].busy[rank] += seconds;
}

double Runtime::tree_stages() const {
  return std::ceil(std::log2(std::max(2, active_)));
}

void Runtime::set_active_ranks(int n) {
  DSMCPIC_CHECK_MSG(!in_superstep_,
                    "set_active_ranks inside a superstep body");
  DSMCPIC_CHECK_MSG(undelivered_messages() == 0,
                    "set_active_ranks with messages in flight");
  DSMCPIC_CHECK_MSG(n >= 1 && n <= nranks_,
                    "active rank count " << n << " out of [1, " << nranks_
                                         << "]");
  if (n > active_) {
    // Reactivated ranks resume at the active frontier: a parked rank cannot
    // rejoin in the past (its frozen clock may predate work the active set
    // already did), and joining to the max keeps virtual time monotone.
    double frontier = 0.0;
    for (int r = 0; r < active_; ++r)
      frontier = std::max(frontier, clocks_[r]);
    for (int r = active_; r < n; ++r)
      clocks_[r] = std::max(clocks_[r], frontier);
  }
  active_ = n;
}

std::size_t Runtime::arena_bytes() const {
  std::size_t n = 0;
  for (const auto& pair : arenas_)
    for (const Arena& a : pair) n += a.capacity;
  return n;
}

void Runtime::superstep(const std::string& phase,
                        const std::function<void(Comm&)>& fn) {
  // The phase id is registered here, on the driver thread, before any body
  // runs: Comm::charge on worker threads only ever *reads* the id, so the
  // phase registry map is never mutated concurrently.
  const int pid = phase_id(phase);
  // Deliver messages produced in the previous superstep. swap (not move +
  // clear) so pending_ keeps its vector capacity — steady-state supersteps
  // reuse the same Message arrays without reallocating. Only the active
  // prefix can hold messages (sends reject parked destinations).
  for (int r = 0; r < active_; ++r) std::swap(inbox_[r], pending_[r]);

  if (tracer_) {
    trace_seq_ = tracer_->next_seq();
    trace_pre_ = clocks_;
    for (auto& w : trace_work_) w.fill(0.0);
  }

  in_superstep_ = true;
  current_phase_for_comm_ = pid;
  for (int r = 0; r < active_; ++r) {
    staged_[r].clear();
    arenas_[r][supersteps_ & 1].used = 0;  // holds superstep S-2's bytes
  }
  // One thread budget (DESIGN.md §2c): with more active ranks than lanes,
  // the lanes go to rank bodies and every kernel inside a body runs inline
  // (ThreadPool's nested-call rule); otherwise the bodies run here in rank
  // order and each kernel chunks across the same pool. Each rank writes
  // only its own slots (clock, busy row entry, staging buffer, its
  // caller-side state), so the dynamic schedule cannot change any result.
  // parallel_for's join orders all writes before the merge. Parked ranks
  // are not dispatched at all: O(active) per superstep.
  if (pool_ && active_ > pool_->num_threads()) {
    pool_->parallel_for(active_, [&](int r) {
      Comm c(this, r);
      fn(c);
    });
  } else {
    for (int r = 0; r < active_; ++r) {
      Comm c(this, r);
      fn(c);
    }
  }
  in_superstep_ = false;
  if (tracer_) {
    trace_spans_since(trace_pre_, pid, trace::SpanKind::kCompute, trace_seq_,
                      /*with_work=*/true);
    trace_mid_ = clocks_;
  }
  route_messages(pid);
  if (tracer_)
    trace_spans_since(trace_mid_, pid, trace::SpanKind::kComm, trace_seq_,
                      /*with_work=*/false);
  for (int r = 0; r < active_; ++r) inbox_[r].clear();
  ++supersteps_;
}

std::size_t Runtime::staged_count() const {
  std::size_t n = 0;
  // Parked ranks never run a body, so only the active prefix can stage.
  for (int r = 0; r < active_; ++r) n += staged_[r].size();
  return n;
}

std::size_t Runtime::undelivered_messages() const {
  std::size_t n = staged_count();
  for (const auto& p : pending_) n += p.size();
  return n;
}

void Runtime::route_messages(int phase) {
  const std::uint64_t hint = congestion_hint_;
  congestion_hint_ = 0;  // one-shot
  apply_nic_serialization(phase, hint);
  const std::size_t staged = staged_count();
  if (staged == 0) return;
  const MachineProfile& prof = topo_.profile();
  // Congestion: extra latency when a routing round carries many concurrent
  // transactions per node (switch/NIC pressure); this is what separates the
  // distributed N(N-1)-transaction strategy from the centralized 2N one at
  // scale (paper Sec. IV-B3, Fig. 11).
  const double round_transactions =
      hint ? static_cast<double>(hint) : static_cast<double>(staged);
  const double per_node = round_transactions / std::max(1, active_nodes());
  const double congestion_mult = 1.0 + prof.congestion * per_node;

  // Merge the per-sender buffers in (src rank, send order): each inbox
  // receives its messages sorted by source rank, ties broken by the order
  // the source sent them. This is a documented guarantee (par_test
  // InboxOrderingIsSrcMajorSendOrder) and matches what the sequential
  // 0..N-1 execution produced before per-rank staging existed. Only the
  // active prefix can have staged sends.
  for (int src = 0; src < active_; ++src) {
    // Every body has returned, so no arena moves any more: resolve offsets.
    const std::byte* arena = arenas_[src][supersteps_ & 1].data.get();
    auto& buf = staged_[src];
    for (const Staged& s : buf) {
      const Message m{src, s.dst, s.tag, s.byte_scale,
                      {arena + s.offset, s.size}};
      const double bytes = static_cast<double>(m.bytes.size()) * m.byte_scale;
      const double cost =
          topo_.alpha(m.src, m.dst) * congestion_mult + bytes * prof.beta;
      const double send_begin = clocks_[m.src];
      const double recv_begin = clocks_[m.dst];
      // Rendezvous: both endpoints are busy for the transfer.
      clocks_[m.src] += cost;
      charge_busy(m.src, phase, cost);
      clocks_[m.dst] += cost;
      charge_busy(m.dst, phase, cost);
      phases_[phase].transactions += 1;
      phases_[phase].bytes += bytes;
      if (tracer_) {
        trace::MessageRec rec;
        rec.src = m.src;
        rec.dst = m.dst;
        rec.tag = m.tag;
        rec.bytes = m.bytes.size();
        rec.scaled_bytes = bytes;
        rec.send_begin = send_begin;
        rec.send_end = clocks_[m.src];
        rec.recv_begin = recv_begin;
        rec.recv_end = clocks_[m.dst];
        rec.phase = trace_phase(phase);
        rec.seq = trace_seq_;
        tracer_->add_message(std::move(rec));
      }
      pending_[m.dst].push_back(m);
    }
    buf.clear();
  }
}

void Runtime::apply_nic_serialization(int phase, std::uint64_t hint) {
  const MachineProfile& prof = topo_.profile();
  if (prof.nic_overhead <= 0.0) return;
  const int ppn = prof.cores_per_node;
  const int nodes = active_nodes();
  if (nodes <= 1 && hint == 0) return;  // single node: no inter-node traffic

  // Per-node inter-node message load. Ranks on one physical node share a
  // NIC, which processes messages serially (and slower under incast).
  // Member scratch: sized once, zeroed per round, no steady-state allocation.
  nic_load_.assign(static_cast<std::size_t>(nodes), 0.0);
  if (hint) {
    // Logical all-pairs round (distributed exchange): assume the hinted
    // transactions are spread uniformly over ordered rank pairs; only the
    // inter-node share hits the NICs. Parked ranks send nothing, so the
    // pair population is the active prefix.
    const double inter_share =
        active_ > 1
            ? std::max(0.0, 1.0 - static_cast<double>(ppn - 1) / (active_ - 1))
            : 0.0;
    const double per_node = static_cast<double>(hint) * inter_share / nodes;
    std::fill(nic_load_.begin(), nic_load_.end(), per_node);
  } else {
    for (int src = 0; src < active_; ++src) {
      for (const Staged& m : staged_[src]) {
        const int ns = src / ppn;
        const int nd = m.dst / ppn;
        if (ns == nd) continue;
        nic_load_[ns] += 1.0;
        nic_load_[nd] += 1.0;
      }
    }
  }

  for (int node = 0; node < nodes; ++node) {
    if (nic_load_[node] <= 0.0) continue;
    const double t = nic_load_[node] * prof.nic_overhead *
                     (1.0 + nic_load_[node] * prof.nic_contention);
    const int lo = node * ppn;
    const int hi = std::min(active_, lo + ppn);
    for (int r = lo; r < hi; ++r) {
      clocks_[r] += t;
      charge_busy(r, phase, t);
    }
  }
}

void Runtime::sync_clocks(double extra_cost_per_rank, int phase) {
  // Parked ranks neither arrive at nor leave the barrier: their clocks stay
  // frozen and contribute nothing to the maximum.
  double mx = 0.0;
  int argmax = 0;
  for (int r = 0; r < active_; ++r) {
    if (clocks_[r] > mx) {
      mx = clocks_[r];
      argmax = r;
    }
  }
  if (tracer_) {
    trace::SyncRec s;
    s.phase = trace_phase(phase);
    s.seq = tracer_->next_seq();
    s.t_max = mx;
    s.t_end = mx + extra_cost_per_rank;
    s.argmax_rank = argmax;
    s.arrive = clocks_;
    tracer_->add_sync(std::move(s));
  }
  for (int r = 0; r < active_; ++r) {
    clocks_[r] = mx + extra_cost_per_rank;
    charge_busy(r, phase, extra_cost_per_rank);
  }
}

void Runtime::barrier(const std::string& phase) {
  const int pid = phase_id(phase);
  sync_clocks(tree_stages() * topo_.profile().alpha_tree, pid);
}

double Runtime::allreduce_sum(const std::string& phase,
                              std::span<const double> vals) {
  DSMCPIC_CHECK(static_cast<int>(vals.size()) == active_);
  const int pid = phase_id(phase);
  const double cost =
      2.0 * tree_stages() * topo_.profile().alpha_tree +
      8.0 * topo_.profile().beta * tree_stages();
  sync_clocks(cost, pid);
  double s = 0.0;
  for (double v : vals) s += v;
  return s;
}

std::vector<double> Runtime::allreduce_sum_vec(
    const std::string& phase, const std::vector<std::vector<double>>& per_rank) {
  DSMCPIC_CHECK(static_cast<int>(per_rank.size()) == active_);
  const std::size_t len = per_rank.empty() ? 0 : per_rank[0].size();
  for (const auto& v : per_rank) DSMCPIC_CHECK(v.size() == len);
  const int pid = phase_id(phase);
  // Ring allreduce: 2(N-1)/N * bytes through each rank + latency terms.
  const double bytes = static_cast<double>(len) * 8.0;
  const double cost = 2.0 * tree_stages() * topo_.profile().alpha_tree +
                      2.0 * bytes * topo_.profile().beta;
  sync_clocks(cost, pid);
  std::vector<double> out(len, 0.0);
  for (const auto& v : per_rank)
    for (std::size_t i = 0; i < len; ++i) out[i] += v[i];
  return out;
}

std::vector<std::int64_t> Runtime::exscan_sum(
    const std::string& phase, std::span<const std::int64_t> vals) {
  DSMCPIC_CHECK(static_cast<int>(vals.size()) == active_);
  const int pid = phase_id(phase);
  sync_clocks(tree_stages() * topo_.profile().alpha_tree, pid);
  std::vector<std::int64_t> out(active_, 0);
  std::int64_t acc = 0;
  for (int r = 0; r < active_; ++r) {
    out[r] = acc;
    acc += vals[r];
  }
  return out;
}

std::vector<double> Runtime::allgather(const std::string& phase,
                                       std::span<const double> vals) {
  DSMCPIC_CHECK(static_cast<int>(vals.size()) == active_);
  const int pid = phase_id(phase);
  const double cost = tree_stages() * topo_.profile().alpha_tree +
                      8.0 * active_ * topo_.profile().beta;
  sync_clocks(cost, pid);
  return std::vector<double>(vals.begin(), vals.end());
}

void Runtime::charge_bcast(const std::string& phase, int root, double bytes) {
  DSMCPIC_CHECK(root >= 0 && root < active_);
  const int pid = phase_id(phase);
  const double cost = tree_stages() * (topo_.profile().alpha_tree +
                                       bytes * topo_.profile().beta);
  sync_clocks(cost, pid);
}

void Runtime::charge_gather(const std::string& phase, int root,
                            double bytes_per_rank) {
  DSMCPIC_CHECK(root >= 0 && root < active_);
  const int pid = phase_id(phase);
  const MachineProfile& prof = topo_.profile();
  std::uint32_t seq = 0;
  if (tracer_) {
    seq = tracer_->next_seq();
    trace_pre_ = clocks_;
  }
  // Root receives N-1 serialized messages; every other active rank pays one
  // send (parked ranks have nothing to contribute).
  double root_cost = 0.0;
  for (int r = 0; r < active_; ++r) {
    if (r == root) continue;
    const double c = topo_.alpha(r, root) + bytes_per_rank * prof.beta;
    clocks_[r] += c;
    charge_busy(r, pid, c);
    root_cost += c;
  }
  clocks_[root] += root_cost;
  charge_busy(root, pid, root_cost);
  if (tracer_)
    trace_spans_since(trace_pre_, pid, trace::SpanKind::kComm, seq,
                      /*with_work=*/false);
}

void Runtime::charge_rank(const std::string& phase, int rank, WorkKind kind,
                          double units) {
  DSMCPIC_CHECK(rank >= 0 && rank < active_);
  const int pid = phase_id(phase);
  const double cost = units * topo_.profile().costs[static_cast<int>(kind)] *
                      scale_of(cost_class(kind));
  const double pre = clocks_[rank];
  clocks_[rank] += cost;
  charge_busy(rank, pid, cost);
  if (tracer_ && clocks_[rank] > pre) {
    trace::Span s;
    s.rank = rank;
    s.phase = trace_phase(pid);
    s.kind = trace::SpanKind::kCompute;
    s.t0 = pre;
    s.t1 = clocks_[rank];
    s.seq = tracer_->next_seq();
    s.work.push_back(trace::WorkItem{
        tracer_->intern_key(work_kind_name(kind)), units});
    tracer_->add_span(std::move(s));
  }
}

double Runtime::total_time() const {
  double mx = 0.0;
  for (double c : clocks_) mx = std::max(mx, c);
  return mx;
}

PhaseStats Runtime::phase_stats(const std::string& phase) const {
  PhaseStats s;
  auto it = phase_ids_.find(phase);
  if (it == phase_ids_.end()) return s;
  const PhaseAccount& p = phases_[it->second];
  s.busy_max = *std::max_element(p.busy.begin(), p.busy.end());
  s.busy_min = *std::min_element(p.busy.begin(), p.busy.end());
  for (double v : p.busy) s.busy_sum += v;
  s.transactions = p.transactions;
  s.bytes = p.bytes;
  return s;
}

std::vector<double> Runtime::phase_busy(const std::string& phase) const {
  auto it = phase_ids_.find(phase);
  if (it == phase_ids_.end()) return std::vector<double>(nranks_, 0.0);
  return phases_[it->second].busy;
}

std::vector<double> Runtime::busy_totals(
    std::span<const std::string> phases) const {
  std::vector<double> out(nranks_, 0.0);
  for (const auto& p : phases) {
    auto it = phase_ids_.find(p);
    if (it == phase_ids_.end()) continue;
    const auto& row = phases_[it->second].busy;
    for (int r = 0; r < nranks_; ++r) out[r] += row[r];
  }
  return out;
}

std::vector<double> Runtime::busy_all() const {
  std::vector<double> out(nranks_, 0.0);
  for (const PhaseAccount& p : phases_)
    for (int r = 0; r < nranks_; ++r) out[r] += p.busy[r];
  return out;
}

std::vector<std::string> Runtime::phases() const {
  std::vector<std::string> names;
  names.reserve(phases_.size());
  for (const PhaseAccount& p : phases_) names.push_back(p.name);
  return names;
}

Runtime::Accounting Runtime::accounting() const {
  DSMCPIC_CHECK_MSG(staged_count() == 0, "cannot checkpoint mid-superstep");
  for (const auto& p : pending_)
    DSMCPIC_CHECK_MSG(p.empty(), "cannot checkpoint with undelivered messages");
  return Accounting{active_, supersteps_, clocks_, phases_};
}

void Runtime::restore(Accounting acct) {
  // A pending message's bytes live in an arena picked by superstep parity,
  // which the restored counter may flip.
  DSMCPIC_CHECK_MSG(undelivered_messages() == 0,
                    "cannot restore with undelivered messages");
  DSMCPIC_CHECK_MSG(acct.active >= 1 && acct.active <= nranks_,
                    "checkpoint active-rank count " << acct.active
                                                    << " out of range");
  DSMCPIC_CHECK_MSG(static_cast<int>(acct.clocks.size()) == nranks_,
                    "checkpoint rank count mismatch");
  std::map<std::string, int> ids;
  for (const PhaseAccount& p : acct.phases) {
    DSMCPIC_CHECK_MSG(
        ids.emplace(p.name, static_cast<int>(ids.size())).second,
        "checkpoint repeats phase '" << p.name << "'");
    DSMCPIC_CHECK_MSG(static_cast<int>(p.busy.size()) == nranks_,
                      "checkpoint phase '" << p.name << "' has "
                                           << p.busy.size()
                                           << " busy entries for " << nranks_
                                           << " ranks");
  }
  active_ = acct.active;  // restored verbatim; clocks carry the frontier
  supersteps_ = acct.supersteps;
  clocks_ = std::move(acct.clocks);
  phases_ = std::move(acct.phases);
  phase_ids_ = std::move(ids);
  // Phase ids were renumbered; drop any cached recorder mapping.
  trace_phase_ids_.assign(phases_.size(), -1);
}

}  // namespace dsmcpic::par
