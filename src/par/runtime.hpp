#pragma once
// Virtual-rank BSP runtime: the MPI + cluster substitute.
//
// The paper's solver is an MPI program on up to 1536 cores. This container
// has one core and no MPI, so the runtime executes N *virtual ranks* as
// cooperative tasks inside supersteps:
//
//   runtime.superstep("DSMC_Move", [&](Comm& c) { ...rank-local work... });
//
// Rank-local work is real (actual particles, actual matrices); what is
// virtual is *time*. Each rank has a virtual clock advanced by
//   * compute charges  — work units × machine-profile coefficients,
//   * message costs    — topology-aware Hockney α–β with a congestion term,
//   * collective costs — log-tree model,
// and synchronizing operations align clocks to the maximum (the wait time
// the paper's load-imbalance indicator is built from). Everything is
// deterministic: two runs with the same seed produce identical virtual
// times, which is what lets the bench harness regenerate the paper's tables.
//
// Message semantics: messages sent during superstep S are delivered to the
// destination inbox at the start of superstep S+1 (BSP). Collectives are
// driver-level calls between supersteps operating on per-rank values.
// The runtime owns every message's bytes: a send writes them once into the
// sender's double-buffered message arena, and the receiver reads them in
// place (DESIGN.md §2i).

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "par/machine.hpp"
#include "par/work.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace dsmcpic::trace {
class TraceRecorder;
enum class SpanKind : std::uint8_t;
}

namespace dsmcpic::par {

struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  double byte_scale = 1.0;  // cost-model multiplier for the payload bytes
  /// The payload, in the sender's message arena; valid within the
  /// receiving superstep body, and aligned for any element type.
  std::span<const std::byte> bytes;

  /// Zero-copy view of the payload as elements of T (valid while the
  /// message is alive — i.e. within the receiving superstep body).
  template <typename T>
  std::span<const T> view() const {
    static_assert(std::is_trivially_copyable_v<T>);
    DSMCPIC_CHECK_MSG(bytes.size() % sizeof(T) == 0,
                      "payload size " << bytes.size()
                                      << " not a multiple of element size "
                                      << sizeof(T));
    return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
  }
};

class Runtime;

/// Per-rank handle passed to superstep bodies.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Charges `units` of compute work of the given kind to this rank's clock
  /// (scaled by the runtime's particle/grid scale per the kind's CostClass).
  void charge(WorkKind kind, double units);

  /// Reserves a message of `n` elements of T to `dst` in this rank's
  /// message arena and returns it for the caller to fill; delivered at the
  /// start of the next superstep. The bytes are not zeroed: the caller
  /// writes every element before the body returns. The span is valid until
  /// this rank's next send, which may grow (move) the arena. `cls` selects
  /// the byte-cost scaling: particle payloads (migration) vs grid payloads
  /// (halo/field data).
  template <typename T>
  std::span<T> stage(int dst, int tag, std::size_t n,
                     CostClass cls = CostClass::kParticle) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return {reinterpret_cast<T*>(reserve(dst, tag, n * sizeof(T), cls)), n};
  }

  /// Sends a copy of trivially copyable elements (stage plus one memcpy).
  template <typename T>
  void send_pod(int dst, int tag, std::span<const T> elems,
                CostClass cls = CostClass::kParticle) {
    const std::span<T> out = stage<T>(dst, tag, elems.size(), cls);
    if (!elems.empty())
      std::memcpy(out.data(), elems.data(), elems.size_bytes());
  }

  /// Sends a copy of raw bytes.
  void send(int dst, int tag, std::span<const std::byte> bytes,
            CostClass cls = CostClass::kParticle) {
    send_pod<std::byte>(dst, tag, bytes, cls);
  }

  /// Charges raw communication seconds to this rank (used for zero-payload
  /// handshake transactions that carry no data but still cost latency, e.g.
  /// the distributed strategy's empty send/recv pairs).
  void charge_comm_seconds(double seconds);

  /// Point-to-point latency to a peer under the current topology (no
  /// congestion term).
  double alpha_to(int peer) const;

  /// Messages delivered to this rank for the current superstep.
  const std::vector<Message>& inbox() const;

 private:
  friend class Runtime;
  Comm(Runtime* rt, int rank) : rt_(rt), rank_(rank) {}
  /// Checks `dst`, bump-allocates `nbytes` in this rank's arena and stages
  /// the send; returns where its bytes go.
  std::byte* reserve(int dst, int tag, std::size_t nbytes, CostClass cls);
  Runtime* rt_;
  int rank_;
};

/// Cumulative per-phase statistics (virtual seconds / counts).
struct PhaseStats {
  double busy_max = 0.0;   // max over ranks of busy time in this phase
  double busy_min = 0.0;   // min over ranks
  double busy_sum = 0.0;   // sum over ranks
  std::uint64_t transactions = 0;  // point-to-point messages routed
  double bytes = 0.0;              // scaled payload bytes routed
};

class Runtime {
 public:
  /// One phase's cumulative accounting.
  struct PhaseAccount {
    std::string name;
    std::vector<double> busy;  // per rank
    std::uint64_t transactions = 0;
    double bytes = 0.0;
    template <class Ar>
    void persist(Ar& ar) {
      ar(name, busy, transactions, bytes);
    }
  };
  /// The runtime state a checkpoint carries: everything but the message
  /// queues, which are empty between supersteps.
  struct Accounting {
    std::int32_t active = 0;
    std::uint64_t supersteps = 0;
    std::vector<double> clocks;
    std::vector<PhaseAccount> phases;  // first-use order
    template <class Ar>
    void persist(Ar& ar) {
      ar(active, supersteps, clocks, phases);
    }
  };

  /// The scales map a scaled-down run back onto paper-sized virtual
  /// workloads (see DESIGN.md §1): `particle_scale` multiplies
  /// particle-proportional charges and payload bytes, `grid_scale`
  /// grid-proportional ones (solver flops, assembly, field halos).
  /// `threads` is the host thread budget (DESIGN.md §2c): 1 = serial, 0 =
  /// one lane per hardware thread. Any value gives bit-identical results.
  Runtime(int nranks, Topology topology, double particle_scale = 1.0,
          double grid_scale = 1.0, int threads = 1);

  int size() const { return nranks_; }

  // ---- active-rank set (elastic ensembles, DESIGN.md §2i) ---------------
  //
  // The active set is a contiguous prefix [0, active). Parked ranks are
  // skipped by superstep dispatch and every collective — all per-superstep
  // work is O(active), not O(nranks) — and their clocks are frozen, so they
  // contribute zero virtual time. When active == size() (the default and
  // the `--ensemble fixed` path) every loop below visits exactly the ranks
  // it always did, bit-for-bit.

  /// Ranks currently participating in supersteps and collectives.
  int active_ranks() const { return active_; }
  /// Physical nodes spanned by the active prefix (rank/ppn node indexing,
  /// the same mapping the NIC serialization model uses).
  int active_nodes() const {
    return (active_ + topo_.profile().cores_per_node - 1) /
           topo_.profile().cores_per_node;
  }
  /// Resizes the active prefix. Driver-only, between supersteps, with no
  /// messages in flight. Growing joins the reactivated ranks' clocks to the
  /// current active frontier (a rank cannot resume in the past); shrinking
  /// freezes the parked ranks' clocks where they stand.
  void set_active_ranks(int n);

  /// Host lanes of the runtime's pool (1 when serial).
  int threads() const { return pool_ ? pool_->num_threads() : 1; }
  /// The solver's one thread pool, shared by rank dispatch and the kernel
  /// executor; null when serial.
  support::ThreadPool* pool() const { return pool_.get(); }
  const Topology& topology() const { return topo_; }
  double scale_of(CostClass cls) const {
    switch (cls) {
      case CostClass::kParticle: return particle_scale_;
      case CostClass::kGrid: return grid_scale_;
      case CostClass::kNone: return 1.0;
    }
    return 1.0;
  }

  // ---- supersteps -------------------------------------------------------

  /// Runs `fn` once per active rank, then routes all messages sent during
  /// the step; message delivery costs are charged under `phase`. With more
  /// active ranks than pool lanes, bodies run concurrently on the pool (and
  /// kernels inside them run inline); otherwise they run in rank order
  /// 0..N-1 on the calling thread (and kernels chunk across the pool).
  /// Bodies may only write rank-indexed state (their store, their clock,
  /// their staging buffer), which makes both levels bit-identical: every
  /// rank's sends land in a private per-rank buffer, and routing merges the
  /// buffers in (src rank, send order) — exactly the rank-order schedule.
  void superstep(const std::string& phase, const std::function<void(Comm&)>& fn);

  /// Overrides the transaction count used for the congestion term of the
  /// NEXT routing round (one-shot). The distributed exchange performs
  /// N(N-1) logical transactions even when most payloads are empty; the
  /// implementation only ships non-empty ones, so it hints the true count.
  /// Driver-owned: must be called between supersteps (never from a body),
  /// so the hint is consumed exactly once, by the next routing round.
  void hint_round_transactions(std::uint64_t n) {
    DSMCPIC_CHECK_MSG(!in_superstep_,
                      "hint_round_transactions inside a superstep body");
    congestion_hint_ = n;
  }

  /// Hints the dense all-pairs transaction count N(N-1) over the ACTIVE
  /// rank set for the next routing round. Sparse exchanges (neighbor lists)
  /// that stand in for a logically dense round must use this instead of
  /// computing the count themselves — the runtime owns the active-rank
  /// count, so the congestion model stays honest under elastic ensembles.
  void hint_round_transactions_all_pairs() {
    hint_round_transactions(static_cast<std::uint64_t>(active_) *
                            static_cast<std::uint64_t>(active_ - 1));
  }

  /// Supersteps executed so far (the denominator of the benches'
  /// wall-clock-per-superstep lanes).
  std::uint64_t supersteps() const { return supersteps_; }

  /// Bytes held by the message arenas (capacity, summed over ranks and
  /// both parities). Flat once every rank has seen its largest superstep:
  /// steady-state supersteps allocate no message memory.
  std::size_t arena_bytes() const;

  // ---- synchronizing collectives (driver level) -------------------------

  /// Aligns all clocks to the maximum plus a tree-barrier cost.
  void barrier(const std::string& phase);

  /// Sum-allreduce of one double per rank; synchronizing.
  double allreduce_sum(const std::string& phase, std::span<const double> vals);

  /// Element-wise sum-allreduce of per-rank vectors (all of equal length);
  /// cost modelled as a ring allreduce of `len * 8` bytes. Returns the sum.
  std::vector<double> allreduce_sum_vec(
      const std::string& phase,
      const std::vector<std::vector<double>>& per_rank);

  /// Exclusive prefix sum over one value per rank (Reindex numbering).
  std::vector<std::int64_t> exscan_sum(const std::string& phase,
                                       std::span<const std::int64_t> vals);

  /// Allgather of one double per rank.
  std::vector<double> allgather(const std::string& phase,
                                std::span<const double> vals);

  /// Charges the cost of broadcasting `bytes` from `root` to all ranks.
  void charge_bcast(const std::string& phase, int root, double bytes);

  /// Charges the cost of gathering `bytes_per_rank` to `root` (root pays the
  /// serialized receive cost, others one send).
  void charge_gather(const std::string& phase, int root, double bytes_per_rank);

  /// Charges compute on a single rank outside a superstep (e.g. the root
  /// re-running the partitioner during Rebalance); synchronizing afterwards
  /// is the caller's choice.
  void charge_rank(const std::string& phase, int rank, WorkKind kind,
                   double units);

  // ---- accounting -------------------------------------------------------

  /// Virtual clock of one rank / end-to-end virtual time (max clock).
  double clock(int rank) const { return clocks_.at(rank); }
  double total_time() const;

  /// Cumulative stats for one phase (zeros if never used).
  PhaseStats phase_stats(const std::string& phase) const;
  /// Per-rank cumulative busy time in one phase.
  std::vector<double> phase_busy(const std::string& phase) const;
  /// Per-rank busy time summed over the given phases.
  std::vector<double> busy_totals(std::span<const std::string> phases) const;
  /// Per-rank busy summed over ALL phases.
  std::vector<double> busy_all() const;
  /// Names of all phases seen so far, in first-use order.
  std::vector<std::string> phases() const;

  /// Messages sitting in the BSP pipeline right now: staged sends of an
  /// in-flight superstep plus pending deliveries for the next one. Between
  /// whole solver steps every mailbox must be drained (an exchange protocol
  /// that ends with an unread message leaked particles) — the health
  /// auditor's mailbox invariant checks exactly this. Read-only.
  std::size_t undelivered_messages() const;

  /// The accounting state for a checkpoint. Message queues must be empty
  /// (between supersteps).
  Accounting accounting() const;
  /// Replaces the accounting state with `acct`, or throws dsmcpic::Error
  /// and changes nothing: the active count must lie in [1, size()], every
  /// clock and busy row must have one entry per rank, and phase names must
  /// be unique.
  void restore(Accounting acct);

  // ---- tracing (DESIGN.md §2e) ------------------------------------------
  /// Attaches a trace recorder; nullptr detaches. Recording is pure
  /// observation — it never moves a clock or touches physics state — and
  /// all hooks run on the driver thread, so traces are bit-identical
  /// across thread budgets. The recorder must be sized
  /// for this runtime's rank count and must outlive the attachment. Not
  /// part of the checkpoint state.
  void set_tracer(trace::TraceRecorder* rec);
  trace::TraceRecorder* tracer() const { return tracer_; }

 private:
  friend class Comm;

  int phase_id(const std::string& phase);
  void charge_busy(int rank, int phase, double seconds);
  void sync_clocks(double extra_cost_per_rank, int phase);
  void route_messages(int phase);
  /// Interns runtime phase `pid` into the attached recorder (cached).
  int trace_phase(int pid);
  /// Emits one span per rank for clock movement since `pre` (tracer only).
  void trace_spans_since(const std::vector<double>& pre, int pid,
                         trace::SpanKind kind, std::uint32_t seq,
                         bool with_work);
  /// Charges the per-node NIC serialization of this routing round (see
  /// MachineProfile::nic_overhead).
  void apply_nic_serialization(int phase, std::uint64_t hint);
  double tree_stages() const;
  std::size_t staged_count() const;

  int nranks_;
  int active_;  // active prefix [0, active_); == nranks_ unless elastic
  Topology topo_;
  double particle_scale_;
  double grid_scale_;
  std::unique_ptr<support::ThreadPool> pool_;  // null when serial

  std::vector<double> clocks_;

  // Phase registry in first-use order; phase_ids_ maps a name to its
  // position in phases_.
  std::map<std::string, int> phase_ids_;
  std::vector<PhaseAccount> phases_;

  std::vector<std::vector<Message>> pending_;  // delivery at next superstep
  std::vector<std::vector<Message>> inbox_;    // current superstep
  // Message arenas (DESIGN.md §2i), two per rank picked by superstep
  // parity: a send in superstep S bump-allocates in its sender's arena for
  // S's parity, which is reset when S starts and keeps its capacity. The
  // receivers read those bytes in S+1, and S+2 is the first superstep that
  // writes them again, so concurrent bodies never write bytes another rank
  // is reading.
  struct Arena {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };
  std::vector<std::array<Arena, 2>> arenas_;  // [rank][superstep parity]
  // A send of the superstep in flight. Its bytes are an arena offset until
  // route_messages, which runs after every body, when no arena can grow.
  struct Staged {
    int dst;
    int tag;
    double byte_scale;
    std::size_t offset;
    std::size_t size;
  };
  // Per-SENDER staging for the current superstep: rank r's body appends
  // only to staged_[r] and its own arena, so concurrent bodies never share
  // a buffer. Routing walks staged_[0..N-1] in order, which reproduces the
  // sequential schedule's global send order bit-for-bit.
  std::vector<std::vector<Staged>> staged_;
  std::vector<double> nic_load_;  // per-node scratch (apply_nic_serialization)
  std::uint64_t supersteps_ = 0;
  bool in_superstep_ = false;
  int current_phase_for_comm_ = -1;
  std::uint64_t congestion_hint_ = 0;  // one-shot; 0 = use staged count

  // Tracing state (inert when tracer_ == nullptr; the hot paths pay one
  // branch). Scratch buffers are reused so steady-state recording does not
  // allocate per superstep.
  trace::TraceRecorder* tracer_ = nullptr;
  std::vector<double> trace_pre_, trace_mid_;       // clock snapshots
  std::vector<std::array<double, kNumWorkKinds>> trace_work_;  // per rank
  std::vector<int> trace_phase_ids_;  // runtime pid -> recorder phase id
  std::array<int, kNumWorkKinds> trace_work_keys_{};
  bool trace_work_keys_ready_ = false;
  std::uint32_t trace_seq_ = 0;  // seq of the superstep in flight
};

}  // namespace dsmcpic::par
