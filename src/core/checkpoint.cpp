// Checkpoint / restart for the coupled solver. The state written here is
// everything that influences the remainder of a run: the per-rank particle
// stores, the grid ownership, the electric potential (warm-start state),
// every RNG stream position (injector remainders/sequences, collision
// carries/majorants), the sampler accumulators, the load balancer's window
// and statistics, the elastic ensemble's state and the virtual-time
// accounting. Restoring into a solver built with the identical
// configuration reproduces the uninterrupted run bit-for-bit (verified by
// the Checkpoint tests).
//
// The body is listed once, in Staged::fields, and goes through the
// io::Writer / io::Reader codec (DESIGN.md §3b). A restore reads into a
// Staged copy, checks it whole (sizes, ranges, ownership), and only then
// commits it, so a refused restore leaves the solver as it was.

#include <bit>
#include <fstream>
#include <memory>

#include "core/solver.hpp"
#include "support/serialize.hpp"

namespace dsmcpic::core {

namespace {

constexpr std::uint64_t kMagic = 0x44534d435049434bULL;  // "DSMCPICK"
// v2 split particles into SoA columns; v3 added the busy window, cost model
// and rebalance policy (DESIGN.md §2h); v4 the elastic ensemble and the
// runtime's active set and superstep counter (§2i); v5 writes the decision
// logs field by field, so no padding bytes reach the file.
constexpr std::uint32_t kVersion = 5;

/// A cheap fingerprint of the configuration pieces that must match between
/// the saving and restoring solver.
std::uint64_t config_fingerprint(const SolverConfig& cfg,
                                 const ParallelConfig& par,
                                 std::int32_t num_cells) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(num_cells));
  mix(static_cast<std::uint64_t>(par.nranks));
  mix(cfg.seed);
  mix(static_cast<std::uint64_t>(cfg.pic_substeps));
  mix(std::bit_cast<std::uint64_t>(cfg.dt_dsmc));
  mix(std::bit_cast<std::uint64_t>(cfg.fnum_h));
  return h;
}

}  // namespace

/// Everything a checkpoint restores, staged. The members are named like the
/// solver's own, so one field list serves both.
struct CoupledSolver::Staged {
  int step_ = 0;
  int steps_since_rebalance_ = 0;
  std::vector<std::int32_t> owner_;
  std::vector<dsmc::ParticleStore> stores_;
  std::vector<double> phi_global_;
  std::unique_ptr<dsmc::MaxwellianInjector> inject_h_, inject_hplus_;
  std::unique_ptr<dsmc::CollisionKernel> collide_;
  dsmc::CellSampler sampler_;
  BusyWindow prev_busy_;
  std::vector<double> prev_predicted_;
  balance::RebalanceStats lb_stats_;
  balance::CostModel cost_model_;
  balance::RebalancePolicy policy_;
  int active_ = 0;
  balance::EnsemblePolicy ensemble_;
  par::Runtime::Accounting runtime_;

  /// Copies of the solver's components (their configuration sizes the
  /// checks) and fresh, empty stores.
  explicit Staged(const CoupledSolver& s)
      : inject_h_(std::make_unique<dsmc::MaxwellianInjector>(*s.inject_h_)),
        inject_hplus_(
            std::make_unique<dsmc::MaxwellianInjector>(*s.inject_hplus_)),
        collide_(std::make_unique<dsmc::CollisionKernel>(*s.collide_)),
        sampler_(s.sampler_),
        cost_model_(s.cost_model_),
        policy_(s.policy_),
        ensemble_(s.ensemble_) {}

  /// The checkpoint body's one field list, run on the solver by a save and
  /// on a Staged copy by a restore.
  template <class Ar, class State>
  static void fields(Ar& ar, State& s, par::Runtime::Accounting& runtime,
                     std::uint64_t fingerprint) {
    ar.constant(kMagic, "not a dsmcpic checkpoint");
    ar.constant(kVersion, "unsupported checkpoint version");
    ar.constant(fingerprint,
                "checkpoint was written with a different configuration");
    ar(s.step_, s.steps_since_rebalance_, s.owner_, s.stores_, s.phi_global_,
       *s.inject_h_, *s.inject_hplus_, *s.collide_, s.sampler_,
       s.prev_busy_.total, s.prev_busy_.pm, s.prev_busy_.poi,
       s.prev_busy_.particle, s.prev_predicted_, s.lb_stats_, s.cost_model_,
       s.policy_, s.active_, s.ensemble_, runtime);
  }
};

void CoupledSolver::save_checkpoint(const std::string& path) const {
  par::Runtime::Accounting runtime = rt_->accounting();
  const std::uint64_t fingerprint =
      config_fingerprint(cfg_, pcfg_, coarse_.num_tets());
  io::atomic_write_file(path, [&](std::ostream& os) {
    io::Writer w(os);
    Staged::fields(w, *this, runtime, fingerprint);
  });
}

void CoupledSolver::restore_checkpoint(const std::string& path) {
  Staged st(*this);
  {
    std::ifstream is(path, std::ios::binary);
    DSMCPIC_CHECK_MSG(is.good(), "cannot open checkpoint file " << path);
    io::Reader r(is);
    Staged::fields(r, st, st.runtime_,
                   config_fingerprint(cfg_, pcfg_, coarse_.num_tets()));
  }

  // Every check runs on the staged state before anything is committed.
  const auto need = [](bool ok, const char* what) {
    DSMCPIC_CHECK_MSG(ok, "checkpoint refused: " << what);
  };
  const auto nranks = static_cast<std::size_t>(pcfg_.nranks);
  const std::int32_t ncells = coarse_.num_tets();
  need(st.owner_.size() == static_cast<std::size_t>(ncells),
       "owner map does not match the grid");
  need(st.stores_.size() == nranks, "store count is not the rank count");
  need(st.phi_global_.size() == static_cast<std::size_t>(psys_->num_nodes()),
       "potential does not match the mesh");
  for (const auto* busy : {&st.prev_busy_.total, &st.prev_busy_.pm,
                           &st.prev_busy_.poi, &st.prev_busy_.particle})
    need(busy->size() == nranks, "busy window is not one entry per rank");
  need(st.prev_predicted_.empty() || st.prev_predicted_.size() == nranks,
       "predicted loads are not one entry per rank");
  need(st.active_ >= 1 && st.active_ <= pcfg_.nranks &&
           st.runtime_.active == st.active_,
       "active rank count out of range or unlike the runtime's");
  for (const std::int32_t o : st.owner_)
    need(o >= 0 && o < st.active_, "a cell is owned outside the active set");
  // Particles sit in their owner's store between steps: exchange and
  // rebalance migration both end with every particle at its cell's owner.
  for (std::size_t r = 0; r < nranks; ++r) {
    const auto cells = st.stores_[r].cells();
    const auto species = st.stores_[r].species();
    for (std::size_t i = 0; i < cells.size(); ++i)
      need(cells[i] >= 0 && cells[i] < ncells &&
               st.owner_[cells[i]] == static_cast<std::int32_t>(r) &&
               species[i] >= 0 && species[i] < species_.size(),
           "a particle lies outside its rank's cells or the species table");
  }

  // Commit. The runtime checks its own accounting first and throws before
  // changing anything; nothing after it can fail for checked input.
  rt_->restore(std::move(st.runtime_));
  step_ = st.step_;
  steps_since_rebalance_ = st.steps_since_rebalance_;
  owner_ = std::move(st.owner_);
  stores_ = std::move(st.stores_);
  phi_global_ = std::move(st.phi_global_);
  *inject_h_ = std::move(*st.inject_h_);
  *inject_hplus_ = std::move(*st.inject_hplus_);
  *collide_ = std::move(*st.collide_);
  sampler_ = std::move(st.sampler_);
  prev_busy_ = std::move(st.prev_busy_);
  prev_predicted_ = std::move(st.prev_predicted_);
  lb_stats_ = st.lb_stats_;
  cost_model_ = std::move(st.cost_model_);
  policy_ = std::move(st.policy_);
  active_ = st.active_;
  ensemble_ = std::move(st.ensemble_);
  for (std::size_t r = 0; r < nranks; ++r)
    removed_[r].assign(stores_[r].size(), 0);

  // Rebuild decomposition-dependent structures for the restored ownership
  // (no cost charging: the restored clocks already contain everything).
  rebuild_parallel_structures(phases::kInit, /*charge_costs=*/false);
  history_.clear();
  // The restored runtime carries every byte migrated since step 0: seed the
  // step-boundary baseline so the next step's exchange deltas are its own.
  prev_exch_ = exchange_totals();
}

}  // namespace dsmcpic::core
