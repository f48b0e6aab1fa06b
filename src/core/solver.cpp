#include "core/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "obs/health_auditor.hpp"
#include "obs/host_profiler.hpp"
#include "obs/telemetry.hpp"
#include "pic/boris.hpp"
#include "pic/deposit.hpp"
#include "pic/field.hpp"
#include "support/error.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::core {

double RunSummary::phase_max(const std::string& name) const {
  for (std::size_t i = 0; i < phase_names.size(); ++i)
    if (phase_names[i] == name) return phase_stats[i].busy_max;
  return 0.0;
}

double RunSummary::busy_sum_total() const {
  double s = 0.0;
  for (const par::PhaseStats& p : phase_stats) s += p.busy_sum;
  return s;
}

obs::PhaseRecord phase_record(const std::string& name,
                              const par::PhaseStats& stats) {
  return {name,           stats.busy_max,     stats.busy_min,
          stats.busy_sum, stats.transactions, stats.bytes};
}

obs::DecisionRecord decision_record(const balance::PolicyDecision& d) {
  return {d.step, d.lii, d.imbalance_per_step, d.projected_imbalance_cost,
          d.rebalance_cost_estimate, d.rebalance};
}

CoupledSolver::CoupledSolver(SolverConfig cfg, ParallelConfig par)
    : CoupledSolver(std::move(cfg), par, nullptr) {}

CoupledSolver::CoupledSolver(SolverConfig cfg, ParallelConfig par,
                             std::shared_ptr<const CaseGeometry> geom)
    : cfg_(cfg),
      pcfg_(par),
      species_(dsmc::SpeciesTable::hydrogen(cfg.fnum_h, cfg.fnum_hplus)),
      geom_(geom ? std::move(geom) : CaseGeometry::build(cfg_.nozzle)),
      coarse_(geom_->coarse),
      refined_(geom_->refined),
      sampler_(coarse_, species_) {
  DSMCPIC_CHECK_MSG(geom_->spec == cfg_.nozzle,
                    "shared CaseGeometry was built from a different NozzleSpec "
                    "than cfg.nozzle");
  init();
}

CoupledSolver::~CoupledSolver() = default;

void CoupledSolver::init() {
  const int nranks = pcfg_.nranks;
  DSMCPIC_CHECK_MSG(nranks >= 1, "need at least one rank");

  fine_ = std::make_unique<pic::FineGrid>(coarse_, refined_);

  // Elastic ensemble (§2i): the machine keeps `nranks` nominal ranks but the
  // solver decomposes onto — and the runtime dispatches — only the active
  // prefix. The fixed default (active == nranks) is the dense path.
  ensemble_ = balance::EnsemblePolicy(pcfg_.balance.ensemble, nranks);
  active_ = ensemble_.initial_active();

  // Dual graph of the coarse grid (the only grid that is decomposed).
  coarse_.dual_graph(dual_.xadj, dual_.adjncy);

  // First decomposition: unweighted, as in the paper (Sec. IV-A).
  if (active_ == 1) {
    owner_.assign(static_cast<std::size_t>(coarse_.num_tets()), 0);
  } else {
    partition::PartitionOptions opt = pcfg_.balance.partition_options;
    owner_ = partition::part_graph_kway(dual_, active_, opt).part;
  }

  rt_ = std::make_unique<par::Runtime>(
      nranks, par::Topology(pcfg_.profile, nranks, pcfg_.placement),
      pcfg_.particle_scale, pcfg_.grid_scale, pcfg_.threads);
  if (active_ < nranks) rt_->set_active_ranks(active_);

  psys_ = std::make_unique<pic::PoissonSystem>(refined_.mesh, cfg_.poisson_bcs);
  phi_global_.assign(static_cast<std::size_t>(psys_->num_nodes()), 0.0);

  stores_.resize(nranks);
  removed_.assign(nranks, {});
  tally_.resize(nranks);

  kexec_ = support::KernelExec(rt_->pool());
  cell_index_.resize(nranks);
  collide_scratch_.resize(nranks);
  deposit_scratch_.resize(nranks);
  sort_scratch_.resize(nranks);

  inject_h_ = std::make_unique<dsmc::MaxwellianInjector>(
      coarse_, mesh::BoundaryKind::kInlet,
      dsmc::InjectionSpec{dsmc::kSpeciesH, cfg_.density_h,
                          cfg_.inlet_temperature, cfg_.drift_speed,
                          cfg_.inject_pulse_amplitude,
                          cfg_.inject_pulse_period},
      cfg_.seed);
  inject_hplus_ = std::make_unique<dsmc::MaxwellianInjector>(
      coarse_, mesh::BoundaryKind::kInlet,
      dsmc::InjectionSpec{dsmc::kSpeciesHPlus, cfg_.density_hplus,
                          cfg_.inlet_temperature, cfg_.drift_speed,
                          cfg_.inject_pulse_amplitude,
                          cfg_.inject_pulse_period},
      cfg_.seed ^ 0x517cc1b727220a95ULL);

  dsmc::MoverConfig mcfg = cfg_.mover;
  mcfg.seed = cfg_.seed ^ 0x2545f4914f6cdd1dULL;
  mover_ = std::make_unique<dsmc::Mover>(coarse_, species_, mcfg);

  chemistry_ = std::make_unique<dsmc::Chemistry>(species_, cfg_.chemistry);
  dsmc::CollisionConfig ccfg = cfg_.collisions;
  ccfg.seed = cfg_.seed ^ 0x94d049bb133111ebULL;
  collide_ =
      std::make_unique<dsmc::CollisionKernel>(coarse_, species_, ccfg,
                                              chemistry_.get());

  rebuild_parallel_structures(phases::kInit, /*charge_costs=*/true);

  // Initial electrostatic field (no charge yet: pure boundary solve).
  do_poisson_solve();

  // Baseline for the lii window.
  prev_busy_ = busy_window();

  cost_model_ = balance::CostModel(pcfg_.balance.cost_model, pcfg_.nranks);
  // The paper's Threshold knob stays the single source of truth for the
  // baseline trigger (and the look-ahead's H = 0 fallback).
  balance::PolicyConfig pc = pcfg_.balance.policy;
  pc.threshold = pcfg_.balance.threshold;
  pc.nranks = pcfg_.nranks;
  policy_ = balance::RebalancePolicy(pc);
}

void CoupledSolver::rebuild_parallel_structures(const std::string& phase,
                                                bool charge_costs) {
  // my_cells_ keeps nominal size so per-rank observers stay stable; parked
  // ranks own nothing and their lists stay empty. Everything that scales
  // with participants (node exchange, Poisson layout) is built active-sized.
  const int nranks = pcfg_.nranks;
  const int active = active_;
  my_cells_.assign(nranks, {});
  for (std::int32_t c = 0; c < coarse_.num_tets(); ++c)
    my_cells_[owner_[c]].push_back(c);

  // Partition adjacency for the neighbor exchange (§2i): rank p neighbors
  // rank q iff some coarse cell of p shares a dual edge with a cell of q.
  neighbors_.assign(nranks, {});
  if (pcfg_.strategy == exchange::Strategy::kNeighbor) {
    for (std::int32_t c = 0; c < coarse_.num_tets(); ++c)
      for (const std::int32_t d : dual_.neighbors(c))
        if (owner_[c] != owner_[d]) neighbors_[owner_[c]].push_back(owner_[d]);
    for (auto& nb : neighbors_) {
      std::sort(nb.begin(), nb.end());
      nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    }
  }

  nodex_ = std::make_unique<pic::NodeExchange>(*fine_, owner_, active);
  linalg::DistLayout layout =
      linalg::DistLayout::build(active, nodex_->node_owner(), psys_->matrix());
  dmat_ = linalg::DistMatrix::build(psys_->matrix(), std::move(layout));

  // Warm-start potential from the driver-side mirror.
  x_.assign(active, {});
  phi_local_.assign(active, {});
  owned_node_li_.assign(active, {});
  for (int r = 0; r < active; ++r) {
    const auto& owned = dmat_.layout.owned[r];
    x_[r].resize(owned.size());
    owned_node_li_[r].resize(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) {
      x_[r][i] = phi_global_[owned[i]];
      const std::int32_t li = nodex_->local_index(r, owned[i]);
      DSMCPIC_CHECK(li >= 0);
      owned_node_li_[r][i] = li;
    }
    const auto& nodes = nodex_->rank_nodes(r);
    phi_local_[r].resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
      phi_local_[r][i] = phi_global_[nodes[i]];
  }

  if (charge_costs) {
    // Charged at init (before a profiler can attach) and inside the
    // rebalance row.
    superstep("rebalance", phase, [&](par::Comm& c, RankTally&) {
      // Local FEM block extraction: 8 fine elements per owned coarse cell.
      c.charge(par::WorkKind::kAssemble,
               8.0 * static_cast<double>(my_cells_[c.rank()].size()));
    });
    // Redistributing the potential to the new owners.
    rt_->charge_bcast(phase, 0, 8.0 * static_cast<double>(phi_global_.size()));
  }
}

void CoupledSolver::superstep(
    const char* scope, const std::string& phase,
    const std::function<void(par::Comm&, RankTally&)>& body) {
  const obs::HostProfiler::Scope prof(prof_, scope);
  // Bodies may run concurrently: each writes only its own rank's slot.
  std::fill(tally_.begin(), tally_.end(), RankTally{});
  rt_->superstep(phase, [&](par::Comm& c) { body(c, tally_[c.rank()]); });
  for (const RankTally& t : tally_) {
    rec_.injected += t.injected;
    rec_.exited_dsmc += t.exited_dsmc;
    rec_.collisions += t.collisions;
    rec_.ionizations += t.ionizations;
    rec_.recombinations += t.recombinations;
    rec_.exited_pic += t.exited_pic;
    rec_.pic_lost += t.pic_lost;
  }
}

void CoupledSolver::do_inject() {
  const obs::HostProfiler::Scope prof(prof_, "inject");
  if (auditor_) auditor_->begin_step(step_, total_particles());
  if (cfg_.inject_round_robin) {
    inject_h_->begin_step(species_, cfg_.dt_dsmc, step_);
    inject_hplus_->begin_step(species_, cfg_.dt_dsmc, step_);
  }
  superstep("inject", phases::kInject, [&](par::Comm& c, RankTally& t) {
    const int r = c.rank();
    std::int64_t n_h = 0, n_hp = 0;
    if (cfg_.inject_round_robin) {
      // Shard over the ACTIVE set: parked ranks never run a body, so
      // sharding over the nominal count would silently drop their share.
      n_h = inject_h_->inject_shard(stores_[r], species_, r, active_);
      n_hp = inject_hplus_->inject_shard(stores_[r], species_, r, active_);
    } else {
      n_h = inject_h_->inject(stores_[r], species_, cfg_.dt_dsmc, step_,
                              owner_, r);
      n_hp = inject_hplus_->inject(stores_[r], species_, cfg_.dt_dsmc, step_,
                                   owner_, r);
    }
    removed_[r].resize(stores_[r].size(), 0);
    c.charge(par::WorkKind::kInject, static_cast<double>(n_h + n_hp));
    t.injected = n_h + n_hp;
  });
  if (auditor_) auditor_->on_injected(rec_.injected);
}

std::int64_t CoupledSolver::flagged_count() const {
  std::int64_t n = 0;
  for (const auto& flags : removed_)
    for (const std::uint8_t f : flags) n += (f != 0);
  return n;
}

void CoupledSolver::do_dsmc_move() {
  superstep("move", phases::kDsmcMove, [&](par::Comm& c, RankTally& t) {
    const int r = c.rank();
    const dsmc::MoveStats st = mover_->move_all(
        stores_[r], cfg_.dt_dsmc, step_, removed_[r],
        dsmc::MoveFilter::kNeutralOnly, &kexec_);
    c.charge(par::WorkKind::kMove, static_cast<double>(st.moved));
    c.charge(par::WorkKind::kWalkStep, static_cast<double>(st.walk_steps));
    t.exited_dsmc = st.exited;
  });

  rec_.migrated_dsmc =
      audited_exchange("exchange", phases::kDsmcExchange, owner_, &neighbors_)
          .migrated;

  if (cfg_.fault == FaultInjection::kDropParticle) {
    fault_fired_ = true;
    for (int r = 0; r < pcfg_.nranks; ++r) {
      if (stores_[r].empty()) continue;
      stores_[r].remove_swap(stores_[r].size() - 1);
      removed_[r].resize(stores_[r].size());
      break;
    }
  }
}

exchange::ExchangeStats CoupledSolver::audited_exchange(
    const char* scope, const char* phase, std::span<const std::int32_t> owner,
    const std::vector<std::vector<int>>* neighbors) {
  const obs::HostProfiler::Scope prof(prof_, scope);
  if (auditor_) auditor_->on_flagged(flagged_count());
  const std::int64_t before = auditor_ ? total_particles() : 0;
  const exchange::ExchangeStats ex =
      exchange::exchange_particles(*rt_, phase, pcfg_.strategy, stores_,
                                   removed_, owner, /*root=*/0, neighbors);
  if (auditor_)
    auditor_->check_exchange(phase, before, ex.dropped, total_particles());
  return ex;
}

void CoupledSolver::do_reindex() {
  const obs::HostProfiler::Scope prof(prof_, "reindex");
  std::vector<std::int64_t> counts(active_, 0);
  for (int r = 0; r < active_; ++r)
    counts[r] = static_cast<std::int64_t>(stores_[r].size());
  const std::vector<std::int64_t> offsets =
      rt_->exscan_sum(phases::kReindex, counts);
  superstep("reindex", phases::kReindex, [&](par::Comm& c, RankTally&) {
    const int r = c.rank();
    // Canonical cell-major renumbering: ids are assigned by ascending coarse
    // cell, ascending PREVIOUS id within each cell (CellIndex sorts its
    // per-cell lists by id). Previous ids are canonical by induction —
    // injector ids are (facet, sequence), spawned-ion ids come from
    // per-(cell, step) streams drawn in canonical collide order — so the
    // new ids, and every id-keyed RNG stream downstream (diffuse wall
    // reflection), do not depend on the store's memory layout, i.e. on
    // whether or when the periodic cell sort ran.
    dsmc::CellIndex& index = cell_index_[r];
    index.rebuild(stores_[r], coarse_.num_tets());
    auto ids = stores_[r].ids();
    std::int64_t next = offsets[r];
    for (std::int32_t cell = 0; cell < coarse_.num_tets(); ++cell)
      for (const std::int32_t p : index.particles_in(cell)) ids[p] = next++;
    DSMCPIC_CHECK(next == offsets[r] + counts[r]);
    c.charge(par::WorkKind::kReindex, static_cast<double>(ids.size()));
  });
}

void CoupledSolver::do_cell_sort() {
  // Periodic cell sort (DESIGN.md §2g): lay each active store out in the
  // canonical (cell, id) order of the CellIndex do_reindex just built, after
  // which the index is the identity and the collide/deposit traversals
  // stream memory linearly. The sort only changes memory layout — traversal
  // semantics are owned by CellIndex — so every observable is bit-identical
  // for any sort_every. Layout work has no physical analogue, so it runs
  // outside any superstep and charges no virtual time (wall-clock cost is
  // visible via the "sort" host-profiler scope and a trace instant).
  const obs::HostProfiler::Scope prof(prof_, "sort");
  kexec_.for_tasks(active_, [&](int r) {
    cell_index_[r].gather_store(stores_[r], sort_scratch_[r], removed_[r]);
  });
}

void CoupledSolver::do_colli_react(bool sorted) {
  // Colli_React reuses the CellIndex that do_reindex just built: reindex
  // numbered ids in index order, so each cell's list is still id-ascending,
  // and only the layout-preserving cell sort touches the store in between.
  superstep("collide", phases::kColliReact, [&](par::Comm& c, RankTally& t) {
    const int r = c.rank();
    const dsmc::CellIndex& index = cell_index_[r];
    const dsmc::CollisionStats cs =
        collide_->collide_cells(stores_[r], index, my_cells_[r], cfg_.dt_dsmc,
                                step_, &kexec_, &collide_scratch_[r]);
    removed_[r].resize(stores_[r].size(), 0);  // chemistry appended ions
    const dsmc::ChemistryStats rs =
        chemistry_->recombine(stores_[r], index, my_cells_[r], coarse_,
                              cfg_.dt_dsmc, step_, removed_[r], &kexec_);
    c.charge(par::WorkKind::kCollide, static_cast<double>(cs.candidates));
    c.charge(par::WorkKind::kReact,
             static_cast<double>(cs.ionizations + rs.recombinations));
    t.collisions = cs.collisions;
    t.ionizations = cs.ionizations;
    t.recombinations = rs.recombinations;
  });
  // Each ionization appended one H+ to a store; recombination flags are
  // consumed by the next exchange (counted there via flagged_count).
  if (auditor_) auditor_->on_spawned(rec_.ionizations);
  if (sorted)
    if (trace::TraceRecorder* tr = rt_->tracer())
      tr->add_instant(-1, "sort @ step " + std::to_string(step_),
                      rt_->total_time());
}

void CoupledSolver::do_pic_substep(int substep) {
  const double dt = cfg_.dt_pic();
  const int pic_step = step_ * cfg_.pic_substeps + substep;
  superstep("move", phases::kPicMove, [&](par::Comm& c, RankTally& t) {
    const int r = c.rank();
    auto& store = stores_[r];
    auto px = store.px(), py = store.py(), pz = store.pz();
    auto vx = store.vx(), vy = store.vy(), vz = store.vz();
    auto cells = store.cells();
    auto spec = store.species();
    auto ids = store.ids();
    // Particles are independent (gather/push/move touch only slot i), so
    // the range chunks across the runtime's pool; per-chunk counters are
    // summed in chunk order.
    std::array<dsmc::MoveStats, 64> chunk_st{};
    std::array<std::int64_t, 64> chunk_pushed{};
    std::array<std::int64_t, 64> chunk_lost{};
    const std::int64_t n = static_cast<std::int64_t>(store.size());
    kexec_.for_chunks(n, [&](int ch, std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        if (removed_[r][i]) continue;
        const dsmc::Species& sp = species_[spec[i]];
        if (!sp.charged()) continue;
        // Gather E from the previous timestep's field (paper Sec. III-B).
        Vec3 pos{px[i], py[i], pz[i]};
        const std::int32_t fc = fine_->locate(cells[i], pos);
        if (fc < 0) {
          removed_[r][i] = 1;
          ++chunk_lost[ch];
          continue;
        }
        const Vec3 e = pic::efield_in_cell(*fine_, fc, nodex_->rank_nodes(r),
                                           phi_local_[r]);
        Vec3 vel = pic::boris_push({vx[i], vy[i], vz[i]}, e,
                                   cfg_.magnetic_field, sp.charge / sp.mass,
                                   dt);
        ++chunk_pushed[ch];
        if (!mover_->move_one(pos, vel, cells[i], spec[i], ids[i], dt,
                              pic_step, chunk_st[ch]))
          removed_[r][i] = 1;
        px[i] = pos.x;
        py[i] = pos.y;
        pz[i] = pos.z;
        vx[i] = vel.x;
        vy[i] = vel.y;
        vz[i] = vel.z;
      }
    });
    dsmc::MoveStats st;
    std::int64_t pushed = 0;
    for (int ch = 0; ch < kexec_.num_chunks(n); ++ch) {
      st.moved += chunk_st[ch].moved;
      st.walk_steps += chunk_st[ch].walk_steps;
      st.exited += chunk_st[ch].exited;
      pushed += chunk_pushed[ch];
      t.pic_lost += chunk_lost[ch];
    }
    c.charge(par::WorkKind::kFieldGather, static_cast<double>(pushed));
    c.charge(par::WorkKind::kBorisPush, static_cast<double>(pushed));
    c.charge(par::WorkKind::kMove, static_cast<double>(st.moved));
    c.charge(par::WorkKind::kWalkStep, static_cast<double>(st.walk_steps));
    t.exited_pic = st.exited;
  });

  rec_.migrated_pic +=
      audited_exchange("exchange", phases::kPicExchange, owner_, &neighbors_)
          .migrated;
  do_poisson_solve();
}

void CoupledSolver::do_poisson_solve() {
  const std::string phase = phases::kPoissonSolve;
  auto node_charge = nodex_->make_values();
  {
    const obs::HostProfiler::Scope prof(prof_, "deposit");
    superstep("deposit", phase, [&](par::Comm& c, RankTally&) {
      const int r = c.rank();
      const pic::DepositStats st = pic::deposit_charge(
          stores_[r], *fine_, species_, nodex_->rank_nodes(r), removed_[r],
          node_charge[r], &kexec_, &deposit_scratch_[r]);
      c.charge(par::WorkKind::kDeposit, static_cast<double>(st.deposited));
    });
    if (cfg_.fault == FaultInjection::kSkewDeposit &&
        !node_charge[0].empty()) {
      node_charge[0][0] += 1.0;  // one spurious coulomb on one node
      fault_fired_ = true;
    }
    nodex_->reduce_to_owners(*rt_, phase, node_charge);
  }

  if (auditor_) {
    const obs::HostProfiler::Scope prof(prof_, "audit");
    // Re-sum the charge the deposit should have scattered: every live
    // charged particle the fine locate can place, q * fnum each. Pure read;
    // particle order differs from the scatter order, hence the rel tol.
    double expected = 0.0;
    for (int r = 0; r < pcfg_.nranks; ++r) {
      const auto& store = stores_[r];
      const auto cells = store.cells();
      const auto spec = store.species();
      for (std::size_t i = 0; i < store.size(); ++i) {
        if (removed_[r][i]) continue;
        const dsmc::Species& sp = species_[spec[i]];
        if (!sp.charged()) continue;
        if (fine_->locate(cells[i], store.position(i)) < 0) continue;
        expected += sp.charge * sp.fnum;
      }
    }
    auditor_->check_charge(expected, nodex_->sum_owned(node_charge));
  }

  const obs::HostProfiler::Scope prof(prof_, "field_solve");
  // Per-rank RHS over owned rows.
  linalg::DistVector b(active_);
  superstep("field_solve", phase, [&](par::Comm& c, RankTally&) {
    const int r = c.rank();
    const auto& owned = dmat_.layout.owned[r];
    const auto& li = owned_node_li_[r];
    b[r].resize(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i)
      b[r][i] = psys_->rhs_at(owned[i], node_charge[r][li[i]]);
    c.charge(par::WorkKind::kVecFlop, static_cast<double>(owned.size()));
  });

  // PETSc-style zero initial guess unless warm starts were requested.
  if (!cfg_.poisson.warm_start) {
    for (auto& xr : x_) std::fill(xr.begin(), xr.end(), 0.0);
  }
  const linalg::SolveResult res =
      linalg::dist_cg(*rt_, phase, dmat_, b, x_, cfg_.poisson);
  rec_.poisson_iterations = res.iterations;
  if (auditor_)
    auditor_->check_poisson(res.iterations, res.residual, cfg_.poisson.rel_tol,
                            res.converged);

  // Refresh the driver mirror and the per-rank nodal potentials.
  for (int r = 0; r < active_; ++r) {
    const auto& owned = dmat_.layout.owned[r];
    for (std::size_t i = 0; i < owned.size(); ++i)
      phi_global_[owned[i]] = x_[r][i];
  }
  superstep("field_solve", phase, [&](par::Comm& c, RankTally&) {
    const int r = c.rank();
    const auto& li = owned_node_li_[r];
    for (std::size_t i = 0; i < li.size(); ++i) phi_local_[r][li[i]] = x_[r][i];
  });
  nodex_->broadcast_from_owners(*rt_, phase, phi_local_);
}

void CoupledSolver::maybe_rebalance() {
  const obs::HostProfiler::Scope prof(prof_, "rebalance");
  if (pcfg_.nranks <= 1) return;
  ++steps_since_rebalance_;

  // Eq. (6) inputs over the window since the previous step: per-rank total
  // busy time minus the particle-migration and Poisson components.
  const BusyWindow cur = busy_window();
  // lii/policy windows cover the ACTIVE prefix (parked ranks do no work);
  // wpart stays nominal-sized — the cost model's per-rank guards skip parked
  // ranks (their predicted load is zero).
  std::vector<double> wt(active_), wpm(active_), wpoi(active_), wcomp(active_);
  std::vector<double> wpart(pcfg_.nranks);
  for (int r = 0; r < active_; ++r) {
    wt[r] = cur.total[r] - prev_busy_.total[r];
    wpm[r] = cur.pm[r] - prev_busy_.pm[r];
    wpoi[r] = cur.poi[r] - prev_busy_.poi[r];
    // The Eq.-6 signal per rank: pure compute, migration and Poisson out.
    wcomp[r] = wt[r] - wpm[r] - wpoi[r];
  }
  for (int r = 0; r < pcfg_.nranks; ++r)
    wpart[r] = cur.particle[r] - prev_busy_.particle[r];
  prev_busy_ = cur;

  const double lii = balance::load_imbalance_indicator(wt, wpm, wpoi);
  rec_.lii = lii;
  lb_stats_.last_lii = lii;
  ++lb_stats_.checks;

  const balance::RebalanceConfig& lb = pcfg_.balance;
  const bool elastic = lb.ensemble.kind == balance::EnsembleKind::kElastic;
  if (!lb.enabled && !elastic) return;
  // Measuring lii requires an allgather of the per-rank timings.
  rt_->allgather(phases::kRebalance, wt);

  // Feed the per-step signals every step (EWMAs need the full history, not
  // just period boundaries). Both consume virtual time only.
  policy_.observe_step(wcomp);
  if (elastic) {
    double step_total = 0.0;
    for (const double w : wt) step_total += w;
    ensemble_.observe_step(wcomp, step_total);
  }
  if (cost_model_.config().kind != balance::CostModelKind::kStatic) {
    // Static per-rank wlm prediction: sum of Eq.-7 weights over each
    // rank's cells = N_r + R*C_r + W_cell * ncells_r. The measured window
    // is the work of the particles present at the *start* of this step, so
    // it is regressed against the PREVIOUS step's prediction — pairing it
    // with end-of-step counts would make fast-growing ranks look cheap and
    // under-provision exactly where the load is arriving.
    if (!prev_predicted_.empty())
      cost_model_.observe_step(wpart, prev_predicted_);
    prev_predicted_ = predicted_rank_loads();
  }

  if (steps_since_rebalance_ < lb.period) return;

  // The ensemble moves first at a period boundary: a resize already
  // repartitions onto the new active set, so a same-step rebalance would be
  // redundant churn. steps_since_rebalance_ resets inside on a resize.
  maybe_resize_ensemble();
  if (steps_since_rebalance_ == 0) return;

  if (!lb.enabled) return;
  const balance::PolicyDecision decision = policy_.decide(step_, lii);
  if (!decision.rebalance) return;

  const CellCounts counts = count_cell_particles();

  // Timer/hybrid weights replace the rebalancer's internal Eq.-7 ones; an
  // empty span keeps the static path bit-identical.
  std::vector<double> weights;
  if (cost_model_.config().kind != balance::CostModelKind::kStatic)
    weights = cost_model_.cell_weights(owner_, counts.neutrals, counts.charged,
                                       lb.weight_ratio, lb.cell_weight);

  // Measured cost of the whole event (repartition + KM + migration +
  // rebuild) in virtual time: the busy_max span of the Rebalance phase.
  const double rb_busy_before = rt_->phase_stats(phases::kRebalance).busy_max;
  const bool estimate_learned = policy_.rebalances_observed() > 0;
  const double estimate_before = policy_.rebalance_cost_estimate();

  const std::vector<std::int32_t> new_owner = balance::redecompose(
      *rt_, phases::kRebalance, dual_, coarse_.centroids(), counts.neutrals,
      counts.charged, owner_, lb, lb_stats_, weights);

  // Work redistribution: migrate particles to their new owners.
  audited_exchange("rebalance", phases::kRebalance, new_owner,
                   /*neighbors=*/nullptr);
  owner_ = new_owner;
  rebuild_parallel_structures(phases::kRebalance, /*charge_costs=*/true);

  // The decomposition (and each rank's population) just changed: refresh
  // the cached prediction so the next measured window is paired with the
  // post-migration counts, not the stale pre-rebalance ones.
  if (!prev_predicted_.empty()) prev_predicted_ = predicted_rank_loads();

  const double rb_measured = std::max(
      0.0, rt_->phase_stats(phases::kRebalance).busy_max - rb_busy_before);
  policy_.observe_rebalance(rb_measured);
  if (cfg_.fault == FaultInjection::kSkewRebalanceCost) fault_fired_ = true;
  // Audit the cost feedback loop — but only once the policy has a learned
  // estimate to hold to account (the first event is by definition a guess).
  if (auditor_ && estimate_learned) {
    const double skew =
        cfg_.fault == FaultInjection::kSkewRebalanceCost ? 1000.0 : 1.0;
    auditor_->check_rebalance_cost(estimate_before * skew, rb_measured);
  }

  steps_since_rebalance_ = 0;
  rec_.rebalanced = true;
}

void CoupledSolver::maybe_resize_ensemble() {
  if (pcfg_.balance.ensemble.kind != balance::EnsembleKind::kElastic) return;
  const int target = ensemble_.decide(step_, active_);
  if (target == active_) return;
  resize_active(target);
  steps_since_rebalance_ = 0;
  rec_.rebalanced = true;
  if (trace::TraceRecorder* tr = rt_->tracer())
    tr->add_instant(-1,
                    "ensemble resize -> " + std::to_string(active_) +
                        " @ step " + std::to_string(step_),
                    rt_->total_time());
}

void CoupledSolver::resize_active(int target) {
  DSMCPIC_CHECK(target >= 1 && target <= pcfg_.nranks);
  const balance::RebalanceConfig& lb = pcfg_.balance;

  const CellCounts counts = count_cell_particles();

  // Grow activates the new ranks BEFORE migration so they can receive;
  // shrink migrates first (everyone still dispatched) so the soon-parked
  // ranks drain their particles, then leaves the dispatch set.
  const bool grow = target > active_;
  if (grow) {
    rt_->set_active_ranks(target);
    active_ = target;
  }

  const std::vector<std::int32_t> new_owner = balance::redecompose(
      *rt_, phases::kRebalance, dual_, coarse_.centroids(), counts.neutrals,
      counts.charged, owner_, lb, lb_stats_, /*cell_weights=*/{},
      /*nparts=*/target);

  // Dense fallback even under Strategy::kNeighbor: a resize moves cells
  // wholesale, so the steady-state partition adjacency says nothing about
  // who talks to whom here.
  audited_exchange("rebalance", phases::kRebalance, new_owner,
                   /*neighbors=*/nullptr);
  owner_ = new_owner;
  if (!grow) {
    rt_->set_active_ranks(target);
    active_ = target;
  }
  rebuild_parallel_structures(phases::kRebalance, /*charge_costs=*/true);

  // Same pairing rule as the rebalance path: the next measured window must
  // regress against post-migration populations.
  if (!prev_predicted_.empty()) prev_predicted_ = predicted_rank_loads();
}

CoupledSolver::BusyWindow CoupledSolver::busy_window() const {
  // Particle-proportional phases only: Inject is deliberately excluded —
  // its work is sharded evenly across ranks (round-robin), so including it
  // would flatten the measured shares and make heavily loaded cells look
  // cheaper than they are.
  return {rt_->busy_all(),
          rt_->busy_totals(std::array<std::string, 2>{phases::kDsmcExchange,
                                                      phases::kPicExchange}),
          rt_->busy_totals(std::array<std::string, 1>{phases::kPoissonSolve}),
          rt_->busy_totals(std::array<std::string, 3>{
              phases::kDsmcMove, phases::kColliReact, phases::kPicMove})};
}

CoupledSolver::CellCounts CoupledSolver::count_cell_particles() const {
  CellCounts counts{std::vector<std::int64_t>(coarse_.num_tets(), 0),
                    std::vector<std::int64_t>(coarse_.num_tets(), 0)};
  for (int r = 0; r < pcfg_.nranks; ++r) {
    const auto cells = stores_[r].cells();
    const auto spec = stores_[r].species();
    for (std::size_t i = 0; i < stores_[r].size(); ++i) {
      if (removed_[r][i]) continue;
      if (species_[spec[i]].charged())
        ++counts.charged[cells[i]];
      else
        ++counts.neutrals[cells[i]];
    }
  }
  return counts;
}

std::vector<double> CoupledSolver::predicted_rank_loads() const {
  const balance::RebalanceConfig& lb = pcfg_.balance;
  std::vector<double> predicted(pcfg_.nranks);
  for (int r = 0; r < pcfg_.nranks; ++r) {
    const auto n_h = stores_[r].count_species(dsmc::kSpeciesH);
    const auto n_hp = stores_[r].count_species(dsmc::kSpeciesHPlus);
    predicted[r] = static_cast<double>(n_h) +
                   lb.weight_ratio * static_cast<double>(n_hp) +
                   lb.cell_weight * static_cast<double>(my_cells_[r].size());
  }
  return predicted;
}

par::PhaseStats CoupledSolver::exchange_totals() const {
  par::PhaseStats sum;
  for (const char* phase :
       {phases::kDsmcExchange, phases::kPicExchange, phases::kRebalance}) {
    const par::PhaseStats ps = rt_->phase_stats(phase);
    sum.bytes += ps.bytes;
    sum.transactions += ps.transactions;
  }
  return sum;
}

void CoupledSolver::close_record() {
  rec_.particles_per_rank = particles_per_rank();
  for (const auto& store : stores_) {
    rec_.total_h += store.count_species(dsmc::kSpeciesH);
    rec_.total_hplus += store.count_species(dsmc::kSpeciesHPlus);
  }
  rec_.supersteps = rt_->supersteps();
  rec_.virtual_time = rt_->total_time();
  rec_.active_ranks = active_;
  const par::PhaseStats exch = exchange_totals();
  rec_.exchange_bytes = exch.bytes - prev_exch_.bytes;
  rec_.exchange_messages = exch.transactions - prev_exch_.transactions;
  prev_exch_ = exch;
}

void CoupledSolver::record_trace() {
  trace::TraceRecorder* tr = rt_->tracer();
  if (!tr) return;
  trace::MetricsRegistry& m = tr->metrics();
  const std::int64_t step = rec_.dsmc_step;
  for (int r = 0; r < pcfg_.nranks; ++r) {
    m.add("particles_owned", step, r,
          static_cast<double>(rec_.particles_per_rank[r]), rt_->clock(r));
    m.add("cells_owned", step, r, static_cast<double>(my_cells_[r].size()),
          rt_->clock(r));
  }
  const double t = rec_.virtual_time;
  m.add("lii", step, -1, rec_.lii, t);
  m.add("migrated_dsmc", step, -1, static_cast<double>(rec_.migrated_dsmc), t);
  m.add("migrated_pic", step, -1, static_cast<double>(rec_.migrated_pic), t);
  m.add("bytes_migrated", step, -1, rec_.exchange_bytes, t);
  if (rec_.rebalanced)
    tr->add_instant(-1, "rebalance @ step " + std::to_string(step), t);
}

void CoupledSolver::record_telemetry() {
  if (!telemetry_) return;
  for (const std::string& name : rt_->phases())
    rec_.phases.push_back(phase_record(name, rt_->phase_stats(name)));
  rec_.message_arena_bytes = rt_->arena_bytes();

  double scale_min = 0.0, scale_max = 0.0, scale_sum = 0.0;
  for (int r = 0; r < active_; ++r) {
    const double sc = cost_model_.rank_scale(r);
    if (r == 0 || sc < scale_min) scale_min = sc;
    if (r == 0 || sc > scale_max) scale_max = sc;
    scale_sum += sc;
  }
  rec_.cost_scale_min = scale_min;
  rec_.cost_scale_max = scale_max;
  rec_.cost_scale_mean = active_ > 0 ? scale_sum / active_ : 1.0;

  for (const balance::PolicyDecision& d : policy_.decisions())
    if (d.step == rec_.dsmc_step) rec_.decisions.push_back(decision_record(d));

  if (auditor_) {
    rec_.audit_checks = auditor_->report().checks();
    rec_.audit_violations = auditor_->report().violations();
  }
  telemetry_->on_step(rec_);
}

StepDiagnostics CoupledSolver::step() {
  try {
    StepDiagnostics diag = step_impl();
    // A fault-injection mode tripping is a postmortem trigger: the first
    // faulty step dumps the flight recorder (including its own sample), so
    // the forensics cover the exact boundary where the books went wrong.
    if (telemetry_ && fault_fired_ && !telemetry_->postmortem_written()) {
      const char* reason = "fault";
      switch (cfg_.fault) {
        case FaultInjection::kDropParticle: reason = "fault_drop_particle"; break;
        case FaultInjection::kSkewDeposit: reason = "fault_skew_deposit"; break;
        case FaultInjection::kSkewRebalanceCost:
          reason = "fault_skew_rebalance_cost";
          break;
        case FaultInjection::kNone: break;
      }
      telemetry_->dump_postmortem(reason);
    }
    return diag;
  } catch (...) {
    // HealthAuditor kAbort (or any error escaping the step) — dump the
    // completed supersteps before the exception unwinds the run.
    if (telemetry_) telemetry_->dump_postmortem("abort");
    throw;
  }
}

StepDiagnostics CoupledSolver::step_impl() {
  // The paper's step (§III-B), one host-profiler row per call: inject, move
  // + exchange, reindex, sort, collide, then per PIC substep move +
  // exchange + deposit (+ audit) + field_solve, then sample, rebalance and
  // record.
  rec_ = StepDiagnostics{};
  rec_.dsmc_step = step_;
  do_inject();
  do_dsmc_move();
  do_reindex();
  const bool sorted = cfg_.sort_every > 0 && step_ % cfg_.sort_every == 0;
  if (sorted) do_cell_sort();
  do_colli_react(sorted);
  for (int k = 0; k < cfg_.pic_substeps; ++k) do_pic_substep(k);
  {
    const obs::HostProfiler::Scope prof(prof_, "sample");
    sampler_.begin_snapshot();
    for (const auto& store : stores_) sampler_.accumulate(store);
  }
  maybe_rebalance();
  {
    const obs::HostProfiler::Scope prof(prof_, "record");
    close_record();
    record_trace();
    if (auditor_) {
      auditor_->check_ownership(owner_, active_, my_cells_);
      auditor_->end_step(
          total_particles(),
          static_cast<std::int64_t>(rt_->undelivered_messages()));
    }
    // After the auditor closed the step, so the sample carries this step's
    // full audit tallies; an abort above leaves this step out of the flight
    // recorder (only COMPLETED supersteps are recorded).
    record_telemetry();
  }
  ++step_;
  history_.push_back(std::move(rec_));
  return history_.back();
}

void CoupledSolver::run(int n) {
  for (int i = 0; i < n; ++i) step();
}

std::vector<std::int64_t> CoupledSolver::particles_per_rank() const {
  std::vector<std::int64_t> out(pcfg_.nranks, 0);
  for (int r = 0; r < pcfg_.nranks; ++r)
    out[r] = static_cast<std::int64_t>(stores_[r].size());
  return out;
}

std::int64_t CoupledSolver::total_particles() const {
  std::int64_t n = 0;
  for (const auto& s : stores_) n += static_cast<std::int64_t>(s.size());
  return n;
}

RunSummary CoupledSolver::summary() const {
  RunSummary s;
  s.total_time = rt_->total_time();
  s.phase_names = rt_->phases();
  for (const auto& p : s.phase_names) s.phase_stats.push_back(rt_->phase_stats(p));
  s.rebalance = lb_stats_;
  s.decisions = policy_.decisions();
  s.ensemble_decisions = ensemble_.decisions();
  s.final_particles = total_particles();
  s.supersteps = rt_->supersteps();
  s.active_ranks = active_;
  return s;
}

}  // namespace dsmcpic::core
