// Elastic rank ensembles (DESIGN.md §2i): the EnsemblePolicy unit battery
// plus solver-level grow/shrink/park behavior, thread-budget bit-identity
// of an elastic run, NC-vs-DC physics equivalence, and the v4 checkpoint
// round-trip of ensemble state.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "balance/ensemble.hpp"
#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "support/error.hpp"
#include "support/serialize.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic {
namespace {

using balance::EnsembleConfig;
using balance::EnsembleDecision;
using balance::EnsembleKind;
using balance::EnsemblePolicy;

TEST(Ensemble, ParseAndName) {
  EXPECT_EQ(balance::parse_ensemble("fixed"), EnsembleKind::kFixed);
  EXPECT_EQ(balance::parse_ensemble("elastic"), EnsembleKind::kElastic);
  EXPECT_STREQ(balance::ensemble_name(EnsembleKind::kFixed), "fixed");
  EXPECT_STREQ(balance::ensemble_name(EnsembleKind::kElastic), "elastic");
  EXPECT_THROW(balance::parse_ensemble("adaptive"), Error);
}

TEST(Ensemble, InitialActiveResolution) {
  EnsembleConfig cfg;
  EXPECT_EQ(EnsemblePolicy(cfg, 16).initial_active(), 16);  // 0 = all
  cfg.initial = 4;
  EXPECT_EQ(EnsemblePolicy(cfg, 16).initial_active(), 4);
  cfg.initial = 0;
  cfg.ranks_max = 8;
  EXPECT_EQ(EnsemblePolicy(cfg, 16).initial_active(), 8);  // clamped to max
  cfg.ranks_max = 64;  // clamped down to nominal
  EXPECT_EQ(EnsemblePolicy(cfg, 16).config().ranks_max, 16);
  cfg.ranks_max = 0;
  cfg.initial = 32;  // outside [min, nominal]
  EXPECT_THROW(EnsemblePolicy(cfg, 16), Error);
  cfg.initial = 0;
  cfg.ranks_min = 12;
  cfg.ranks_max = 4;
  EXPECT_THROW(EnsemblePolicy(cfg, 16), Error);  // min > max
}

TEST(Ensemble, FixedNeverResizes) {
  EnsembleConfig cfg;  // kFixed
  EnsemblePolicy p(cfg, 16);
  std::vector<double> comp(16, 1.0);
  for (int s = 0; s < 10; ++s) {
    p.observe_step(comp, 1000.0);  // overhead swamps compute
    EXPECT_EQ(p.decide(s, 16), 16);
  }
  EXPECT_EQ(p.resizes(), 0);
  ASSERT_EQ(p.decisions().size(), 10u);
  for (const EnsembleDecision& d : p.decisions()) EXPECT_FALSE(d.resized);
}

TEST(Ensemble, OverheadDominatedShrinksAtMostHalving) {
  EnsembleConfig cfg;
  cfg.kind = EnsembleKind::kElastic;
  cfg.ranks_min = 2;
  EnsemblePolicy p(cfg, 64);
  // compute sum 1, overhead 99: n* = sqrt(1 * 64 / 99) < 1 -> clamp chain
  // cur/2 then ranks_min.
  std::vector<double> comp(64, 1.0 / 64.0);
  p.observe_step(comp, 100.0);
  EXPECT_EQ(p.decide(0, 64), 32);  // at most halves per decision
  EXPECT_EQ(p.decide(1, 32), 16);
  EXPECT_EQ(p.decide(2, 4), 2);    // floor at ranks_min
  EXPECT_EQ(p.resizes(), 3);
}

TEST(Ensemble, ComputeDominatedGrowsAtMostDoubling) {
  EnsembleConfig cfg;
  cfg.kind = EnsembleKind::kElastic;
  EnsemblePolicy p(cfg, 64);
  // compute 1e6, overhead 1 at 4 active: n* = sqrt(1e6 * 4) = 2000 -> 2x cap
  // then ranks_max.
  std::vector<double> comp(4, 250000.0);
  p.observe_step(comp, 1000001.0);
  EXPECT_EQ(p.decide(0, 4), 8);
  EXPECT_EQ(p.decide(1, 40), 64);  // 80 capped by ranks_max = nominal
}

TEST(Ensemble, HysteresisDeadbandHolds) {
  EnsembleConfig cfg;
  cfg.kind = EnsembleKind::kElastic;
  cfg.hysteresis = 0.25;
  EnsemblePolicy p(cfg, 64);
  // n* = sqrt(C * cur / ovh) with C/ovh tuned so n* ~ 18 from cur = 16:
  // |18 - 16| = 2 <= 0.25 * 16 = 4 -> stay put.
  std::vector<double> comp(16, 1.0);  // C = 16
  p.observe_step(comp, 16.0 + 16.0 * 16.0 / (18.0 * 18.0));
  EXPECT_EQ(p.decide(0, 16), 16);
  EXPECT_EQ(p.resizes(), 0);
}

TEST(Ensemble, NoObservationNoMove) {
  EnsembleConfig cfg;
  cfg.kind = EnsembleKind::kElastic;
  EnsemblePolicy p(cfg, 16);
  EXPECT_EQ(p.decide(0, 16), 16);  // nothing observed yet
}

TEST(Ensemble, EwmaBlendsObservations) {
  EnsembleConfig cfg;
  cfg.kind = EnsembleKind::kElastic;
  cfg.ewma_alpha = 0.5;
  EnsemblePolicy p(cfg, 8);
  std::vector<double> comp(8, 1.0);  // C = 8 each step
  p.observe_step(comp, 10.0);        // ovh 2
  p.observe_step(comp, 14.0);        // ovh 6 -> EWMA 4
  p.decide(0, 8);
  const EnsembleDecision& d = p.decisions().back();
  EXPECT_DOUBLE_EQ(d.compute_ewma, 8.0);
  EXPECT_DOUBLE_EQ(d.overhead_ewma, 4.0);
}

TEST(Ensemble, SaveLoadRoundTrip) {
  EnsembleConfig cfg;
  cfg.kind = EnsembleKind::kElastic;
  cfg.ranks_min = 2;
  EnsemblePolicy p(cfg, 32);
  std::vector<double> comp(32, 0.5);
  p.observe_step(comp, 400.0);
  p.decide(3, 32);
  std::stringstream ss;
  io::Writer w(ss);
  w(p);
  EnsemblePolicy q(cfg, 32);
  io::Reader r(ss);
  r(q);
  EXPECT_EQ(q.resizes(), p.resizes());
  ASSERT_EQ(q.decisions().size(), p.decisions().size());
  EXPECT_EQ(q.decisions().back().step, 3);
  EXPECT_DOUBLE_EQ(q.decisions().back().compute_ewma,
                   p.decisions().back().compute_ewma);
  // Identical future decisions: the EWMAs survived bitwise.
  EnsemblePolicy p2 = p, q2 = q;
  EXPECT_EQ(p2.decide(4, 16), q2.decide(4, 16));
}

// ---- solver-level behavior -----------------------------------------------

core::SolverConfig tiny_config() {
  core::Dataset d = core::make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

core::ParallelConfig make_par(int nranks, EnsembleKind kind, int initial = 0,
                              int ranks_min = 1,
                              exchange::Strategy strategy =
                                  exchange::Strategy::kDistributed,
                              int threads = 1) {
  core::ParallelConfig par;
  par.nranks = nranks;
  par.strategy = strategy;
  par.balance.enabled = false;  // isolate the ensemble from the rebalancer
  par.balance.period = 3;
  par.balance.ensemble.kind = kind;
  par.balance.ensemble.initial = initial;
  par.balance.ensemble.ranks_min = ranks_min;
  par.threads = threads;
  return par;
}

TEST(EnsembleSolver, FixedReducedEnsembleParksRanks) {
  // 8 nominal ranks, 3 active: parked ranks own nothing, hold no particles,
  // and their clocks never move.
  core::CoupledSolver solver(tiny_config(), make_par(8, EnsembleKind::kFixed,
                                                     /*initial=*/3));
  EXPECT_EQ(solver.active_ranks(), 3);
  EXPECT_EQ(solver.runtime().active_ranks(), 3);
  solver.run(3);
  const auto per_rank = solver.particles_per_rank();
  std::int64_t active_particles = 0;
  for (int r = 0; r < 3; ++r) active_particles += per_rank[r];
  EXPECT_GT(active_particles, 0);
  for (int r = 3; r < 8; ++r) {
    EXPECT_EQ(per_rank[r], 0) << "parked rank " << r << " holds particles";
    EXPECT_EQ(solver.runtime().clock(r), 0.0)
        << "parked rank " << r << " clock moved";
  }
  for (const std::int32_t o : solver.owner()) EXPECT_LT(o, 3);
}

TEST(EnsembleSolver, ElasticShrinksOverheadDominatedRun) {
  // The tiny workload on 12 ranks is overhead-dominated, so the elastic
  // policy must park ranks within a few periods — and every particle must
  // survive the migrations onto the surviving ranks.
  core::CoupledSolver solver(tiny_config(),
                             make_par(12, EnsembleKind::kElastic,
                                      /*initial=*/0, /*ranks_min=*/2));
  solver.run(10);
  EXPECT_LT(solver.active_ranks(), 12) << "elastic never shrank";
  EXPECT_GE(solver.active_ranks(), 2);
  EXPECT_EQ(solver.runtime().active_ranks(), solver.active_ranks());
  EXPECT_GT(solver.ensemble().resizes(), 0);
  const auto per_rank = solver.particles_per_rank();
  for (int r = solver.active_ranks(); r < 12; ++r)
    EXPECT_EQ(per_rank[r], 0) << "parked rank " << r << " holds particles";
  EXPECT_GT(solver.total_particles(), 0);
}

// The elastic run shrinks from 12 active ranks to at most 4, so at 4 and 8
// lanes one solver crosses the dispatch rule mid-run: rank bodies on the
// pool while active > threads, kernel chunks on the pool after.
TEST(EnsembleSolver, ElasticRunIsBitIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    core::CoupledSolver solver(
        tiny_config(),
        make_par(12, EnsembleKind::kElastic, 0, 2,
                 exchange::Strategy::kDistributed, threads));
    solver.run(8);
    struct Out {
      std::vector<double> clocks;
      std::vector<std::int64_t> per_rank;
      std::vector<double> potential;
      int active = 0;
      int resizes = 0;
      double total = 0.0;
    } o;
    for (int r = 0; r < solver.runtime().size(); ++r)
      o.clocks.push_back(solver.runtime().clock(r));
    o.per_rank = solver.particles_per_rank();
    o.potential = solver.potential();
    o.active = solver.active_ranks();
    o.resizes = solver.ensemble().resizes();
    o.total = solver.runtime().total_time();
    return o;
  };
  const auto seq = run(1);
  EXPECT_LE(seq.active, 4) << "the run never crossed the dispatch rule";
  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto thr = run(threads);
    EXPECT_EQ(seq.clocks, thr.clocks);
    EXPECT_EQ(seq.per_rank, thr.per_rank);
    EXPECT_EQ(seq.potential, thr.potential);
    EXPECT_EQ(seq.active, thr.active);
    EXPECT_EQ(seq.resizes, thr.resizes);
    EXPECT_EQ(seq.total, thr.total);
  }
}

// An elastic shrink migrates particles onto the surviving ranks between
// steps; the next Reindex rebuilds each rank's CellIndex and Colli_React
// reuses it. With the cell sort on (every third step, so some sorts land
// right after a resize) the run must match the unsorted one bitwise. The
// dense, ionizing variant of the tiny case collides, so a wrong per-cell
// traversal would change the physics.
TEST(EnsembleSolver, ElasticShrinkWithCellSortMatchesUnsortedShrink) {
  auto run = [](int sort_every) {
    core::SolverConfig cfg = tiny_config();
    cfg.density_h *= 100.0;
    cfg.fnum_h *= 100.0;
    cfg.chemistry.ionization_threshold = 0.0;
    cfg.sort_every = sort_every;
    core::CoupledSolver solver(cfg,
                               make_par(12, EnsembleKind::kElastic, 0, 2));
    solver.run(9);
    std::vector<double> clocks;
    for (int r = 0; r < solver.runtime().size(); ++r)
      clocks.push_back(solver.runtime().clock(r));
    std::int64_t collisions = 0;
    for (const core::StepDiagnostics& d : solver.history())
      collisions += d.collisions;
    return std::tuple(clocks, solver.particles_per_rank(), solver.potential(),
                      solver.active_ranks(), solver.ensemble().resizes(),
                      collisions);
  };
  const auto unsorted = run(0);
  const auto sorted = run(3);
  EXPECT_LT(std::get<3>(unsorted), 12) << "the run never shrank";
  EXPECT_GT(std::get<5>(unsorted), 0) << "the run never collided";
  EXPECT_EQ(sorted, unsorted);
}

TEST(EnsembleSolver, NeighborStrategyMatchesDistributedPhysics) {
  // NC ships the same payloads as DC over sparse handshakes: the physics
  // (particle counts, potential) must match bitwise; only virtual time may
  // differ.
  auto run = [](exchange::Strategy s) {
    core::CoupledSolver solver(
        tiny_config(), make_par(6, EnsembleKind::kFixed, 0, 1, s));
    solver.run(5);
    return std::tuple(solver.particles_per_rank(), solver.potential(),
                      solver.total_particles());
  };
  const auto dc = run(exchange::Strategy::kDistributed);
  const auto nc = run(exchange::Strategy::kNeighbor);
  EXPECT_EQ(std::get<0>(dc), std::get<0>(nc));
  EXPECT_EQ(std::get<1>(dc), std::get<1>(nc));
  EXPECT_EQ(std::get<2>(dc), std::get<2>(nc));
}

TEST(EnsembleSolver, SteadyStateSuperstepsReusePooledPayloads) {
  // Supersteps reuse the message arenas' capacity. The population is still
  // filling the nozzle, so the largest migration messages keep growing and
  // an arena doubles now and then; but over two steps the arenas grow by a
  // small fraction (under 1%) of the bytes those steps send.
  constexpr int kRanks = 6;
  core::CoupledSolver solver(tiny_config(),
                             make_par(kRanks, EnsembleKind::kFixed));
  solver.run(6);
  const std::size_t warm = solver.runtime().arena_bytes();
  EXPECT_GT(warm, 0u);
  trace::TraceRecorder rec(kRanks);
  solver.runtime().set_tracer(&rec);
  solver.run(2);
  solver.runtime().set_tracer(nullptr);
  std::size_t sent = 0;
  for (const trace::MessageRec& m : rec.messages()) sent += m.bytes;
  const std::size_t grown = solver.runtime().arena_bytes() - warm;
  EXPECT_LT(grown, sent / 100) << grown << " arena bytes grown, " << sent
                              << " bytes sent";
}

TEST(EnsembleSolver, CheckpointV4RoundTripsEnsembleState) {
  const std::string path = "ensemble_ckpt_test.bin";
  const auto par = make_par(12, EnsembleKind::kElastic, 0, 2);
  core::CoupledSolver a(tiny_config(), par);
  a.run(7);  // past at least one resize boundary
  ASSERT_LT(a.active_ranks(), 12);
  a.save_checkpoint(path);

  core::CoupledSolver b(tiny_config(), par);
  EXPECT_EQ(b.active_ranks(), 12);  // fresh solver starts dense
  b.restore_checkpoint(path);
  EXPECT_EQ(b.active_ranks(), a.active_ranks());
  EXPECT_EQ(b.runtime().active_ranks(), a.runtime().active_ranks());
  EXPECT_EQ(b.ensemble().resizes(), a.ensemble().resizes());

  // Continuing must reproduce the uninterrupted run bitwise.
  a.run(4);
  b.run(4);
  EXPECT_EQ(a.active_ranks(), b.active_ranks());
  EXPECT_EQ(a.particles_per_rank(), b.particles_per_rank());
  EXPECT_EQ(a.potential(), b.potential());
  for (int r = 0; r < a.runtime().size(); ++r)
    EXPECT_EQ(a.runtime().clock(r), b.runtime().clock(r)) << "rank " << r;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsmcpic
