// Tests for the solver's production features: checkpoint/restart, the
// balance auto-tuner, and the hierarchical exchange strategy driving a
// full simulation.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <memory>
#include <string>
#include <thread>

#include "core/autotune.hpp"
#include "core/datasets.hpp"
#include "core/solver.hpp"

namespace dsmcpic::core {
namespace {

SolverConfig tiny_config() {
  Dataset d = make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

ParallelConfig tiny_parallel(int nranks) {
  ParallelConfig p;
  p.nranks = nranks;
  p.balance.period = 4;
  return p;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Overwrites one byte of the file at `path` in place.
void poke(const std::string& path, std::streamoff at, unsigned char byte) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(at);
  f.put(static_cast<char>(byte));
}

TEST(Checkpoint, RestartReproducesUninterruptedRun) {
  const SolverConfig cfg = tiny_config();
  const ParallelConfig par = tiny_parallel(3);

  // Reference: uninterrupted 12-step run.
  CoupledSolver reference(cfg, par);
  reference.run(12);

  // Checkpointed: 7 steps, save, restore into a FRESH solver, 5 more steps.
  const std::string path = temp_path("dsmcpic_ckpt_test.bin");
  {
    CoupledSolver first(cfg, par);
    first.run(7);
    first.save_checkpoint(path);
  }
  CoupledSolver second(cfg, par);
  second.restore_checkpoint(path);
  EXPECT_EQ(second.current_step(), 7);
  second.run(5);

  EXPECT_EQ(second.total_particles(), reference.total_particles());
  EXPECT_EQ(second.particles_per_rank(), reference.particles_per_rank());
  EXPECT_DOUBLE_EQ(second.runtime().total_time(),
                   reference.runtime().total_time());
  // Sampled fields continue identically too.
  const auto da = reference.sampler().number_density(dsmc::kSpeciesH);
  const auto db = second.sampler().number_density(dsmc::kSpeciesH);
  for (std::size_t c = 0; c < da.size(); ++c) ASSERT_DOUBLE_EQ(da[c], db[c]);
  std::filesystem::remove(path);
}

// Colli_React reuses the CellIndex that Reindex built in the same step, and
// a cell-sort step re-lays the store out in that index's order. Neither the
// index nor the layout is checkpointed, so a restore mid-run must rebuild
// both to exactly what the uninterrupted run had — with the cell sort on
// every step, so the checkpoint is taken right after a sort. The dense,
// ionizing variant of the tiny case collides, so a wrong per-cell
// traversal would change the physics; and since the sort is pure layout,
// the never-sorted run must match too.
TEST(Checkpoint, RestartWithCellSortEveryStepMatchesUninterruptedRun) {
  SolverConfig cfg = tiny_config();
  cfg.density_h *= 100.0;
  cfg.fnum_h *= 100.0;
  cfg.chemistry.ionization_threshold = 0.0;
  const ParallelConfig par = tiny_parallel(3);

  SolverConfig unsorted_cfg = cfg;
  unsorted_cfg.sort_every = 0;
  CoupledSolver unsorted(unsorted_cfg, par);
  unsorted.run(12);
  std::int64_t collisions = 0, ionizations = 0;
  for (const StepDiagnostics& d : unsorted.history()) {
    collisions += d.collisions;
    ionizations += d.ionizations;
  }
  ASSERT_GT(collisions, 0);
  ASSERT_GT(ionizations, 0);

  cfg.sort_every = 1;
  CoupledSolver reference(cfg, par);
  reference.run(12);

  const std::string path = temp_path("dsmcpic_ckpt_sorted_test.bin");
  {
    CoupledSolver first(cfg, par);
    first.run(7);
    first.save_checkpoint(path);
  }
  CoupledSolver second(cfg, par);
  second.restore_checkpoint(path);
  second.run(5);
  std::filesystem::remove(path);

  for (const CoupledSolver* want : {&reference, &unsorted}) {
    EXPECT_EQ(second.particles_per_rank(), want->particles_per_rank());
    EXPECT_EQ(second.runtime().total_time(), want->runtime().total_time());
    EXPECT_EQ(second.potential(), want->potential());
    EXPECT_EQ(second.sampler().number_density(dsmc::kSpeciesH),
              want->sampler().number_density(dsmc::kSpeciesH));
    EXPECT_EQ(second.sampler().number_density(dsmc::kSpeciesHPlus),
              want->sampler().number_density(dsmc::kSpeciesHPlus));
  }
}

// The thread budget is deliberately NOT part of the checkpoint fingerprint:
// a run saved under rank dispatch (4 ranks on 3 lanes) restores into a
// serial solver (and vice versa) and still reproduces the uninterrupted
// run exactly, because threading is bit-invisible (DESIGN.md §2c).
TEST(Checkpoint, ThreadedAndSequentialCheckpointsInterchange) {
  const SolverConfig cfg = tiny_config();
  ParallelConfig seq_par = tiny_parallel(4);
  ParallelConfig thr_par = seq_par;
  thr_par.threads = 3;

  // Reference: uninterrupted 10-step sequential run.
  CoupledSolver reference(cfg, seq_par);
  reference.run(10);

  const std::string path = temp_path("dsmcpic_ckpt_threads.bin");

  // Threaded save -> sequential restore.
  {
    CoupledSolver threaded(cfg, thr_par);
    threaded.run(6);
    threaded.save_checkpoint(path);
  }
  {
    CoupledSolver restored(cfg, seq_par);
    restored.restore_checkpoint(path);
    restored.run(4);
    EXPECT_EQ(restored.particles_per_rank(), reference.particles_per_rank());
    EXPECT_EQ(restored.runtime().total_time(),
              reference.runtime().total_time());
    EXPECT_EQ(restored.potential(), reference.potential());
  }

  // Sequential save -> threaded restore.
  {
    CoupledSolver plain(cfg, seq_par);
    plain.run(6);
    plain.save_checkpoint(path);
  }
  {
    CoupledSolver restored(cfg, thr_par);
    restored.restore_checkpoint(path);
    restored.run(4);
    EXPECT_EQ(restored.particles_per_rank(), reference.particles_per_rank());
    EXPECT_EQ(restored.runtime().total_time(),
              reference.runtime().total_time());
    EXPECT_EQ(restored.potential(), reference.potential());
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsMismatchedConfiguration) {
  const SolverConfig cfg = tiny_config();
  const std::string path = temp_path("dsmcpic_ckpt_mismatch.bin");
  {
    CoupledSolver solver(cfg, tiny_parallel(2));
    solver.run(2);
    solver.save_checkpoint(path);
  }
  CoupledSolver other(cfg, tiny_parallel(3));  // different rank count
  EXPECT_THROW(other.restore_checkpoint(path), Error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsGarbageFile) {
  const std::string path = temp_path("dsmcpic_ckpt_garbage.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a checkpoint";
  }
  CoupledSolver solver(tiny_config(), tiny_parallel(2));
  EXPECT_THROW(solver.restore_checkpoint(path), Error);
  std::filesystem::remove(path);
}

// A flipped high byte in a length prefix must end in dsmcpic::Error, not in
// bad_alloc, length_error or an OOM kill. The first prefix (the owner map)
// follows magic, version, fingerprint, step and steps-since-rebalance.
TEST(Checkpoint, RejectsInflatedLengthPrefix) {
  const std::string path = temp_path("dsmcpic_ckpt_inflated.bin");
  CoupledSolver solver(tiny_config(), tiny_parallel(2));
  solver.run(2);
  constexpr std::streamoff kOwnerLength = 8 + 4 + 8 + 4 + 4;
  // Byte 5 asks for ~2^40 cells (4 TiB); byte 7 = 0x01 for ~2^56 (whose
  // size still fits 64 bits); byte 7 = 0xff overflows the byte count.
  for (const auto& [byte, value] :
       {std::pair{5, 0x01}, std::pair{7, 0x01}, std::pair{7, 0xff}}) {
    SCOPED_TRACE("byte " + std::to_string(byte));
    solver.save_checkpoint(path);
    poke(path, kOwnerLength + byte, static_cast<unsigned char>(value));
    CoupledSolver restored(tiny_config(), tiny_parallel(2));
    EXPECT_THROW(restored.restore_checkpoint(path), Error);
  }
  std::filesystem::remove(path);
}

// A cell owned by a rank outside the active set would index past the
// per-rank cell lists when the decomposition is rebuilt. The owner map's
// first entry follows its 8-byte length prefix; ranks are small, so one
// byte sets it to the rank count.
TEST(Checkpoint, RejectsAnOwnerOutsideTheActiveRanks) {
  const std::string path = temp_path("dsmcpic_ckpt_owner.bin");
  CoupledSolver solver(tiny_config(), tiny_parallel(2));
  solver.run(2);
  solver.save_checkpoint(path);
  constexpr std::streamoff kFirstOwner = 8 + 4 + 8 + 4 + 4 + 8;
  poke(path, kFirstOwner, 2);
  CoupledSolver restored(tiny_config(), tiny_parallel(2));
  EXPECT_THROW(restored.restore_checkpoint(path), Error);
  std::filesystem::remove(path);
}

// Checkpoints carry no uninitialised bytes: two identical runs write
// byte-identical files. The second run steps on its own thread, whose stack
// and heap arena differ from the first's, so stray bytes would differ too.
// Both decision logs are non-empty: their records are among the bytes
// compared.
TEST(Checkpoint, IdenticalRunsWriteIdenticalBytes) {
  ParallelConfig par = tiny_parallel(4);
  par.balance.ensemble.kind = balance::EnsembleKind::kElastic;
  par.balance.ensemble.ranks_min = 2;
  CoupledSolver a(tiny_config(), par);
  a.run(9);
  std::unique_ptr<CoupledSolver> other;
  std::thread([&] {
    other = std::make_unique<CoupledSolver>(tiny_config(), par);
    other->run(9);
  }).join();
  const CoupledSolver& b = *other;
  ASSERT_FALSE(a.policy().decisions().empty());
  ASSERT_FALSE(a.ensemble().decisions().empty());
  const std::string pa = temp_path("dsmcpic_ckpt_same_a.bin");
  const std::string pb = temp_path("dsmcpic_ckpt_same_b.bin");
  a.save_checkpoint(pa);
  b.save_checkpoint(pb);
  const std::string bytes_a = slurp(pa);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == slurp(pb)) << "identical runs wrote different bytes";
  std::filesystem::remove(pa);
  std::filesystem::remove(pb);
}

// Saves go through <path>.tmp + rename: when the tmp file cannot be
// created, the save throws and the previous checkpoint is untouched.
TEST(Checkpoint, FailedSaveLeavesPreviousCheckpointIntact) {
  const std::string path = temp_path("dsmcpic_ckpt_atomic.bin");
  std::filesystem::remove_all(path + ".tmp");
  CoupledSolver solver(tiny_config(), tiny_parallel(2));
  solver.run(2);
  solver.save_checkpoint(path);
  const std::string before = slurp(path);
  ASSERT_FALSE(before.empty());
  solver.run(2);
  std::filesystem::create_directory(path + ".tmp");  // blocks the tmp file
  EXPECT_THROW(solver.save_checkpoint(path), Error);
  EXPECT_EQ(slurp(path), before);
  std::filesystem::remove_all(path + ".tmp");
  solver.save_checkpoint(path);
  EXPECT_NE(slurp(path), before);
  std::filesystem::remove(path);
}

TEST(Autotune, PicksAValidCombination) {
  AutotuneOptions opt;
  opt.periods = {4, 8};
  opt.thresholds = {1.5, 3.0};
  opt.pilot_steps = 8;
  const AutotuneResult r =
      autotune_balance(tiny_config(), tiny_parallel(4), opt);
  ASSERT_EQ(r.trials.size(), 4u);
  // Trials sorted ascending by time; best matches front.
  for (std::size_t i = 1; i < r.trials.size(); ++i)
    EXPECT_GE(r.trials[i].total_time, r.trials[i - 1].total_time);
  EXPECT_EQ(r.best_period, r.trials.front().period);
  EXPECT_EQ(r.best_threshold, r.trials.front().threshold);
  EXPECT_TRUE(r.best_period == 4 || r.best_period == 8);
}

TEST(HierarchicalStrategy, DrivesAFullSimulation) {
  SolverConfig cfg = tiny_config();
  ParallelConfig hc = tiny_parallel(4);
  hc.strategy = exchange::Strategy::kHierarchical;
  ParallelConfig dc = tiny_parallel(4);
  dc.strategy = exchange::Strategy::kDistributed;
  CoupledSolver a(cfg, hc), b(cfg, dc);
  a.run(6);
  b.run(6);
  // Identical physics regardless of the strategy.
  EXPECT_EQ(a.total_particles(), b.total_particles());
  EXPECT_EQ(a.history().back().total_hplus, b.history().back().total_hplus);
}

}  // namespace
}  // namespace dsmcpic::core
