// Persistence: the v5 byte layout of checkpoint.bin and lease.bin is
// pinned, and a corrupt or mismatched file either restores or is refused
// with dsmcpic::Error, leaving the solver exactly as it was.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "balance/ensemble.hpp"
#include "balance/policy.hpp"
#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "fleet/runner.hpp"
#include "support/error.hpp"
#include "support/serialize.hpp"

namespace dsmcpic {
namespace {

namespace fs = std::filesystem;

core::SolverConfig tiny_config() {
  core::Dataset d = core::make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

core::ParallelConfig tiny_parallel(int nranks) {
  core::ParallelConfig p;
  p.nranks = nranks;
  p.balance.period = 4;
  return p;
}

/// Four ranks that the elastic ensemble may shrink to two: after 9 steps
/// both the rebalance and the ensemble decision logs are non-empty.
core::ParallelConfig elastic_parallel() {
  core::ParallelConfig p = tiny_parallel(4);
  p.balance.ensemble.kind = balance::EnsembleKind::kElastic;
  p.balance.ensemble.ranks_min = 2;
  return p;
}

std::string temp_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << "cannot write " << path;
}

std::uint64_t fnv64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

template <class T>
void put(std::string& bytes, std::size_t at, T value) {
  ASSERT_LE(at + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

/// Byte offsets into a v5 checkpoint of `s`, which the corruption tests
/// patch: magic, version, fingerprint, step and steps-since-rebalance come
/// first, then the owner map, then the per-rank stores.
struct CheckpointOffsets {
  std::size_t first_owner;
  std::size_t store0_first_cell;
};

CheckpointOffsets offsets_of(const core::CoupledSolver& s) {
  const std::size_t header = 8 + 4 + 8 + 4 + 4;
  const std::size_t cells = static_cast<std::size_t>(s.coarse_grid().num_tets());
  const std::size_t n = s.stores()[0].size();
  CheckpointOffsets o{};
  o.first_owner = header + 8;
  const std::size_t store0 = o.first_owner + 4 * cells + 8;
  // Seven 8-byte columns (px..vz, id), then species, then the cell column.
  o.store0_first_cell = store0 + 7 * (8 + 8 * n) + (8 + 4 * n) + 8;
  return o;
}

/// Everything a refused restore must leave as it was.
struct SolverState {
  std::vector<std::vector<std::int64_t>> ids;
  std::vector<std::vector<std::int32_t>> cells;
  std::vector<std::vector<double>> px;
  int step = 0;
  int active = 0;
  std::vector<std::int32_t> owner;
  std::vector<double> clocks;
  std::uint64_t supersteps = 0;
  std::vector<std::string> phases;
  std::vector<double> phi;
  std::size_t decisions = 0;
  std::size_t ensemble_decisions = 0;
  std::int64_t samples = 0;

  explicit SolverState(const core::CoupledSolver& s)
      : step(s.current_step()),
        active(s.active_ranks()),
        owner(s.owner().begin(), s.owner().end()),
        supersteps(s.runtime().supersteps()),
        phases(s.runtime().phases()),
        phi(s.potential()),
        decisions(s.policy().decisions().size()),
        ensemble_decisions(s.ensemble().decisions().size()),
        samples(s.sampler().num_samples()) {
    for (const dsmc::ParticleStore& st : s.stores()) {
      ids.emplace_back(st.ids().begin(), st.ids().end());
      cells.emplace_back(st.cells().begin(), st.cells().end());
      px.emplace_back(st.px().begin(), st.px().end());
    }
    for (int r = 0; r < s.runtime().size(); ++r)
      clocks.push_back(s.runtime().clock(r));
  }
  bool operator==(const SolverState&) const = default;
};

// ---- format pin -------------------------------------------------------------

// The v5 layout, byte for byte. A change here is a format change: bump
// kVersion in core/checkpoint.cpp, then update these constants.
constexpr std::uint64_t kCheckpointV5Fnv = 0x963ab06a692404dbULL;
constexpr std::uint64_t kLeaseV1Fnv = 0x09936eaddeef1513ULL;

TEST(Checkpoint, V5LayoutIsPinned) {
  const std::string dir = temp_dir("persistence_test_pin");
  core::CoupledSolver solver(tiny_config(), elastic_parallel());
  solver.run(9);
  ASSERT_FALSE(solver.policy().decisions().empty());
  ASSERT_FALSE(solver.ensemble().decisions().empty());
  solver.save_checkpoint(dir + "/checkpoint.bin");

  fleet::FleetOptions fo;
  fo.slots = 1;
  fo.results_dir = dir + "/fleet";
  fleet::FleetRunner runner(fo);
  fleet::FleetJob j;
  j.scenario = "reentry";
  j.seed = 7;
  j.park_at = 3;
  const std::string run_dir = fo.results_dir + "/" + runner.add(j);
  ASSERT_EQ(runner.run_all()[0].state, fleet::RunState::kParked);

  const auto expect_fnv = [](const std::string& path, std::uint64_t want) {
    const std::uint64_t got = fnv64(slurp(path));
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, want) << path << " FNV-64 is " << buf;
  };
  expect_fnv(dir + "/checkpoint.bin", kCheckpointV5Fnv);
  expect_fnv(run_dir + "/lease.bin", kLeaseV1Fnv);
  fs::remove_all(dir);
}

// ---- refused restores -------------------------------------------------------

/// Writes `state`, sets byte `at` (from the end when negative) to 2, and
/// reads it back into `into`.
template <class T>
void read_with_bool_byte_2(const T& state, std::ptrdiff_t at, T& into) {
  std::stringstream ss;
  io::Writer w(ss);
  w(state);
  std::string bytes = ss.str();
  bytes[at >= 0 ? at : static_cast<std::ptrdiff_t>(bytes.size()) + at] = 2;
  std::stringstream bad(bytes);
  io::Reader r(bad);
  r(into);
}

// A bool is one byte, 0 or 1. Any other byte is a corrupt file; copied
// into a bool it would be undefined behaviour.
TEST(Persist, PolicyBoolByteOfTwoIsRefused) {
  balance::PolicyConfig pcfg;
  pcfg.kind = balance::PolicyKind::kLookahead;
  balance::RebalancePolicy policy(pcfg);
  const std::vector<double> costs{4.0, 2.0, 0.0};
  policy.observe_step(costs);
  policy.decide(0, 1.5);
  ASSERT_EQ(policy.decisions().size(), 1u);
  balance::RebalancePolicy p1(pcfg), p2(pcfg);
  // has_observation_ follows three doubles; the decision log ends with a
  // decision's rebalance flag.
  EXPECT_THROW(read_with_bool_byte_2(policy, 24, p1), Error);
  EXPECT_THROW(read_with_bool_byte_2(policy, -1, p2), Error);

  balance::EnsembleConfig ecfg;
  ecfg.kind = balance::EnsembleKind::kElastic;
  ecfg.ranks_min = 2;
  balance::EnsemblePolicy ensemble(ecfg, 8);
  ensemble.observe_step(std::vector<double>(8, 0.5), 100.0);
  ensemble.decide(3, 8);
  ASSERT_EQ(ensemble.decisions().size(), 1u);
  balance::EnsemblePolicy e1(ecfg, 8), e2(ecfg, 8);
  // has_observation_ follows two doubles; the log ends with `resized`.
  EXPECT_THROW(read_with_bool_byte_2(ensemble, 16, e1), Error);
  EXPECT_THROW(read_with_bool_byte_2(ensemble, -1, e2), Error);
}

// A particle in a cell past the grid would index past every per-cell array
// on the next step.
TEST(Checkpoint, RejectsAParticleCellOutsideTheGrid) {
  const std::string dir = temp_dir("persistence_test_cell");
  const std::string path = dir + "/checkpoint.bin";
  core::CoupledSolver solver(tiny_config(), tiny_parallel(2));
  solver.run(2);
  ASSERT_FALSE(solver.stores()[0].empty());
  solver.save_checkpoint(path);
  std::string bytes = slurp(path);
  put<std::int32_t>(bytes, offsets_of(solver).store0_first_cell,
                    solver.coarse_grid().num_tets() + 1000000);
  spill(path, bytes);
  core::CoupledSolver restored(tiny_config(), tiny_parallel(2));
  EXPECT_THROW(restored.restore_checkpoint(path), Error);
  fs::remove_all(dir);
}

// The restore reads into staged values and commits only after every check
// passed: a refused restore changes nothing, and the run goes on as if the
// restore had never been tried.
TEST(Checkpoint, RefusedRestoreLeavesTheSolverUntouched) {
  const std::string dir = temp_dir("persistence_test_refused");
  const std::string path = dir + "/checkpoint.bin";
  {
    core::CoupledSolver later(tiny_config(), tiny_parallel(2));
    later.run(2);
    later.save_checkpoint(path);
    std::string bytes = slurp(path);
    put<std::int32_t>(bytes, offsets_of(later).first_owner, 2);
    spill(path, bytes);
  }
  core::CoupledSolver solver(tiny_config(), tiny_parallel(2));
  solver.run(1);
  const SolverState before(solver);
  const std::int64_t particles = solver.total_particles();
  EXPECT_THROW(solver.restore_checkpoint(path), Error);
  EXPECT_EQ(solver.total_particles(), particles);
  EXPECT_EQ(solver.current_step(), 1);
  EXPECT_TRUE(SolverState(solver) == before);

  core::CoupledSolver twin(tiny_config(), tiny_parallel(2));
  twin.run(1);
  solver.run(2);
  twin.run(2);
  EXPECT_EQ(solver.total_particles(), twin.total_particles());
  EXPECT_EQ(solver.summary().total_time, twin.summary().total_time);
  EXPECT_TRUE(solver.potential() == twin.potential());
  fs::remove_all(dir);
}

// ---- lease / checkpoint pairing ---------------------------------------------

// A lease names the step its checkpoint was taken at: a lease from another
// park of the same run must not drive that checkpoint on.
TEST(Fleet, ResumeRejectsALeaseFromAnotherStep) {
  const std::string base = temp_dir("persistence_test_lease_step");
  const auto park = [&](int at) {
    fleet::FleetOptions fo;
    fo.slots = 1;
    fo.results_dir = base + "/park" + std::to_string(at);
    fleet::FleetRunner runner(fo);
    fleet::FleetJob j;
    j.scenario = "reentry";
    j.park_at = at;
    const std::string run_dir = fo.results_dir + "/" + runner.add(j);
    EXPECT_EQ(runner.run_all()[0].state, fleet::RunState::kParked);
    return run_dir;
  };
  const std::string at2 = park(2);
  const std::string at4 = park(4);
  fs::copy_file(at2 + "/lease.bin", at4 + "/lease.bin",
                fs::copy_options::overwrite_existing);
  fleet::FleetOptions fo;
  fo.results_dir = base + "/other";
  fleet::FleetRunner runner(fo);
  runner.add_resume(at4);
  EXPECT_THROW(runner.run_all(), Error);
  fs::remove_all(base);
}

// ---- corruption sweep -------------------------------------------------------

enum class Mutation { kTruncate, kFlipBit, kInflateLength };

/// Offsets of every 8-byte value in [1, bytes.size()]: each real length
/// prefix is among them (with some coincidental values).
std::vector<std::size_t> length_candidates(const std::string& bytes) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i + 8 <= bytes.size(); ++i) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + i, 8);
    if (v >= 1 && v <= bytes.size()) at.push_back(i);
  }
  return at;
}

/// Applies one seeded mutation to `bytes`. Length inflation sets one of
/// the four high bytes of a candidate length prefix, which the reader must
/// refuse before it allocates.
std::string mutate(const std::string& bytes, Mutation m, std::mt19937_64& rng) {
  std::string out = bytes;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  switch (m) {
    case Mutation::kTruncate:
      out.resize(pick(bytes.size()));
      break;
    case Mutation::kFlipBit:
      out[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case Mutation::kInflateLength: {
      const std::vector<std::size_t> at = length_candidates(bytes);
      out[at[pick(at.size())] + 4 + pick(4)] = static_cast<char>(1 + pick(255));
      break;
    }
  }
  return out;
}

TEST(Checkpoint, CorruptionSweepEndsInErrorOrACleanRestore) {
  const std::string dir = temp_dir("persistence_test_sweep");
  const std::string golden = dir + "/golden.bin";
  const std::string path = dir + "/checkpoint.bin";
  {
    core::CoupledSolver source(tiny_config(), tiny_parallel(2));
    source.run(5);
    source.save_checkpoint(golden);
  }
  const std::string bytes = slurp(golden);
  core::CoupledSolver solver(tiny_config(), tiny_parallel(2));
  solver.restore_checkpoint(golden);
  const SolverState pristine(solver);

  std::mt19937_64 rng(20260501);
  int refused = 0, restored = 0;
  for (int i = 0; i < 150; ++i) {
    const auto m = static_cast<Mutation>(i % 3);
    spill(path, mutate(bytes, m, rng));
    try {
      solver.restore_checkpoint(path);
      ++restored;
      EXPECT_NE(m, Mutation::kTruncate) << "case " << i << " restored";
      solver.restore_checkpoint(golden);
    } catch (const Error&) {
      ++refused;
      ASSERT_TRUE(SolverState(solver) == pristine)
          << "case " << i << " changed the solver before it was refused";
    }
  }
  EXPECT_GT(refused, 50);
  EXPECT_GT(restored, 0);
  // A restored solver still runs.
  solver.run(1);
  EXPECT_EQ(solver.current_step(), 6);
  fs::remove_all(dir);
}

TEST(Fleet, LeaseCorruptionSweepEndsInErrorOrAResume) {
  const std::string base = temp_dir("persistence_test_lease_sweep");
  std::string run_dir;
  {
    fleet::FleetOptions fo;
    fo.slots = 1;
    fo.results_dir = base + "/parked";
    fleet::FleetRunner runner(fo);
    fleet::FleetJob j;
    j.scenario = "reentry";
    j.park_at = 2;
    run_dir = fo.results_dir + "/" + runner.add(j);
    ASSERT_EQ(runner.run_all()[0].state, fleet::RunState::kParked);
  }
  const std::string bytes = slurp(run_dir + "/lease.bin");
  fleet::FleetOptions fo;
  fo.results_dir = base + "/other";
  fleet::FleetRunner runner(fo);
  std::mt19937_64 rng(20260502);
  int refused = 0, resumed = 0;
  for (int i = 0; i < 60; ++i) {
    spill(run_dir + "/lease.bin",
          mutate(bytes, static_cast<Mutation>(i % 3), rng));
    try {
      runner.add_resume(run_dir);
      ++resumed;
    } catch (const Error&) {
      ++refused;
    }
  }
  EXPECT_GT(refused, 20);
  // Refused leases queued nothing: the next job is numbered after the
  // resumed ones only.
  fleet::FleetJob j;
  j.scenario = "reentry";
  char want[32];
  std::snprintf(want, sizeof want, "run%03d-reentry", resumed);
  EXPECT_EQ(runner.add(j), want);
  fs::remove_all(base);
}

}  // namespace
}  // namespace dsmcpic
