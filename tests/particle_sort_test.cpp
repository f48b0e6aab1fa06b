// Unit tests for the SoA ParticleStore reordering primitives that the
// periodic cell sort (DESIGN.md §2g) is built on: apply_gather permutation
// semantics, sort_by_cell correctness + STABILITY (the determinism
// contract), remove_flagged stability, and a checkpoint round-trip of the
// component-vector layout. The end-to-end invariance claims live in
// determinism_test.cpp (SortDeterminism) and golden_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "dsmc/particles.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace dsmcpic::dsmc {
namespace {

/// A store whose particle i is fully identified by its id: every field is a
/// distinct function of i, so any mix-up between arrays or slots shows.
ParticleStore make_store(std::size_t n, std::int32_t num_cells,
                         std::uint64_t seed = 17) {
  ParticleStore store;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ParticleRecord p;
    const double d = static_cast<double>(i);
    p.position = {d + 0.125, d + 0.25, d + 0.375};
    p.velocity = {-d - 0.5, -d - 0.625, -d - 0.75};
    p.id = static_cast<std::int64_t>(i);
    p.species = static_cast<std::int32_t>(i % 2);
    p.cell = static_cast<std::int32_t>(rng.next_u64() %
                                       static_cast<std::uint64_t>(num_cells));
    store.add(p);
  }
  return store;
}

void expect_same_particle(const ParticleStore& got, std::size_t slot,
                          const ParticleRecord& want) {
  EXPECT_EQ(got.ids()[slot], want.id);
  EXPECT_EQ(got.species()[slot], want.species);
  EXPECT_EQ(got.cells()[slot], want.cell);
  EXPECT_EQ(got.position(slot), want.position);
  EXPECT_EQ(got.velocity(slot), want.velocity);
}

TEST(ParticleSort, ApplyGatherPermutesEveryArray) {
  const std::size_t n = 37;
  ParticleStore store = make_store(n, 5);
  const ParticleStore orig = store;

  // Reverse permutation plus flags that tag odd OLD slots.
  std::vector<std::int32_t> gather(n);
  for (std::size_t k = 0; k < n; ++k)
    gather[k] = static_cast<std::int32_t>(n - 1 - k);
  std::vector<std::uint8_t> flags(n, 0);
  for (std::size_t i = 1; i < n; i += 2) flags[i] = 1;

  SortScratch scratch;
  store.apply_gather(gather, scratch, flags);

  ASSERT_EQ(store.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    expect_same_particle(store, k, orig.record(n - 1 - k));
    EXPECT_EQ(flags[k], (n - 1 - k) % 2 == 1 ? 1 : 0) << "slot " << k;
  }
}

TEST(ParticleSort, SortByCellGroupsCellsAscending) {
  const std::int32_t num_cells = 7;
  ParticleStore store = make_store(113, num_cells);
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);

  ASSERT_EQ(store.size(), 113u);
  const auto cells = store.cells();
  for (std::size_t i = 1; i < store.size(); ++i)
    EXPECT_LE(cells[i - 1], cells[i]) << "slot " << i;
}

// Stability keeps the layout predictable: within one cell, particles keep
// the relative order they had before the sort — slot order, not id order.
// Traversal ORDER is owned by CellIndex, which canonicalizes per-cell lists
// by id (CellIndexSortsEachCellById below), so this slot-stable sort does
// NOT leave a reindexed store id-ascending in memory. The solver's cell
// sort gathers the store in the index's (cell, id) order instead
// (CellIndex::gather_store, DESIGN.md §2g).
TEST(ParticleSort, SortByCellIsStableWithinCells) {
  const std::int32_t num_cells = 6;
  ParticleStore store = make_store(211, num_cells);
  const ParticleStore orig = store;
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);

  // Expected per-cell id sequences in original store order.
  std::vector<std::vector<std::int64_t>> want(num_cells);
  for (std::size_t i = 0; i < orig.size(); ++i)
    want[orig.cells()[i]].push_back(orig.ids()[i]);

  std::vector<std::vector<std::int64_t>> got(num_cells);
  for (std::size_t i = 0; i < store.size(); ++i)
    got[store.cells()[i]].push_back(store.ids()[i]);
  for (std::int32_t c = 0; c < num_cells; ++c)
    EXPECT_EQ(got[c], want[c]) << "cell " << c;
}

TEST(ParticleSort, SortIsIdempotentAndPreservesMultiset) {
  const std::int32_t num_cells = 9;
  ParticleStore store = make_store(64, num_cells);
  const ParticleStore orig = store;
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);
  const ParticleStore once = store;
  store.sort_by_cell(num_cells, scratch);

  // Second sort is the identity on an already-sorted store.
  ASSERT_EQ(store.size(), once.size());
  for (std::size_t i = 0; i < store.size(); ++i)
    expect_same_particle(store, i, once.record(i));

  // Same particles as before sorting, found via id.
  std::vector<std::size_t> slot_of(orig.size());
  for (std::size_t i = 0; i < store.size(); ++i)
    slot_of[static_cast<std::size_t>(store.ids()[i])] = i;
  for (std::size_t i = 0; i < orig.size(); ++i)
    expect_same_particle(store, slot_of[i], orig.record(i));
}

TEST(ParticleSort, SortCarriesRemovalFlags) {
  const std::int32_t num_cells = 4;
  ParticleStore store = make_store(50, num_cells);
  std::vector<std::uint8_t> flags(store.size(), 0);
  // Flag the particles with id divisible by 5.
  for (std::size_t i = 0; i < store.size(); ++i)
    if (store.ids()[i] % 5 == 0) flags[i] = 1;

  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch, flags);
  for (std::size_t i = 0; i < store.size(); ++i)
    EXPECT_EQ(flags[i], store.ids()[i] % 5 == 0 ? 1 : 0) << "slot " << i;
}

TEST(ParticleSort, EmptyStoreAndSingleCellAreNoOps) {
  SortScratch scratch;
  ParticleStore empty;
  empty.sort_by_cell(3, scratch);
  EXPECT_TRUE(empty.empty());

  ParticleStore one_cell = make_store(20, 1);
  const ParticleStore orig = one_cell;
  one_cell.sort_by_cell(1, scratch);
  ASSERT_EQ(one_cell.size(), orig.size());
  for (std::size_t i = 0; i < orig.size(); ++i)
    expect_same_particle(one_cell, i, orig.record(i));
}

// remove_flagged must preserve survivor order — the sort's invariance proof
// leans on every compaction in the pipeline being stable.
TEST(ParticleSort, RemoveFlaggedIsStable) {
  ParticleStore store = make_store(40, 3);
  const ParticleStore orig = store;
  std::vector<std::uint8_t> flags(store.size(), 0);
  for (std::size_t i = 0; i < store.size(); i += 3) flags[i] = 1;

  const std::size_t removed = store.remove_flagged(flags);
  EXPECT_EQ(removed, 14u);  // ceil(40 / 3)
  ASSERT_EQ(store.size(), orig.size() - removed);

  std::size_t k = 0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (i % 3 == 0) continue;
    expect_same_particle(store, k, orig.record(i));
    ++k;
  }
}

TEST(ParticleSort, CheckpointRoundTripsSortedSoALayout) {
  const std::int32_t num_cells = 8;
  ParticleStore store = make_store(77, num_cells);
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);

  std::stringstream ss;
  io::Writer w(ss);
  w(store);
  ParticleStore loaded;
  io::Reader r(ss);
  r(loaded);

  ASSERT_EQ(loaded.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i)
    expect_same_particle(loaded, i, store.record(i));
}

// The canonical per-cell traversal order is ascending particle id, NOT
// store slot: slots are memory-layout history (a particle changing cell
// intra-rank keeps its slot), ids are layout-independent. Build a store
// whose slot order disagrees with id order and check the index ignores it.
TEST(ParticleSort, CellIndexSortsEachCellById) {
  const std::int32_t num_cells = 4;
  ParticleStore store;
  Rng rng(29);
  const std::size_t n = 60;
  for (std::size_t i = 0; i < n; ++i) {
    ParticleRecord p;
    const double d = static_cast<double>(i);
    p.position = {d, d, d};
    p.velocity = {-d, -d, -d};
    p.id = static_cast<std::int64_t>(n - 1 - i);  // descending in slot order
    p.species = 0;
    p.cell = static_cast<std::int32_t>(rng.next_u64() %
                                       static_cast<std::uint64_t>(num_cells));
    store.add(p);
  }

  const CellIndex index(store, num_cells);
  std::size_t seen = 0;
  for (std::int32_t c = 0; c < num_cells; ++c) {
    const auto parts = index.particles_in(c);
    for (std::size_t k = 0; k < parts.size(); ++k) {
      EXPECT_EQ(store.cells()[parts[k]], c);
      if (k > 0) {
        EXPECT_LT(store.ids()[parts[k - 1]], store.ids()[parts[k]])
            << "cell " << c << " item " << k;
      }
    }
    seen += parts.size();
  }
  EXPECT_EQ(seen, n);
}

TEST(ParticleSort, CellIndexSpansAreContiguousAfterSort) {
  const std::int32_t num_cells = 5;
  ParticleStore store = make_store(90, num_cells);
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);

  const CellIndex index(store, num_cells);
  std::int32_t next = 0;
  for (std::int32_t c = 0; c < num_cells; ++c) {
    const auto parts = index.particles_in(c);
    for (const std::int32_t p : parts) EXPECT_EQ(p, next++);
  }
  EXPECT_EQ(next, static_cast<std::int32_t>(store.size()));
}

}  // namespace
}  // namespace dsmcpic::dsmc
