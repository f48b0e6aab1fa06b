#pragma once
// Cell-major traversal order: the one order builder behind CellIndex and the
// PIC deposit (DESIGN.md §2g). It groups particle slots by owning coarse cell
// (ascending) and, within each cell, by ascending particle id — the
// canonical per-cell order, because ids are layout-independent while store
// slots are layout history.
//
// The result equals "counting sort by cell, then std::stable_sort by id
// within each cell" exactly, ties (equal ids) included: tied slots stay in
// ascending slot order. It gets there in linear time per cell:
//   - a counting pass by cell, which leaves each cell in ascending slot order;
//   - per cell: nothing if its ids already ascend, an insertion sort for
//     small cells, and otherwise a stable LSD radix on (id - min id in the
//     cell), keys carried inline next to the slot, skipping every digit that
//     all keys of the cell share.
// The radix runs per cell, never over the whole store: injector ids are
// (facet+1) << 32 | seq and spawned-ion ids are 63-bit random, so a store's
// id range spans up to 63 bits, while a cell's range is usually narrow.

#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace dsmcpic::dsmc {

/// Reusable scratch of build_cell_order: the radix ping-pong buffers, sized
/// to the largest radix-sorted cell, not to the store. Owned by the caller —
/// never static — so rank bodies running concurrently each sort with their
/// own buffers.
struct CellOrderScratch {
  struct KeyedSlot {
    std::uint64_t key;  // id - min id of the cell
    std::int32_t slot;
  };
  std::vector<KeyedSlot> keyed, keyed_tmp;
};

/// Cells with at most this many particles are insertion-sorted; larger
/// unsorted cells take the radix path, whose per-cell histogram work would
/// dominate below this size.
inline constexpr std::int64_t kCellOrderInsertionCutoff = 64;

/// Stage two of build_cell_order on its own: stably sorts each cell's range
/// items[start[c], start[c + 1]) by ascending ids[slot].
void sort_cells_by_id(std::span<const std::int64_t> start,
                      std::span<std::int32_t> items,
                      std::span<const std::int64_t> ids,
                      CellOrderScratch& scratch);

/// Fills `start` (num_cells + 1 prefix sums) and `items` with every slot i
/// for which keep(i) holds, cell-major (ascending cells[i]) and, within a
/// cell, by ascending ids[i] with ties in ascending slot order. Every kept
/// slot's cell must lie in [0, num_cells).
template <class Keep>
void build_cell_order(std::span<const std::int32_t> cells,
                      std::span<const std::int64_t> ids,
                      std::int32_t num_cells, Keep&& keep,
                      std::vector<std::int64_t>& start,
                      std::vector<std::int32_t>& items,
                      CellOrderScratch& scratch) {
  DSMCPIC_CHECK(cells.size() == ids.size());
  const std::size_t n = cells.size();
  start.assign(static_cast<std::size_t>(num_cells) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep(i)) continue;
    const std::int32_t c = cells[i];
    DSMCPIC_CHECK_MSG(c >= 0 && c < num_cells, "particle in invalid cell " << c);
    ++start[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  items.resize(static_cast<std::size_t>(start.back()));
  if (items.empty()) return;
  // Fill with start[c] as cell c's cursor: afterwards start[c] is where
  // cell c + 1 begins, so shifting the array up one slot restores it.
  for (std::size_t i = 0; i < n; ++i)
    if (keep(i))
      items[static_cast<std::size_t>(start[cells[i]]++)] =
          static_cast<std::int32_t>(i);
  for (std::size_t c = start.size() - 1; c > 0; --c) start[c] = start[c - 1];
  start[0] = 0;
  sort_cells_by_id(start, items, ids, scratch);
}

}  // namespace dsmcpic::dsmc
