#pragma once
// Particle storage. Per-scalar structure-of-arrays for the hot loops: the
// Vec3 position/velocity fields are split into six component vectors
// (px/py/pz, vx/vy/vz) so move, Boris push, VHS candidate selection and
// deposit stream flat double arrays the compiler can vectorize
// (DESIGN.md §2g). A trivially copyable ParticleRecord remains the wire
// format used when particles migrate between ranks (DSMC_Exchange /
// PIC_Exchange payloads) — the SoA split never changes what goes over the
// wire.

#include <cstdint>
#include <span>
#include <vector>

#include "dsmc/cell_order.hpp"
#include "support/error.hpp"
#include "support/vec3.hpp"

namespace dsmcpic::dsmc {

/// Wire/record format for one particle; memcpy-serializable.
struct ParticleRecord {
  Vec3 position;
  Vec3 velocity;
  std::int64_t id = 0;
  std::int32_t species = 0;
  std::int32_t cell = -1;  // coarse-grid cell index
};
static_assert(std::is_trivially_copyable_v<ParticleRecord>);

/// Reusable scratch for ParticleStore::sort_by_cell / apply_gather: the
/// counting-sort prefix, the gather permutation, and one ping-pong buffer
/// per element type. Capacities persist across steps so the periodic cell
/// sort allocates nothing in steady state.
struct SortScratch {
  std::vector<std::int64_t> start;    // per-cell prefix sums (num_cells + 1)
  std::vector<std::int64_t> cursor;   // fill cursor per cell
  std::vector<std::int32_t> gather;   // new slot k reads old slot gather[k]
  std::vector<double> dbl;            // component ping-pong
  std::vector<std::int64_t> i64;
  std::vector<std::int32_t> i32;
  std::vector<std::uint8_t> u8;
};

class ParticleStore {
 public:
  std::size_t size() const { return px_.size(); }
  bool empty() const { return px_.empty(); }
  void reserve(std::size_t n);
  void clear();

  std::size_t add(const ParticleRecord& p);

  // Hot-loop accessors: per-scalar component arrays.
  std::span<double> px() { return px_; }
  std::span<const double> px() const { return px_; }
  std::span<double> py() { return py_; }
  std::span<const double> py() const { return py_; }
  std::span<double> pz() { return pz_; }
  std::span<const double> pz() const { return pz_; }
  std::span<double> vx() { return vx_; }
  std::span<const double> vx() const { return vx_; }
  std::span<double> vy() { return vy_; }
  std::span<const double> vy() const { return vy_; }
  std::span<double> vz() { return vz_; }
  std::span<const double> vz() const { return vz_; }
  std::span<std::int64_t> ids() { return id_; }
  std::span<const std::int64_t> ids() const { return id_; }
  std::span<std::int32_t> species() { return species_; }
  std::span<const std::int32_t> species() const { return species_; }
  std::span<std::int32_t> cells() { return cell_; }
  std::span<const std::int32_t> cells() const { return cell_; }

  // Vec3 convenience accessors (gather/scatter across the component arrays;
  // use the component spans directly in vectorized loops).
  Vec3 position(std::size_t i) const { return {px_[i], py_[i], pz_[i]}; }
  Vec3 velocity(std::size_t i) const { return {vx_[i], vy_[i], vz_[i]}; }
  void set_velocity(std::size_t i, const Vec3& v) {
    vx_[i] = v.x;
    vy_[i] = v.y;
    vz_[i] = v.z;
  }

  ParticleRecord record(std::size_t i) const;

  /// Removes particle i by swapping with the last element (O(1)); the caller
  /// must iterate accordingly (i is reused for the swapped-in particle).
  /// Not order-preserving; fine wherever traversal goes through CellIndex
  /// (which canonicalizes per-cell order by id) or order is irrelevant.
  void remove_swap(std::size_t i);

  /// Removes every particle whose flag is non-zero; preserves relative order
  /// of the survivors (stable compaction, used by Reindex). Returns the
  /// number removed.
  std::size_t remove_flagged(std::span<const std::uint8_t> flags);

  /// Reorders the store so new slot k holds old slot gather[k], for any
  /// permutation `gather` of [0, size()). `flags` (optional, same length)
  /// is permuted alongside so per-particle sidecar state stays aligned.
  void apply_gather(std::span<const std::int32_t> gather, SortScratch& scratch,
                    std::span<std::uint8_t> flags = {});

  /// Stable counting sort of the store by owning coarse cell: afterwards
  /// particles of one cell occupy a contiguous ascending range and the
  /// relative order of particles WITHIN each cell (slot order, not id
  /// order) is unchanged. This is a pure memory-layout operation — per-cell
  /// traversal ORDER is owned by CellIndex, which canonicalizes by particle
  /// id — so running it changes no observable result. The solver's periodic
  /// cell sort uses CellIndex::gather_store instead, which also orders each
  /// cell by id (DESIGN.md §2g).
  void sort_by_cell(std::int32_t num_cells, SortScratch& scratch,
                    std::span<std::uint8_t> flags = {});

  /// Number of particles of one species.
  std::int64_t count_species(std::int32_t species_id) const;

  /// Checkpoint fields (component-vector layout; io::Writer/io::Reader).
  /// A read checks that the columns have one length; cell and species
  /// ranges are checked by the restoring solver, which knows them.
  template <class Ar>
  void persist(Ar& ar) {
    ar(px_, py_, pz_, vx_, vy_, vz_, id_, species_, cell_);
    if constexpr (Ar::kLoading) {
      const std::size_t n = px_.size();
      DSMCPIC_CHECK_MSG(py_.size() == n && pz_.size() == n &&
                            vx_.size() == n && vy_.size() == n &&
                            vz_.size() == n && id_.size() == n &&
                            species_.size() == n && cell_.size() == n,
                        "checkpoint particle columns differ in length");
    }
  }

 private:
  std::vector<double> px_, py_, pz_;
  std::vector<double> vx_, vy_, vz_;
  std::vector<std::int64_t> id_;
  std::vector<std::int32_t> species_;
  std::vector<std::int32_t> cell_;
};

/// Cell -> particle-index lists: every slot of the store, cell-major, and
/// within each cell by ascending particle id (ties in ascending slot
/// order) — the canonical per-cell traversal order, chosen because store
/// slots are layout history (intra-rank cell changes keep their slot) while
/// ids are layout-independent (DESIGN.md §2g). Built by build_cell_order in
/// linear time per cell.
///
/// The solver builds one index per rank per DSMC step, in Reindex, and
/// Colli_React reuses it: Reindex numbers ids in index order, so the lists
/// stay id-ascending under the new ids, and only the cell sort touches the
/// store between the two phases. On cell-sort steps gather_store() lays
/// the store out in the index's (cell, id) order, after which the items
/// are the identity and particles_in() spans are contiguous slices of
/// memory.
class CellIndex {
 public:
  CellIndex() = default;
  CellIndex(const ParticleStore& store, std::int32_t num_cells);

  /// Rebuilds the index in place. Reuses the start/items/scratch storage
  /// from previous rebuilds, so steady-state steps allocate nothing.
  void rebuild(const ParticleStore& store, std::int32_t num_cells);

  /// Reorders `store` (and `flags`, if given) so new slot k holds the
  /// particle the index lists at position k, then makes the index the
  /// identity to match. The index must have been built from `store` as it
  /// is now.
  void gather_store(ParticleStore& store, SortScratch& scratch,
                    std::span<std::uint8_t> flags = {});

  std::span<const std::int32_t> particles_in(std::int32_t cell) const {
    return {items_.data() + start_[cell],
            static_cast<std::size_t>(start_[cell + 1] - start_[cell])};
  }
  std::int32_t num_cells() const {
    return static_cast<std::int32_t>(start_.size() - 1);
  }

 private:
  std::vector<std::int64_t> start_;
  std::vector<std::int32_t> items_;
  CellOrderScratch scratch_;  // reused across rebuilds
};

}  // namespace dsmcpic::dsmc
