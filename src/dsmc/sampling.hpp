#pragma once
// Flow-field sampling: per-cell number density / velocity / temperature
// moments, and the central-axis density profile used by the paper's
// validation experiment (Fig. 8/9).

#include <cstdint>
#include <span>
#include <vector>

#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "mesh/tetmesh.hpp"
#include "support/error.hpp"

namespace dsmcpic::dsmc {

/// Accumulates per-cell, per-species moments across timesteps.
class CellSampler {
 public:
  CellSampler(const mesh::TetMesh& grid, const SpeciesTable& table);

  /// Accumulates one snapshot of a single store (serial use).
  void sample(const ParticleStore& store);

  /// Multi-store snapshot: one time sample spread over per-rank stores.
  /// begin_snapshot() advances the sample counter once; accumulate() adds a
  /// store's particles without advancing it.
  void begin_snapshot() { ++samples_; }
  void accumulate(const ParticleStore& store);

  void reset();
  std::int64_t num_samples() const { return samples_; }

  /// Time-averaged number density [1/m^3] of a species per cell.
  std::vector<double> number_density(std::int32_t species) const;

  /// Time-averaged mean velocity per cell (zero where no particles seen).
  std::vector<Vec3> mean_velocity(std::int32_t species) const;

  /// Time-averaged translational temperature [K] per cell.
  std::vector<double> temperature(std::int32_t species) const;

  /// Merges another sampler's accumulators (for combining rank-local
  /// samplers); both must be built over the same grid/species.
  void merge(const CellSampler& other);

  /// Checkpoint fields: the accumulators.
  template <class Ar>
  void persist(Ar& ar) {
    ar(samples_, moments_);
    if constexpr (Ar::kLoading) {
      const auto nc = static_cast<std::size_t>(grid_->num_tets());
      DSMCPIC_CHECK_MSG(moments_.size() == static_cast<std::size_t>(table_->size()),
                        "checkpoint species count mismatch");
      for (const Moments& m : moments_)
        DSMCPIC_CHECK_MSG(m.count.size() == nc && m.vel_sum.size() == nc &&
                              m.vel2_sum.size() == nc,
                          "checkpoint sampler cell count mismatch");
    }
  }

 private:
  /// One species' per-cell accumulators.
  struct Moments {
    std::vector<double> count;
    std::vector<Vec3> vel_sum;
    std::vector<double> vel2_sum;
    template <class Ar>
    void persist(Ar& ar) {
      ar(count, vel_sum, vel2_sum);
    }
  };

  const mesh::TetMesh* grid_;
  const SpeciesTable* table_;
  std::int64_t samples_ = 0;
  std::vector<Moments> moments_;  // per species
};

/// Samples a per-cell field along the cylinder axis (0,0,z), z in
/// [0, length]: returns `npoints` values; points outside the mesh get 0.
std::vector<double> axis_profile(const mesh::TetMesh& grid,
                                 std::span<const double> cell_field,
                                 double length, int npoints);

/// Axisymmetric (r, z) map of a per-cell field: volume-weighted average of
/// the field over the cells whose centroids fall in each (r, z) bin —
/// the quantity behind the paper's Fig. 8 number-density contours.
/// Returns row-major [iz * nr + ir]; empty bins get 0.
std::vector<double> rz_map(const mesh::TetMesh& grid,
                           std::span<const double> cell_field, double radius,
                           double length, int nr, int nz);

}  // namespace dsmcpic::dsmc
