#pragma once
// Binary collisions with Bird's No-Time-Counter (NTC) pair selection and the
// Variable Hard Sphere (VHS) cross-section model (paper Sec. III-B,
// Colli_React; Bird 1994). Reactions are delegated to the Chemistry hook on
// the accept path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "dsmc/chemistry.hpp"
#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "mesh/tetmesh.hpp"
#include "support/error.hpp"
#include "support/kernel_exec.hpp"
#include "support/rng.hpp"

namespace dsmcpic::dsmc {

struct CollisionConfig {
  std::uint64_t seed = 0xb5297a4dULL;
  /// Initial per-cell majorant (sigma * c_r)_max [m^3/s]; adapts upward.
  double initial_sigma_cr_max = 1e-15;
};

struct CollisionStats {
  std::int64_t candidates = 0;  // NTC candidate pairs examined
  std::int64_t collisions = 0;  // accepted (elastic or reactive)
  std::int64_t ionizations = 0;
  std::int64_t charge_exchanges = 0;  // CEX events (H+/H identity swaps)
};

/// VHS total cross section for a colliding pair with relative speed c_r.
double vhs_cross_section(const Species& a, const Species& b, double c_r);

/// Reusable per-rank scratch for collide_cells: one spawned-ion buffer per
/// chunk (merged into the store in chunk = cell order after the sweep),
/// plus the per-cell candidate weights and chunk boundaries of the
/// cost-balanced chunk plan. Capacities persist across steps so chunking
/// allocates nothing in steady state.
struct CollideScratch {
  std::vector<std::vector<ParticleRecord>> spawned;
  std::vector<double> weight;        // expected NTC candidates per cell
  std::vector<std::int64_t> bounds;  // chunk boundaries into my_cells
};

class CollisionKernel {
 public:
  CollisionKernel(const mesh::TetMesh& grid, const SpeciesTable& table,
                  CollisionConfig cfg, Chemistry* chemistry = nullptr);

  /// Performs NTC collisions (and reactions) in each cell of `my_cells`.
  /// `index` must be freshly built for `store`. New particles appended by
  /// chemistry are NOT collision partners this step (standard practice).
  /// With `exec`, the cell list is split into contiguous chunks sized by
  /// the measured per-cell expected candidate counts (so one dense cell
  /// block cannot serialize the sweep), and dispatch falls back to a
  /// single inline chunk when the balanced plan cannot cover the thread
  /// pool — small chunk counts lose to pool dispatch overhead outright.
  /// Every per-cell quantity (majorant, carry, RNG stream) is keyed by
  /// cell, so the result is bit-identical to serial for ANY chunk plan.
  /// `scratch` (optional) carries the spawn/plan buffers across steps.
  CollisionStats collide_cells(ParticleStore& store, const CellIndex& index,
                               std::span<const std::int32_t> my_cells,
                               double dt, int step,
                               const support::KernelExec* exec = nullptr,
                               CollideScratch* scratch = nullptr);

  /// Cached-constant VHS sigma for species pair (si, sj): bit-identical to
  /// vhs_cross_section but with the pair-averaged reference values, reduced
  /// mass and Gamma(5/2 - omega) precomputed per pair at construction.
  double vhs_sigma(std::int32_t si, std::int32_t sj, double c_r) const {
    const VhsPair& p = vhs_pairs_[static_cast<std::size_t>(si) * num_species_ +
                                  static_cast<std::size_t>(sj)];
    const double c2 = std::max(c_r * c_r, 1e-30);
    const double ratio = p.two_kb_tref / (p.m_r * c2);
    return p.pi_d2 * std::pow(ratio, p.omega_mhalf) / p.gamma;
  }

  /// Checkpoint fields: the adaptive per-cell state.
  template <class Ar>
  void persist(Ar& ar) {
    ar(sigma_cr_max_, candidate_carry_);
    if constexpr (Ar::kLoading)
      DSMCPIC_CHECK_MSG(
          sigma_cr_max_.size() == static_cast<std::size_t>(grid_->num_tets()) &&
              candidate_carry_.size() == sigma_cr_max_.size(),
          "checkpoint cell count mismatch");
  }

 private:
  /// Cost-balanced chunk plan: fills scr.bounds with a contiguous partition
  /// of my_cells whose chunks carry roughly equal expected NTC candidate
  /// counts (0.5 n(n-1) fnum_mean majorant dt / V + carry per cell — the
  /// same expression the sweep evaluates, read-only). Returns the chunk
  /// count; 1 means "run serial" (the balanced plan could not produce at
  /// least one chunk per thread, so pool dispatch would only add overhead).
  /// Chunk boundaries never affect results — cells are independent — so
  /// the plan may depend on the thread count freely.
  int plan_chunks(const ParticleStore& store, const CellIndex& index,
                  std::span<const std::int32_t> my_cells, double dt,
                  int threads, CollideScratch& scr) const;

  /// Per-species-pair VHS constants, precomputed so the hot loop avoids
  /// std::tgamma and the pair-parameter averaging per candidate.
  struct VhsPair {
    double pi_d2;        // M_PI * d * d (pair-averaged d)
    double omega_mhalf;  // omega - 0.5
    double two_kb_tref;  // 2 kB * t_ref
    double m_r;          // reduced mass
    double gamma;        // tgamma(2.5 - omega)
  };

  const mesh::TetMesh* grid_;
  const SpeciesTable* table_;
  CollisionConfig cfg_;
  Chemistry* chemistry_;
  std::size_t num_species_ = 0;
  std::vector<VhsPair> vhs_pairs_;  // num_species^2, row-major
  std::vector<double> sigma_cr_max_;  // per cell, persists across steps
  std::vector<double> candidate_carry_;  // fractional NTC candidates per cell
};

}  // namespace dsmcpic::dsmc
