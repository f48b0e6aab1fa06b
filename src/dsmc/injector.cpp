#include "dsmc/injector.hpp"

#include <cmath>

#include "dsmc/maxwell.hpp"

namespace dsmcpic::dsmc {

double InjectionSpec::inflow_modulation(int step) const {
  if (pulse_amplitude == 0.0 || pulse_period <= 0) return 1.0;
  const double s =
      1.0 + pulse_amplitude * std::sin(2.0 * M_PI * step / pulse_period);
  return s > 0.0 ? s : 0.0;
}

MaxwellianInjector::MaxwellianInjector(const mesh::TetMesh& grid,
                                       mesh::BoundaryKind kind,
                                       InjectionSpec spec, std::uint64_t seed)
    : grid_(&grid), spec_(spec), seed_(seed), faces_(grid.boundary_faces(kind)) {
  DSMCPIC_CHECK_MSG(!faces_.empty(), "no boundary faces of requested kind");
  area_.reserve(faces_.size());
  inward_.reserve(faces_.size());
  for (const auto& bf : faces_) {
    area_.push_back(grid.face_area(bf.tet, bf.face));
    inward_.push_back(-grid.face_normal(bf.tet, bf.face));  // into the domain
  }
  remainder_.assign(faces_.size(), 0.0);
  seq_.assign(faces_.size(), 0);
}

double MaxwellianInjector::expected_per_step(const SpeciesTable& table,
                                             double dt) const {
  const Species& sp = table[spec_.species];
  const double flux = spec_.number_density *
                      maxwellian_flux_factor(spec_.drift_speed,
                                             spec_.temperature, sp.mass);
  double total_area = 0.0;
  for (double a : area_) total_area += a;
  return flux * total_area * dt / sp.fnum;
}

std::int64_t MaxwellianInjector::inject(ParticleStore& store,
                                        const SpeciesTable& table, double dt,
                                        int step,
                                        std::span<const std::int32_t> cell_owner,
                                        int my_rank) {
  return inject_filtered(store, table, dt, step, [&](std::size_t f) {
    return cell_owner[faces_[f].tet] == my_rank;
  });
}

void MaxwellianInjector::begin_step(const SpeciesTable& table, double dt,
                                    int step) {
  const Species& sp = table[spec_.species];
  double flux_per_area =
      spec_.number_density *
      maxwellian_flux_factor(spec_.drift_speed, spec_.temperature, sp.mass) /
      sp.fnum;
  const double mod = spec_.inflow_modulation(step);
  if (mod != 1.0) flux_per_area *= mod;
  step_count_.resize(faces_.size());
  step_seq_base_.resize(faces_.size());
  for (std::size_t f = 0; f < faces_.size(); ++f) {
    const double expected = flux_per_area * area_[f] * dt + remainder_[f];
    const auto count =
        std::max<std::int64_t>(0, static_cast<std::int64_t>(std::floor(expected)));
    remainder_[f] = expected - static_cast<double>(count);
    step_count_[f] = count;
    step_seq_base_[f] = seq_[f];
    seq_[f] += count;
  }
  prepared_step_ = step;
}

std::int64_t MaxwellianInjector::inject_shard(ParticleStore& store,
                                              const SpeciesTable& table,
                                              int shard, int nshards) {
  DSMCPIC_CHECK_MSG(prepared_step_ >= 0, "begin_step() not called");
  DSMCPIC_CHECK(shard >= 0 && shard < nshards);
  const Species& sp = table[spec_.species];
  const double sigma =
      std::sqrt(constants::kBoltzmann * spec_.temperature / sp.mass);

  std::int64_t injected = 0;
  for (std::size_t f = 0; f < faces_.size(); ++f) {
    const std::int64_t count = step_count_[f];
    // Rotate the shard assignment per face so the 1-2 leftover particles of
    // each face land on different ranks (otherwise low rank ids collect one
    // particle from every face and become the Inject stragglers at high
    // rank counts).
    const int rot = static_cast<int>(
        (static_cast<std::uint64_t>(shard) + f * 7919u) %
        static_cast<std::uint64_t>(nshards));
    const std::int64_t lo = rot * count / nshards;
    const std::int64_t hi = (rot + 1) * count / nshards;
    if (lo >= hi) continue;

    const auto& bf = faces_[f];
    const auto fn = grid_->face_nodes(bf.tet, bf.face);
    const Vec3& a = grid_->node(fn[0]);
    const Vec3& b = grid_->node(fn[1]);
    const Vec3& c = grid_->node(fn[2]);
    const Vec3& n_in = inward_[f];
    Vec3 t1, t2;
    tangent_frame(n_in, t1, t2);
    const std::uint64_t face_seed = derive_stream_seed(seed_, f);

    for (std::int64_t k = lo; k < hi; ++k) {
      // Per-particle substream: identical regardless of the shard count.
      Rng rng(face_seed,
              (static_cast<std::uint64_t>(prepared_step_) << 32) ^
                  static_cast<std::uint64_t>(k));
      const double r1 = std::sqrt(rng.uniform());
      const double r2 = rng.uniform();
      const Vec3 pos = a * (1.0 - r1) + b * (r1 * (1.0 - r2)) + c * (r1 * r2);
      const double vn = sample_inflow_normal_speed(
          rng, spec_.drift_speed, spec_.temperature, sp.mass);
      ParticleRecord p;
      p.position = pos + n_in * 1e-12;
      p.velocity =
          n_in * vn + t1 * rng.normal(0.0, sigma) + t2 * rng.normal(0.0, sigma);
      p.species = spec_.species;
      p.cell = bf.tet;
      p.id = (static_cast<std::int64_t>(f + 1) << 32) | (step_seq_base_[f] + k);
      store.add(p);
      ++injected;
    }
  }
  return injected;
}

template <typename FaceFilter>
std::int64_t MaxwellianInjector::inject_filtered(ParticleStore& store,
                                                 const SpeciesTable& table,
                                                 double dt, int step,
                                                 const FaceFilter& mine) {
  const Species& sp = table[spec_.species];
  double flux_per_area =
      spec_.number_density *
      maxwellian_flux_factor(spec_.drift_speed, spec_.temperature, sp.mass) /
      sp.fnum;
  const double mod = spec_.inflow_modulation(step);
  if (mod != 1.0) flux_per_area *= mod;

  std::int64_t injected = 0;
  for (std::size_t f = 0; f < faces_.size(); ++f) {
    const auto& bf = faces_[f];
    if (!mine(f)) continue;

    const double expected = flux_per_area * area_[f] * dt + remainder_[f];
    const auto count = static_cast<std::int64_t>(std::floor(expected));
    remainder_[f] = expected - static_cast<double>(count);
    if (count <= 0) continue;

    // Per-(face, step) stream: deterministic regardless of decomposition.
    Rng rng(derive_stream_seed(seed_, f), static_cast<std::uint64_t>(step));
    const auto fn = grid_->face_nodes(bf.tet, bf.face);
    const Vec3& a = grid_->node(fn[0]);
    const Vec3& b = grid_->node(fn[1]);
    const Vec3& c = grid_->node(fn[2]);
    const Vec3& n_in = inward_[f];
    Vec3 t1, t2;
    tangent_frame(n_in, t1, t2);
    const double sigma =
        std::sqrt(constants::kBoltzmann * spec_.temperature / sp.mass);

    for (std::int64_t k = 0; k < count; ++k) {
      // Uniform point on the triangle.
      const double r1 = std::sqrt(rng.uniform());
      const double r2 = rng.uniform();
      const Vec3 pos = a * (1.0 - r1) + b * (r1 * (1.0 - r2)) + c * (r1 * r2);

      const double vn = sample_inflow_normal_speed(
          rng, spec_.drift_speed, spec_.temperature, sp.mass);
      const Vec3 vel =
          n_in * vn + t1 * rng.normal(0.0, sigma) + t2 * rng.normal(0.0, sigma);

      ParticleRecord p;
      // Nudge off the face so the mover starts strictly inside the tet.
      p.position = pos + n_in * 1e-12;
      p.velocity = vel;
      p.species = spec_.species;
      p.cell = bf.tet;
      p.id = (static_cast<std::int64_t>(f + 1) << 32) | seq_[f]++;
      store.add(p);
      ++injected;
    }
  }
  return injected;
}

}  // namespace dsmcpic::dsmc
