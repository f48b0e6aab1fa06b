#include "dsmc/sampling.hpp"

#include <cmath>

namespace dsmcpic::dsmc {

CellSampler::CellSampler(const mesh::TetMesh& grid, const SpeciesTable& table)
    : grid_(&grid), table_(&table) {
  const auto ns = static_cast<std::size_t>(table.size());
  const auto nc = static_cast<std::size_t>(grid.num_tets());
  moments_.assign(ns, Moments{std::vector<double>(nc, 0.0),
                              std::vector<Vec3>(nc),
                              std::vector<double>(nc, 0.0)});
}

void CellSampler::sample(const ParticleStore& store) {
  begin_snapshot();
  accumulate(store);
}

void CellSampler::accumulate(const ParticleStore& store) {
  const auto cells = store.cells();
  const auto species = store.species();
  const auto vx = store.vx(), vy = store.vy(), vz = store.vz();
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto s = static_cast<std::size_t>(species[i]);
    const auto c = static_cast<std::size_t>(cells[i]);
    const Vec3 v{vx[i], vy[i], vz[i]};
    Moments& m = moments_[s];
    m.count[c] += 1.0;
    m.vel_sum[c] += v;
    m.vel2_sum[c] += v.norm2();
  }
}

void CellSampler::reset() {
  samples_ = 0;
  for (Moments& m : moments_) {
    std::fill(m.count.begin(), m.count.end(), 0.0);
    std::fill(m.vel_sum.begin(), m.vel_sum.end(), Vec3{});
    std::fill(m.vel2_sum.begin(), m.vel2_sum.end(), 0.0);
  }
}

std::vector<double> CellSampler::number_density(std::int32_t species) const {
  const std::vector<double>& count =
      moments_[static_cast<std::size_t>(species)].count;
  const double fnum = (*table_)[species].fnum;
  std::vector<double> out(count.size(), 0.0);
  if (samples_ == 0) return out;
  for (std::size_t c = 0; c < out.size(); ++c)
    out[c] = count[c] * fnum /
             (grid_->volume(static_cast<std::int32_t>(c)) *
              static_cast<double>(samples_));
  return out;
}

std::vector<Vec3> CellSampler::mean_velocity(std::int32_t species) const {
  const Moments& m = moments_[static_cast<std::size_t>(species)];
  std::vector<Vec3> out(m.count.size());
  for (std::size_t c = 0; c < out.size(); ++c)
    if (m.count[c] > 0.0) out[c] = m.vel_sum[c] / m.count[c];
  return out;
}

std::vector<double> CellSampler::temperature(std::int32_t species) const {
  const Moments& m = moments_[static_cast<std::size_t>(species)];
  const double mass = (*table_)[species].mass;
  std::vector<double> out(m.count.size(), 0.0);
  for (std::size_t c = 0; c < out.size(); ++c) {
    const double n = m.count[c];
    if (n < 2.0) continue;
    const Vec3 vbar = m.vel_sum[c] / n;
    const double v2bar = m.vel2_sum[c] / n;
    const double var = std::max(0.0, v2bar - vbar.norm2());
    // 3/2 kB T = 1/2 m <c^2>  (peculiar speed variance over 3 dof)
    out[c] = mass * var / (3.0 * constants::kBoltzmann);
  }
  return out;
}

void CellSampler::merge(const CellSampler& other) {
  DSMCPIC_CHECK(moments_.size() == other.moments_.size());
  samples_ = std::max(samples_, other.samples_);
  for (std::size_t s = 0; s < moments_.size(); ++s) {
    Moments& m = moments_[s];
    const Moments& o = other.moments_[s];
    DSMCPIC_CHECK(m.count.size() == o.count.size());
    for (std::size_t c = 0; c < m.count.size(); ++c) {
      m.count[c] += o.count[c];
      m.vel_sum[c] += o.vel_sum[c];
      m.vel2_sum[c] += o.vel2_sum[c];
    }
  }
}

std::vector<double> axis_profile(const mesh::TetMesh& grid,
                                 std::span<const double> cell_field,
                                 double length, int npoints) {
  DSMCPIC_CHECK(npoints >= 2);
  DSMCPIC_CHECK(static_cast<std::int32_t>(cell_field.size()) ==
                grid.num_tets());
  std::vector<double> out(npoints, 0.0);
  std::int32_t hint = 0;
  for (int k = 0; k < npoints; ++k) {
    // Keep strictly inside the domain (avoid the exact end planes).
    const double z =
        length * (static_cast<double>(k) + 0.5) / static_cast<double>(npoints);
    const std::int32_t cell = grid.locate({0.0, 0.0, z}, hint);
    if (cell >= 0) {
      out[k] = cell_field[cell];
      hint = cell;
    }
  }
  return out;
}

std::vector<double> rz_map(const mesh::TetMesh& grid,
                           std::span<const double> cell_field, double radius,
                           double length, int nr, int nz) {
  DSMCPIC_CHECK(nr >= 1 && nz >= 1);
  DSMCPIC_CHECK(static_cast<std::int32_t>(cell_field.size()) ==
                grid.num_tets());
  std::vector<double> value(static_cast<std::size_t>(nr) * nz, 0.0);
  std::vector<double> weight(value.size(), 0.0);
  for (std::int32_t t = 0; t < grid.num_tets(); ++t) {
    const Vec3& c = grid.centroid(t);
    const double r = std::hypot(c.x, c.y);
    const int ir = std::min(nr - 1, static_cast<int>(r / radius * nr));
    const int iz = std::min(nz - 1, static_cast<int>(c.z / length * nz));
    if (ir < 0 || iz < 0) continue;
    const std::size_t bin = static_cast<std::size_t>(iz) * nr + ir;
    value[bin] += cell_field[t] * grid.volume(t);
    weight[bin] += grid.volume(t);
  }
  for (std::size_t i = 0; i < value.size(); ++i)
    if (weight[i] > 0.0) value[i] /= weight[i];
  return value;
}

}  // namespace dsmcpic::dsmc
