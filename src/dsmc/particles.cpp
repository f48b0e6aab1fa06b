#include "dsmc/particles.hpp"

#include <numeric>

namespace dsmcpic::dsmc {

void ParticleStore::reserve(std::size_t n) {
  px_.reserve(n);
  py_.reserve(n);
  pz_.reserve(n);
  vx_.reserve(n);
  vy_.reserve(n);
  vz_.reserve(n);
  id_.reserve(n);
  species_.reserve(n);
  cell_.reserve(n);
}

void ParticleStore::clear() {
  px_.clear();
  py_.clear();
  pz_.clear();
  vx_.clear();
  vy_.clear();
  vz_.clear();
  id_.clear();
  species_.clear();
  cell_.clear();
}

std::size_t ParticleStore::add(const ParticleRecord& p) {
  px_.push_back(p.position.x);
  py_.push_back(p.position.y);
  pz_.push_back(p.position.z);
  vx_.push_back(p.velocity.x);
  vy_.push_back(p.velocity.y);
  vz_.push_back(p.velocity.z);
  id_.push_back(p.id);
  species_.push_back(p.species);
  cell_.push_back(p.cell);
  return px_.size() - 1;
}

ParticleRecord ParticleStore::record(std::size_t i) const {
  DSMCPIC_CHECK(i < size());
  return {position(i), velocity(i), id_[i], species_[i], cell_[i]};
}

void ParticleStore::remove_swap(std::size_t i) {
  DSMCPIC_CHECK(i < size());
  const std::size_t last = size() - 1;
  if (i != last) {
    px_[i] = px_[last];
    py_[i] = py_[last];
    pz_[i] = pz_[last];
    vx_[i] = vx_[last];
    vy_[i] = vy_[last];
    vz_[i] = vz_[last];
    id_[i] = id_[last];
    species_[i] = species_[last];
    cell_[i] = cell_[last];
  }
  px_.pop_back();
  py_.pop_back();
  pz_.pop_back();
  vx_.pop_back();
  vy_.pop_back();
  vz_.pop_back();
  id_.pop_back();
  species_.pop_back();
  cell_.pop_back();
}

std::size_t ParticleStore::remove_flagged(std::span<const std::uint8_t> flags) {
  DSMCPIC_CHECK(flags.size() == size());
  std::size_t out = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (flags[i]) continue;
    if (out != i) {
      px_[out] = px_[i];
      py_[out] = py_[i];
      pz_[out] = pz_[i];
      vx_[out] = vx_[i];
      vy_[out] = vy_[i];
      vz_[out] = vz_[i];
      id_[out] = id_[i];
      species_[out] = species_[i];
      cell_[out] = cell_[i];
    }
    ++out;
  }
  const std::size_t removed = size() - out;
  px_.resize(out);
  py_.resize(out);
  pz_.resize(out);
  vx_.resize(out);
  vy_.resize(out);
  vz_.resize(out);
  id_.resize(out);
  species_.resize(out);
  cell_.resize(out);
  return removed;
}

void ParticleStore::apply_gather(std::span<const std::int32_t> gather,
                                 SortScratch& scratch,
                                 std::span<std::uint8_t> flags) {
  const std::size_t n = size();
  DSMCPIC_CHECK(gather.size() == n);
  DSMCPIC_CHECK(flags.empty() || flags.size() == n);
  for (const std::int32_t g : gather)
    DSMCPIC_CHECK_MSG(g >= 0 && static_cast<std::size_t>(g) < n,
                      "gather index " << g << " out of range");
  // Ping-pong: gather into the scratch buffer, then swap it in; the old
  // storage becomes the scratch for the next component, so steady-state
  // sorts allocate nothing.
  const auto permute = [&gather, n](auto& vec, auto& tmp) {
    tmp.resize(n);
    for (std::size_t k = 0; k < n; ++k)
      tmp[k] = vec[static_cast<std::size_t>(gather[k])];
    vec.swap(tmp);
  };
  permute(px_, scratch.dbl);
  permute(py_, scratch.dbl);
  permute(pz_, scratch.dbl);
  permute(vx_, scratch.dbl);
  permute(vy_, scratch.dbl);
  permute(vz_, scratch.dbl);
  permute(id_, scratch.i64);
  permute(species_, scratch.i32);
  permute(cell_, scratch.i32);
  if (!flags.empty()) {
    scratch.u8.resize(n);
    for (std::size_t k = 0; k < n; ++k)
      scratch.u8[k] = flags[static_cast<std::size_t>(gather[k])];
    for (std::size_t k = 0; k < n; ++k) flags[k] = scratch.u8[k];
  }
}

void ParticleStore::sort_by_cell(std::int32_t num_cells, SortScratch& scratch,
                                 std::span<std::uint8_t> flags) {
  const std::size_t n = size();
  if (n == 0) return;
  // Counting sort by cell, stable within each cell. This is a pure memory-
  // layout operation: traversal semantics are owned by CellIndex, whose
  // per-cell lists are canonicalized by particle id regardless of how the
  // store is arranged.
  scratch.start.assign(static_cast<std::size_t>(num_cells) + 1, 0);
  for (const std::int32_t c : cell_) {
    DSMCPIC_CHECK_MSG(c >= 0 && c < num_cells,
                      "particle in invalid cell " << c);
    ++scratch.start[static_cast<std::size_t>(c) + 1];
  }
  for (std::int32_t c = 0; c < num_cells; ++c)
    scratch.start[static_cast<std::size_t>(c) + 1] +=
        scratch.start[static_cast<std::size_t>(c)];
  scratch.cursor.assign(scratch.start.begin(), scratch.start.end() - 1);
  scratch.gather.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    scratch.gather[static_cast<std::size_t>(scratch.cursor[cell_[i]]++)] =
        static_cast<std::int32_t>(i);
  apply_gather(scratch.gather, scratch, flags);
}

std::int64_t ParticleStore::count_species(std::int32_t species_id) const {
  std::int64_t n = 0;
  for (std::int32_t s : species_)
    if (s == species_id) ++n;
  return n;
}

CellIndex::CellIndex(const ParticleStore& store, std::int32_t num_cells) {
  rebuild(store, num_cells);
}

void CellIndex::rebuild(const ParticleStore& store, std::int32_t num_cells) {
  build_cell_order(store.cells(), store.ids(), num_cells,
                   [](std::size_t) { return true; }, start_, items_, scratch_);
}

void CellIndex::gather_store(ParticleStore& store, SortScratch& scratch,
                             std::span<std::uint8_t> flags) {
  DSMCPIC_CHECK(items_.size() == store.size());
  store.apply_gather(items_, scratch, flags);
  std::iota(items_.begin(), items_.end(), 0);
}

}  // namespace dsmcpic::dsmc
