#include "linalg/dist.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "support/error.hpp"

namespace dsmcpic::linalg {

DistLayout DistLayout::build(int nranks, std::span<const std::int32_t> row_owner,
                             const CsrMatrix& pattern) {
  DSMCPIC_CHECK(pattern.rows() == pattern.cols());
  DSMCPIC_CHECK(static_cast<std::int32_t>(row_owner.size()) == pattern.rows());

  DistLayout l;
  l.nranks = nranks;
  l.owner.assign(row_owner.begin(), row_owner.end());
  l.owned.resize(nranks);
  l.halo.resize(nranks);

  for (std::int32_t g = 0; g < pattern.rows(); ++g) {
    DSMCPIC_CHECK_MSG(row_owner[g] >= 0 && row_owner[g] < nranks,
                      "row " << g << " has invalid owner " << row_owner[g]);
    l.owned[row_owner[g]].push_back(g);  // ascending by construction
  }

  // Halo: off-rank columns referenced by owned rows.
  const auto& rp = pattern.row_ptr();
  const auto& ci = pattern.col_idx();
  std::vector<std::vector<std::int32_t>> halo_sets(nranks);
  for (int r = 0; r < nranks; ++r) {
    auto& hs = halo_sets[r];
    for (std::int32_t g : l.owned[r])
      for (std::int64_t e = rp[g]; e < rp[g + 1]; ++e) {
        const std::int32_t c = ci[static_cast<std::size_t>(e)];
        if (row_owner[c] != r) hs.push_back(c);
      }
    std::sort(hs.begin(), hs.end());
    hs.erase(std::unique(hs.begin(), hs.end()), hs.end());
    l.halo[r] = hs;
  }

  // Owned-id -> owned-local-index per rank (owned lists are sorted).
  auto owned_index = [&l](int r, std::int32_t g) {
    const auto& o = l.owned[r];
    const auto it = std::lower_bound(o.begin(), o.end(), g);
    DSMCPIC_CHECK(it != o.end() && *it == g);
    return static_cast<std::int32_t>(it - o.begin());
  };

  // recv plans: group each rank's halo by owner; send plans mirror them.
  par::HaloPlans send_plan(nranks), recv_plan(nranks);
  std::vector<std::map<int, par::HaloPlan>> send_acc(nranks);
  for (int r = 0; r < nranks; ++r) {
    std::map<int, par::HaloPlan> recv_acc;
    for (std::size_t h = 0; h < l.halo[r].size(); ++h) {
      const std::int32_t g = l.halo[r][h];
      const int p = row_owner[g];
      auto& rplan = recv_acc[p];
      rplan.peer = p;
      rplan.idx.push_back(
          static_cast<std::int32_t>(l.owned[r].size() + h));
      auto& splan = send_acc[p][r];
      splan.peer = r;
      splan.idx.push_back(owned_index(p, g));
    }
    for (auto& [peer, plan] : recv_acc) recv_plan[r].push_back(std::move(plan));
  }
  for (int r = 0; r < nranks; ++r)
    for (auto& [peer, plan] : send_acc[r])
      send_plan[r].push_back(std::move(plan));
  l.halo_channel = par::Channel(std::move(send_plan), std::move(recv_plan));
  return l;
}

std::int32_t DistLayout::local_index(int r, std::int32_t g) const {
  const auto& o = owned[r];
  auto it = std::lower_bound(o.begin(), o.end(), g);
  if (it != o.end() && *it == g)
    return static_cast<std::int32_t>(it - o.begin());
  const auto& h = halo[r];
  it = std::lower_bound(h.begin(), h.end(), g);
  if (it != h.end() && *it == g)
    return static_cast<std::int32_t>(o.size() + (it - h.begin()));
  return -1;
}

DistMatrix DistMatrix::build(const CsrMatrix& a, DistLayout layout) {
  DistMatrix dm;
  dm.layout = std::move(layout);
  const DistLayout& l = dm.layout;
  dm.local.resize(l.nranks);
  dm.split.resize(l.nranks);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  for (int r = 0; r < l.nranks; ++r) {
    const auto nowned = static_cast<std::int32_t>(l.owned[r].size());
    auto& split = dm.split[r];
    split.resize(static_cast<std::size_t>(nowned));
    std::vector<Triplet> trips;
    for (std::int32_t row = 0; row < nowned; ++row) {
      const std::int32_t g = l.owned[r][static_cast<std::size_t>(row)];
      for (std::int64_t e = rp[g]; e < rp[g + 1]; ++e) {
        const std::int32_t c = ci[static_cast<std::size_t>(e)];
        const std::int32_t lc = l.local_index(r, c);
        DSMCPIC_CHECK_MSG(lc >= 0, "column " << c << " missing from rank " << r
                                             << " local numbering");
        DSMCPIC_CHECK_MSG((lc < nowned) == (l.owner[c] == r),
                          "rank " << r << " local numbering must put owned "
                                     "columns before halo ones");
        trips.push_back({row, lc, vals[static_cast<std::size_t>(e)]});
      }
    }
    dm.local[r] = CsrMatrix::from_triplets(nowned, l.local_size(r), trips);
    DSMCPIC_CHECK_MSG(
        dm.local[r].nnz() <= std::numeric_limits<std::int32_t>::max(),
        "rank " << r << " block has too many entries");

    // Row splits. The sweeps in dist_cg rely on from_triplets sorting each
    // row by column (checked here) and on owned columns preceding halo ones
    // (checked above).
    const auto& lrp = dm.local[r].row_ptr();
    const auto& lci = dm.local[r].col_idx();
    const auto& lv = dm.local[r].values();
    for (std::int32_t i = 0; i < nowned; ++i) {
      std::int64_t e = lrp[i];
      const std::int64_t end = lrp[i + 1];
      for (std::int64_t f = e + 1; f < end; ++f)
        DSMCPIC_CHECK_MSG(lci[static_cast<std::size_t>(f - 1)] <
                              lci[static_cast<std::size_t>(f)],
                          "rank " << r << " local row " << i
                                  << " is not sorted by column");
      // Advances e to the row's first entry whose column is >= col.
      auto skip_below = [&](std::int32_t col) {
        while (e < end && lci[static_cast<std::size_t>(e)] < col) ++e;
        return static_cast<std::int32_t>(e);
      };
      RowSplit& s = split[static_cast<std::size_t>(i)];
      s.dpos = skip_below(i);
      s.upos = skip_below(i + 1);
      s.hpos = skip_below(nowned);
      const double d =
          s.dpos < s.upos ? lv[static_cast<std::size_t>(s.dpos)] : 0.0;
      s.diag = (d == 0.0) ? 1.0 : d;
      s.inv_diag = 1.0 / s.diag;
    }
  }
  return dm;
}

DistVector scatter_vector(const DistLayout& layout, std::span<const double> v) {
  DSMCPIC_CHECK(static_cast<std::int32_t>(v.size()) == layout.num_global());
  DistVector out(layout.nranks);
  for (int r = 0; r < layout.nranks; ++r) {
    out[r].resize(layout.owned[r].size());
    for (std::size_t i = 0; i < layout.owned[r].size(); ++i)
      out[r][i] = v[layout.owned[r][i]];
  }
  return out;
}

std::vector<double> gather_vector(const DistLayout& layout, const DistVector& v) {
  std::vector<double> out(layout.num_global(), 0.0);
  for (int r = 0; r < layout.nranks; ++r) {
    DSMCPIC_CHECK(v[r].size() >= layout.owned[r].size());
    for (std::size_t i = 0; i < layout.owned[r].size(); ++i)
      out[layout.owned[r][i]] = v[r][i];
  }
  return out;
}

namespace {

/// Applies the local preconditioner z = M^-1 r on one rank's owned block.
/// For kBlockSsor: M = (D+L) D^-1 (D+U) restricted to owned columns (block
/// Jacobi across ranks); SPD, so CG-safe. Each sweep visits only the entries
/// it uses, via the row splits; `u` is owned-sized scratch.
void apply_precon_local(const CsrMatrix& a,
                        std::span<const DistMatrix::RowSplit> split,
                        Precon kind, std::span<const double> r,
                        std::span<double> z, std::span<double> u) {
  const std::size_t nowned = split.size();
  switch (kind) {
    case Precon::kNone:
      for (std::size_t i = 0; i < nowned; ++i) z[i] = r[i];
      return;
    case Precon::kJacobi:
      for (std::size_t i = 0; i < nowned; ++i) z[i] = split[i].inv_diag * r[i];
      return;
    case Precon::kBlockSsor:
      break;
  }
  const std::int64_t* rp = a.row_ptr().data();
  const std::int32_t* ci = a.col_idx().data();
  const double* vals = a.values().data();
  // Forward solve (D+L) u = r over strictly-lower owned entries.
  for (std::size_t i = 0; i < nowned; ++i) {
    const DistMatrix::RowSplit& s = split[i];
    double sum = r[i];
    for (std::int64_t e = rp[i]; e < s.dpos; ++e) sum -= vals[e] * u[ci[e]];
    u[i] = sum * s.inv_diag;
  }
  // Backward solve (D+U) z = D u over strictly-upper owned entries.
  for (std::size_t i = nowned; i-- > 0;) {
    const DistMatrix::RowSplit& s = split[i];
    double sum = s.diag * u[i];
    for (std::int64_t e = s.upos; e < s.hpos; ++e) sum -= vals[e] * z[ci[e]];
    z[i] = sum * s.inv_diag;
  }
}

}  // namespace

void halo_exchange(par::Runtime& rt, const std::string& phase,
                   const DistLayout& layout,
                   std::vector<std::vector<double>>& local) {
  rt.superstep(phase, [&](par::Comm& c) {
    layout.halo_channel.post(c, local[c.rank()]);
  });
  rt.superstep(phase, [&](par::Comm& c) {
    layout.halo_channel.recv_assign(c, local[c.rank()]);
  });
}

SolveResult dist_cg(par::Runtime& rt, const std::string& phase,
                    const DistMatrix& a, const DistVector& b, DistVector& x,
                    const SolveOptions& opt) {
  const DistLayout& l = a.layout;
  const int nranks = l.nranks;
  DSMCPIC_CHECK(rt.active_ranks() == nranks);

  // Per-rank state: owned-sized r, z, q, x; local-sized p (owned + halo).
  std::vector<std::vector<double>> rvec(nranks), zvec(nranks), qvec(nranks),
      pvec(nranks), scratch(nranks);
  DSMCPIC_CHECK(static_cast<int>(a.split.size()) == nranks);
  for (int r = 0; r < nranks; ++r) {
    const auto n = l.owned[r].size();
    DSMCPIC_CHECK(b[r].size() == n);
    if (x[r].size() != n) x[r].assign(n, 0.0);
    rvec[r].resize(n);
    zvec[r].resize(n);
    qvec[r].resize(n);
    scratch[r].resize(n);
    pvec[r].assign(static_cast<std::size_t>(l.local_size(r)), 0.0);
  }
  const double precon_flops =
      (opt.dist_precon == Precon::kBlockSsor) ? 4.0 : 1.0;
  auto precondition = [&](int r) {
    apply_precon_local(a.local[r], a.split[r], opt.dist_precon, rvec[r],
                       zvec[r], scratch[r]);
  };

  std::vector<std::vector<double>> partials(nranks, std::vector<double>(2, 0.0));

  // The halo post of p piggybacks on whichever superstep produced the new p
  // (one superstep saved per CG iteration).

  // r = b - A x  (x is the warm start): needs one halo exchange of x.
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    std::copy(x[r].begin(), x[r].end(), pvec[r].begin());
    l.halo_channel.post(c, pvec[r]);
  });
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    l.halo_channel.recv_assign(c, pvec[r]);
    const auto n = l.owned[r].size();
    a.local[r].matvec(pvec[r], rvec[r]);
    c.charge(par::WorkKind::kSpmvFlop, 2.0 * static_cast<double>(a.local[r].nnz()));
    for (std::size_t i = 0; i < n; ++i) rvec[r][i] = b[r][i] - rvec[r][i];
    precondition(r);
    double rz = 0.0, bb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      rz += rvec[r][i] * zvec[r][i];
      bb += b[r][i] * b[r][i];
    }
    c.charge(par::WorkKind::kVecFlop, 5.0 * static_cast<double>(n));
    c.charge(par::WorkKind::kSpmvFlop,
             precon_flops * static_cast<double>(a.local[r].nnz()));
    partials[r][0] = rz;
    partials[r][1] = bb;
  });
  auto sums = rt.allreduce_sum_vec(phase, partials);
  double rz = sums[0];
  const double bnorm = std::sqrt(std::max(sums[1], 1e-300));

  // p = z, and ship its halo for the first iteration.
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    std::copy(zvec[r].begin(), zvec[r].end(), pvec[r].begin());
    l.halo_channel.post(c, pvec[r]);
  });

  SolveResult res;
  // With Jacobi M, ||r||_M ~ ||r||; track true ||r|| via an extra partial.
  auto rnorm = [&]() {
    for (int r = 0; r < nranks; ++r) {
      double rr = 0.0;
      for (double v : rvec[r]) rr += v * v;
      partials[r][0] = rr;
      partials[r][1] = 0.0;
    }
    auto s = rt.allreduce_sum_vec(phase, partials);
    return std::sqrt(s[0]);
  };
  res.residual = rnorm() / bnorm;
  res.converged = res.residual <= opt.rel_tol;
  if (res.converged || opt.max_iterations <= 0) {
    // No iteration will read p: receive the halo posted above, so no
    // message is left in flight (the round trip was charged when it was
    // routed; this superstep routes nothing and costs no virtual time).
    rt.superstep(phase, [&](par::Comm& c) {
      l.halo_channel.recv_assign(c, pvec[c.rank()]);
    });
    return res;
  }

  for (int it = 0; it < opt.max_iterations; ++it) {
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      l.halo_channel.recv_assign(c, pvec[r]);
      a.local[r].matvec(pvec[r], qvec[r]);
      c.charge(par::WorkKind::kSpmvFlop,
               2.0 * static_cast<double>(a.local[r].nnz()));
      double pq = 0.0;
      for (std::size_t i = 0; i < l.owned[r].size(); ++i)
        pq += pvec[r][i] * qvec[r][i];
      c.charge(par::WorkKind::kVecFlop, 2.0 * static_cast<double>(l.owned[r].size()));
      partials[r][0] = pq;
      partials[r][1] = 0.0;
    });
    const double pq = rt.allreduce_sum_vec(phase, partials)[0];
    if (pq == 0.0) break;
    const double alpha = rz / pq;

    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      const auto n = l.owned[r].size();
      for (std::size_t i = 0; i < n; ++i) {
        x[r][i] += alpha * pvec[r][i];
        rvec[r][i] -= alpha * qvec[r][i];
      }
      precondition(r);
      double rz_new = 0.0, rr = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        rz_new += rvec[r][i] * zvec[r][i];
        rr += rvec[r][i] * rvec[r][i];
      }
      c.charge(par::WorkKind::kVecFlop, 8.0 * static_cast<double>(n));
      c.charge(par::WorkKind::kSpmvFlop,
               precon_flops * static_cast<double>(a.local[r].nnz()));
      partials[r][0] = rz_new;
      partials[r][1] = rr;
    });
    sums = rt.allreduce_sum_vec(phase, partials);
    const double rz_new = sums[0];
    res.iterations = it + 1;
    res.residual = std::sqrt(sums[1]) / bnorm;
    if (res.residual <= opt.rel_tol) {
      res.converged = true;
      return res;
    }
    // At the iteration cap no further iteration reads p: stop before the
    // update that would post its halo, so no message is left in flight for
    // whatever superstep runs next.
    if (it + 1 == opt.max_iterations) break;
    const double beta = rz_new / rz;
    rz = rz_new;
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      const auto n = l.owned[r].size();
      for (std::size_t i = 0; i < n; ++i)
        pvec[r][i] = zvec[r][i] + beta * pvec[r][i];
      c.charge(par::WorkKind::kVecFlop, 2.0 * static_cast<double>(n));
      l.halo_channel.post(c, pvec[r]);
    });
  }
  return res;
}

}  // namespace dsmcpic::linalg
