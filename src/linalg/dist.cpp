#include "linalg/dist.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

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
  l.send_plan.resize(nranks);
  l.recv_plan.resize(nranks);

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
  std::vector<std::map<int, DistLayout::Plan>> send_acc(nranks);
  for (int r = 0; r < nranks; ++r) {
    std::map<int, DistLayout::Plan> recv_acc;
    for (std::size_t h = 0; h < l.halo[r].size(); ++h) {
      const std::int32_t g = l.halo[r][h];
      const int p = row_owner[g];
      auto& rplan = recv_acc[p];
      rplan.peer = p;
      rplan.idx.push_back(static_cast<std::int32_t>(h));
      auto& splan = send_acc[p][r];
      splan.peer = r;
      splan.idx.push_back(owned_index(p, g));
    }
    for (auto& [peer, plan] : recv_acc)
      l.recv_plan[r].push_back(std::move(plan));
  }
  for (int r = 0; r < nranks; ++r)
    for (auto& [peer, plan] : send_acc[r])
      l.send_plan[r].push_back(std::move(plan));
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
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  for (int r = 0; r < l.nranks; ++r) {
    std::vector<Triplet> trips;
    for (std::size_t row = 0; row < l.owned[r].size(); ++row) {
      const std::int32_t g = l.owned[r][row];
      for (std::int64_t e = rp[g]; e < rp[g + 1]; ++e) {
        const std::int32_t c = ci[static_cast<std::size_t>(e)];
        const std::int32_t lc = l.local_index(r, c);
        DSMCPIC_CHECK_MSG(lc >= 0, "column " << c << " missing from rank " << r
                                             << " local numbering");
        trips.push_back({static_cast<std::int32_t>(row), lc,
                         vals[static_cast<std::size_t>(e)]});
      }
    }
    dm.local[r] = CsrMatrix::from_triplets(
        static_cast<std::int32_t>(l.owned[r].size()), l.local_size(r), trips);
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

void halo_exchange(par::Runtime& rt, const std::string& phase,
                   const DistLayout& layout,
                   std::vector<std::vector<double>>& local) {
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    for (const auto& plan : layout.send_plan[r]) {
      auto buf = c.acquire_payload(plan.idx.size() * sizeof(double));
      auto* d = reinterpret_cast<double*>(buf.data());
      for (std::size_t i = 0; i < plan.idx.size(); ++i)
        d[i] = local[r][plan.idx[i]];
      c.charge(par::WorkKind::kPackByte, static_cast<double>(buf.size()));
      c.send_owned(plan.peer, /*tag=*/0, std::move(buf),
                   par::CostClass::kGrid);
    }
  });
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    const std::size_t nowned = layout.owned[r].size();
    for (const auto& msg : c.inbox()) {
      const std::span<const double> buf = msg.view<double>();
      const auto it = std::find_if(
          layout.recv_plan[r].begin(), layout.recv_plan[r].end(),
          [&msg](const DistLayout::Plan& p) { return p.peer == msg.src; });
      DSMCPIC_CHECK_MSG(it != layout.recv_plan[r].end(),
                        "unexpected halo message from rank " << msg.src);
      DSMCPIC_CHECK(buf.size() == it->idx.size());
      for (std::size_t i = 0; i < buf.size(); ++i)
        local[r][nowned + static_cast<std::size_t>(it->idx[i])] = buf[i];
    }
  });
}

namespace {

/// Applies the local preconditioner z = M^-1 r on one rank's owned block.
/// For kBlockSsor: M = (D+L) D^-1 (D+U) restricted to owned columns (block
/// Jacobi across ranks); SPD, so CG-safe. `diag`/`inv_diag` are the owned
/// rows' diagonal and its inverse; `scratch` must be owned-sized.
void apply_precon_local(const CsrMatrix& a, std::size_t nowned,
                        Precon kind, std::span<const double> diag,
                        std::span<const double> inv_diag,
                        std::span<const double> r, std::span<double> z,
                        std::vector<double>& scratch) {
  switch (kind) {
    case Precon::kNone:
      for (std::size_t i = 0; i < nowned; ++i) z[i] = r[i];
      return;
    case Precon::kJacobi:
      for (std::size_t i = 0; i < nowned; ++i) z[i] = inv_diag[i] * r[i];
      return;
    case Precon::kBlockSsor:
      break;
  }
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  auto& u = scratch;
  // Forward solve (D+L) u = r over owned columns only.
  for (std::size_t i = 0; i < nowned; ++i) {
    double s = r[i];
    for (std::int64_t e = rp[i]; e < rp[i + 1]; ++e) {
      const auto j = static_cast<std::size_t>(ci[static_cast<std::size_t>(e)]);
      if (j < i) s -= vals[static_cast<std::size_t>(e)] * u[j];
    }
    u[i] = s * inv_diag[i];
  }
  // Backward solve (D+U) z = D u over owned columns only.
  for (std::size_t ii = nowned; ii-- > 0;) {
    double s = diag[ii] * u[ii];
    for (std::int64_t e = rp[ii]; e < rp[ii + 1]; ++e) {
      const auto j = static_cast<std::size_t>(ci[static_cast<std::size_t>(e)]);
      if (j > ii && j < nowned) s -= vals[static_cast<std::size_t>(e)] * z[j];
    }
    z[ii] = s * inv_diag[ii];
  }
}

}  // namespace

SolveResult dist_cg(par::Runtime& rt, const std::string& phase,
                    const DistMatrix& a, const DistVector& b, DistVector& x,
                    const SolveOptions& opt) {
  const DistLayout& l = a.layout;
  const int nranks = l.nranks;
  DSMCPIC_CHECK(rt.active_ranks() == nranks);

  // Per-rank state: owned-sized r, z, q, x; local-sized p (owned + halo).
  std::vector<std::vector<double>> rvec(nranks), zvec(nranks), qvec(nranks),
      pvec(nranks), minv(nranks), diag(nranks), scratch(nranks);
  for (int r = 0; r < nranks; ++r) {
    const auto n = l.owned[r].size();
    DSMCPIC_CHECK(b[r].size() == n);
    if (x[r].size() != n) x[r].assign(n, 0.0);
    rvec[r].resize(n);
    zvec[r].resize(n);
    qvec[r].resize(n);
    scratch[r].resize(n);
    pvec[r].assign(static_cast<std::size_t>(l.local_size(r)), 0.0);
    minv[r].resize(n);
    diag[r] = a.local[r].diagonal();
    for (std::size_t i = 0; i < n; ++i) {
      // Local row diag is complete (diagonal entries live on the owner).
      const double d = diag[r][i];
      if (d == 0.0) diag[r][i] = 1.0;
      minv[r][i] = 1.0 / diag[r][i];
    }
  }
  const double precon_flops =
      (opt.dist_precon == Precon::kBlockSsor) ? 4.0 : 1.0;
  auto precondition = [&](int r) {
    apply_precon_local(a.local[r], l.owned[r].size(), opt.dist_precon,
                       diag[r], minv[r], rvec[r], zvec[r], scratch[r]);
  };

  std::vector<std::vector<double>> partials(nranks, std::vector<double>(2, 0.0));

  // Inlined halo send/recv over pvec: the send piggybacks on whichever
  // superstep produced the new p (one superstep saved per CG iteration —
  // the runtime's closure dispatch is the simulator's hot path at 1536
  // virtual ranks).
  auto send_halo = [&](par::Comm& c) {
    const int r = c.rank();
    for (const auto& plan : l.send_plan[r]) {
      auto buf = c.acquire_payload(plan.idx.size() * sizeof(double));
      auto* d = reinterpret_cast<double*>(buf.data());
      for (std::size_t i = 0; i < plan.idx.size(); ++i)
        d[i] = pvec[r][plan.idx[i]];
      c.charge(par::WorkKind::kPackByte, static_cast<double>(buf.size()));
      c.send_owned(plan.peer, 0, std::move(buf), par::CostClass::kGrid);
    }
  };
  auto recv_halo = [&](par::Comm& c) {
    const int r = c.rank();
    const std::size_t nowned = l.owned[r].size();
    for (const auto& msg : c.inbox()) {
      const std::span<const double> buf = msg.view<double>();
      const auto it = std::find_if(
          l.recv_plan[r].begin(), l.recv_plan[r].end(),
          [&msg](const DistLayout::Plan& p) { return p.peer == msg.src; });
      DSMCPIC_CHECK_MSG(it != l.recv_plan[r].end(),
                        "unexpected halo message from rank " << msg.src);
      DSMCPIC_CHECK(buf.size() == it->idx.size());
      for (std::size_t i = 0; i < buf.size(); ++i)
        pvec[r][nowned + static_cast<std::size_t>(it->idx[i])] = buf[i];
    }
  };

  // r = b - A x  (x is the warm start): needs one halo exchange of x.
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    std::copy(x[r].begin(), x[r].end(), pvec[r].begin());
    send_halo(c);
  });
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    recv_halo(c);
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
    send_halo(c);
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
  if (res.residual <= opt.rel_tol) {
    res.converged = true;
    return res;
  }

  for (int it = 0; it < opt.max_iterations; ++it) {
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      recv_halo(c);
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
    const double beta = rz_new / rz;
    rz = rz_new;
    rt.superstep(phase, [&](par::Comm& c) {
      const int r = c.rank();
      const auto n = l.owned[r].size();
      for (std::size_t i = 0; i < n; ++i)
        pvec[r][i] = zvec[r][i] + beta * pvec[r][i];
      c.charge(par::WorkKind::kVecFlop, 2.0 * static_cast<double>(n));
      send_halo(c);
    });
  }
  return res;
}

}  // namespace dsmcpic::linalg
