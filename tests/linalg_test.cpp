#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/dist.hpp"
#include "linalg/krylov.hpp"
#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "par/machine.hpp"
#include "par/runtime.hpp"
#include "pic/poisson.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dsmcpic::linalg {
namespace {

/// 1D Poisson (tridiagonal [-1, 2, -1]) — SPD, diagonally dominant.
CsrMatrix laplace_1d(std::int32_t n) {
  std::vector<Triplet> t;
  for (std::int32_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  return CsrMatrix::from_triplets(n, n, t);
}

TEST(Csr, FromTripletsMergesDuplicates) {
  const std::vector<Triplet> t{{0, 0, 1.0}, {0, 0, 2.0}, {1, 0, 5.0},
                               {0, 1, -1.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(2, 2, t);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Csr, MatvecMatchesDense) {
  const CsrMatrix m = laplace_1d(5);
  const std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y(5);
  m.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2 * 1 - 2);
  EXPECT_DOUBLE_EQ(y[2], -2 + 6 - 4);
  EXPECT_DOUBLE_EQ(y[4], -4 + 10);
  std::vector<double> y2(5, 1.0);
  m.matvec_add(x, y2);
  EXPECT_DOUBLE_EQ(y2[0], y[0] + 1.0);
}

TEST(Csr, DiagonalAndDominance) {
  const CsrMatrix m = laplace_1d(4);
  const auto d = m.diagonal();
  for (double v : d) EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_TRUE(m.diagonally_dominant());
  const std::vector<Triplet> t{{0, 0, 1.0}, {0, 1, 5.0}, {1, 0, 5.0},
                               {1, 1, 1.0}};
  EXPECT_FALSE(CsrMatrix::from_triplets(2, 2, t).diagonally_dominant());
}

TEST(Krylov, CgSolvesLaplace) {
  const std::int32_t n = 64;
  const CsrMatrix a = laplace_1d(n);
  std::vector<double> x_true(n), b(n), x(n, 0.0);
  Rng rng(3);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  a.matvec(x_true, b);
  const SolveResult r = cg(a, b, x, {.rel_tol = 1e-10, .max_iterations = 500});
  EXPECT_TRUE(r.converged);
  for (std::int32_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

TEST(Krylov, CgWarmStartConvergesInstantly) {
  const CsrMatrix a = laplace_1d(32);
  std::vector<double> b(32, 1.0), x(32, 0.0);
  SolveOptions opt{.rel_tol = 1e-10, .max_iterations = 500};
  const SolveResult first = cg(a, b, x, opt);
  ASSERT_TRUE(first.converged);
  std::vector<double> x2 = x;  // warm start from the solution
  const SolveResult second = cg(a, b, x2, opt);
  EXPECT_TRUE(second.converged);
  EXPECT_EQ(second.iterations, 0);
}

// ---- distributed ------------------------------------------------------------

/// Round-robin row ownership (worst-case halo, exercises the plans).
std::vector<std::int32_t> round_robin_owner(std::int32_t n, int nranks) {
  std::vector<std::int32_t> o(n);
  for (std::int32_t i = 0; i < n; ++i) o[i] = i % nranks;
  return o;
}

TEST(Dist, LayoutPlansAreConsistent) {
  const CsrMatrix a = laplace_1d(20);
  const auto owner = round_robin_owner(20, 3);
  const DistLayout l = DistLayout::build(3, owner, a);
  // Every row owned exactly once.
  std::size_t total_owned = 0;
  for (int r = 0; r < 3; ++r) total_owned += l.owned[r].size();
  EXPECT_EQ(total_owned, 20u);
  // Send plans mirror recv plans; receive indices are local (owned first).
  const par::HaloPlans& send_plan = l.halo_channel.send_plans();
  const par::HaloPlans& recv_plan = l.halo_channel.recv_plans();
  for (int r = 0; r < 3; ++r) {
    const auto nowned = static_cast<std::int32_t>(l.owned[r].size());
    for (const auto& rp : recv_plan[r]) {
      const auto& peer_sends = send_plan[rp.peer];
      bool found = false;
      for (const auto& sp : peer_sends) {
        if (sp.peer != r) continue;
        found = true;
        ASSERT_EQ(sp.idx.size(), rp.idx.size());
        // Same global ids in the same order on both sides.
        for (std::size_t i = 0; i < sp.idx.size(); ++i) {
          ASSERT_GE(rp.idx[i], nowned);
          EXPECT_EQ(l.owned[rp.peer][sp.idx[i]],
                    l.halo[r][rp.idx[i] - nowned]);
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(Dist, ScatterGatherRoundTrip) {
  const CsrMatrix a = laplace_1d(17);
  const auto owner = round_robin_owner(17, 4);
  const DistLayout l = DistLayout::build(4, owner, a);
  std::vector<double> v(17);
  for (int i = 0; i < 17; ++i) v[i] = i * 1.5;
  const DistVector d = scatter_vector(l, v);
  EXPECT_EQ(gather_vector(l, d), v);
}

TEST(Dist, HaloExchangeFillsGhosts) {
  const std::int32_t n = 12;
  const CsrMatrix a = laplace_1d(n);
  const auto owner = round_robin_owner(n, 3);
  DistLayout l = DistLayout::build(3, owner, a);
  par::Runtime rt(3, par::Topology(par::MachineProfile::tianhe2(), 3));
  std::vector<std::vector<double>> local(3);
  for (int r = 0; r < 3; ++r) {
    local[r].assign(l.local_size(r), -1.0);
    for (std::size_t i = 0; i < l.owned[r].size(); ++i)
      local[r][i] = static_cast<double>(l.owned[r][i]);  // value = global id
  }
  halo_exchange(rt, "halo", l, local);
  for (int r = 0; r < 3; ++r)
    for (std::size_t h = 0; h < l.halo[r].size(); ++h)
      EXPECT_DOUBLE_EQ(local[r][l.owned[r].size() + h],
                       static_cast<double>(l.halo[r][h]));
}

TEST(Dist, HaloExchangeRejectsMismatchedMessages) {
  const std::int32_t n = 12;
  const CsrMatrix a = laplace_1d(n);
  const auto owner = round_robin_owner(n, 3);
  const DistLayout good = DistLayout::build(3, owner, a);
  auto exchange = [&](const DistLayout& l) {
    par::Runtime rt(3, par::Topology(par::MachineProfile::tianhe2(), 3));
    std::vector<std::vector<double>> local(3);
    for (int r = 0; r < 3; ++r) local[r].assign(l.local_size(r), 0.0);
    halo_exchange(rt, "halo", l, local);
  };
  // A layout whose channel receives with edited plans.
  auto with_recv = [&](auto edit) {
    DistLayout l = good;
    par::HaloPlans recv = good.halo_channel.recv_plans();
    edit(recv);
    l.halo_channel = par::Channel(good.halo_channel.send_plans(), recv);
    return l;
  };
  EXPECT_NO_THROW(exchange(good));
  const DistLayout wrong_peer = with_recv([](par::HaloPlans& recv) {
    recv[0][0].peer = 0;  // rank 0 never sends to itself
  });
  EXPECT_THROW(exchange(wrong_peer), Error);
  const DistLayout wrong_size = with_recv(
      [](par::HaloPlans& recv) { recv[1][0].idx.pop_back(); });
  EXPECT_THROW(exchange(wrong_size), Error);
  const DistLayout extra_peer = with_recv([](par::HaloPlans& recv) {
    recv[2].push_back({.peer = 2, .idx = {0}});  // a peer that never sends
  });
  EXPECT_THROW(exchange(extra_peer), Error);
}

/// Every exit of dist_cg leaves the mailboxes drained: at the iteration
/// cap, and when the warm start already meets the tolerance.
TEST(Dist, CgExitsLeaveNoMessageInFlight) {
  const std::int32_t n = 30;
  const CsrMatrix a = laplace_1d(n);
  const auto owner = round_robin_owner(n, 3);
  const DistMatrix dm = DistMatrix::build(a, DistLayout::build(3, owner, a));
  std::vector<double> b(n);
  Rng rng(5);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const DistVector db = scatter_vector(dm.layout, b);
  {
    par::Runtime rt(3, par::Topology(par::MachineProfile::tianhe2(), 3));
    DistVector dx(3);
    const SolveResult r =
        dist_cg(rt, "s", dm, db, dx, {.rel_tol = 1e-12, .max_iterations = 3});
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.iterations, 3);
    EXPECT_EQ(rt.undelivered_messages(), 0u);
  }
  {
    // Warm-started from the exact solution of a zero right-hand side.
    par::Runtime rt(3, par::Topology(par::MachineProfile::tianhe2(), 3));
    const DistVector zero_b = scatter_vector(dm.layout, std::vector<double>(n));
    DistVector dx = zero_b;
    const SolveResult r = dist_cg(rt, "s", dm, zero_b, dx, {});
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 0);
    EXPECT_EQ(rt.undelivered_messages(), 0u);
  }
}

/// Distributed CG must match the serial solution for any rank count.
class DistCgTest : public ::testing::TestWithParam<int> {};

TEST_P(DistCgTest, MatchesSerialCg) {
  const int nranks = GetParam();
  const std::int32_t n = 60;
  const CsrMatrix a = laplace_1d(n);
  std::vector<double> b(n);
  Rng rng(13);
  for (auto& v : b) v = rng.uniform(-1, 1);

  std::vector<double> x_serial(n, 0.0);
  const SolveOptions opt{.rel_tol = 1e-10, .max_iterations = 500};
  ASSERT_TRUE(cg(a, b, x_serial, opt).converged);

  const auto owner = round_robin_owner(n, nranks);
  DistMatrix dm = DistMatrix::build(a, DistLayout::build(nranks, owner, a));
  par::Runtime rt(nranks,
                  par::Topology(par::MachineProfile::tianhe2(), nranks));
  DistVector db = scatter_vector(dm.layout, b);
  DistVector dx(nranks);
  const SolveResult r = dist_cg(rt, "solve", dm, db, dx, opt);
  EXPECT_TRUE(r.converged);
  const auto x = gather_vector(dm.layout, dx);
  for (std::int32_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_serial[i], 1e-7);
  // The solve must have charged communication/compute time.
  EXPECT_GT(rt.phase_stats("solve").busy_max, 0.0);
  if (nranks > 1) {
    EXPECT_GT(rt.phase_stats("solve").transactions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistCgTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(Dist, PreconditionersAgreeOnSolution) {
  const std::int32_t n = 40;
  const CsrMatrix a = laplace_1d(n);
  std::vector<double> b(n);
  Rng rng(23);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto owner = round_robin_owner(n, 3);
  DistMatrix dm = DistMatrix::build(a, DistLayout::build(3, owner, a));

  std::vector<std::vector<double>> solutions;
  std::vector<int> iterations;
  for (const Precon p :
       {Precon::kNone, Precon::kJacobi, Precon::kBlockSsor}) {
    par::Runtime rt(3, par::Topology(par::MachineProfile::tianhe2(), 3));
    SolveOptions opt{.rel_tol = 1e-11, .max_iterations = 500};
    opt.dist_precon = p;
    DistVector db = scatter_vector(dm.layout, b);
    DistVector dx(3);
    const SolveResult r = dist_cg(rt, "s", dm, db, dx, opt);
    ASSERT_TRUE(r.converged);
    solutions.push_back(gather_vector(dm.layout, dx));
    iterations.push_back(r.iterations);
  }
  for (std::int32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(solutions[0][i], solutions[1][i], 1e-7);
    EXPECT_NEAR(solutions[0][i], solutions[2][i], 1e-7);
  }
  // Block SSOR must not be weaker than plain CG.
  EXPECT_LE(iterations[2], iterations[0]);
}

TEST(Dist, SsorBeatsJacobiOnOneRank) {
  // On a single rank the block covers the whole matrix: SSOR-CG should
  // converge in clearly fewer iterations than Jacobi-CG.
  const std::int32_t n = 200;
  const CsrMatrix a = laplace_1d(n);
  std::vector<double> b(n, 1.0);
  const std::vector<std::int32_t> owner(n, 0);
  DistMatrix dm = DistMatrix::build(a, DistLayout::build(1, owner, a));
  auto solve = [&](Precon p) {
    par::Runtime rt(1, par::Topology(par::MachineProfile::tianhe2(), 1));
    SolveOptions opt{.rel_tol = 1e-9, .max_iterations = 2000};
    opt.dist_precon = p;
    DistVector db = scatter_vector(dm.layout, b);
    DistVector dx(1);
    const SolveResult r = dist_cg(rt, "s", dm, db, dx, opt);
    EXPECT_TRUE(r.converged);
    return r.iterations;
  };
  // (On 1-D Laplace the gain is modest; on the 3-D FEM system the solver
  // uses in production it is ~2x, see the solver integration tests.)
  EXPECT_LT(solve(Precon::kBlockSsor), solve(Precon::kJacobi));
}

/// FNV-1a 64 over the raw bytes of a vector of doubles.
std::uint64_t fnv64(std::span<const double> v) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto* b = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size_bytes(); ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Pins every bit dist_cg produces on a small 3-D FEM Poisson matrix under
/// an unstructured 5-rank owner map: iterations, residual, the solution
/// bytes and the charged virtual cost. Two rows are edited so the
/// preconditioner's edge cases are reached: a Dirichlet row whose stored
/// diagonal is zero, and a free row whose diagonal entry is missing.
TEST(Dist, CgBitsPinnedOnUnstructured3dPoisson) {
  mesh::NozzleSpec spec;
  spec.radius = 0.01;
  spec.length = 0.05;
  spec.radial_divisions = 2;
  spec.axial_divisions = 3;
  const mesh::RefinedMesh fine = mesh::red_refine(
      mesh::make_cylinder_nozzle(spec), mesh::nozzle_classifier(spec));
  const pic::PoissonSystem sys(fine.mesh, {.phi_inlet = 5.0});
  const CsrMatrix& k = sys.matrix();
  const std::int32_t n = k.rows();

  // zero_row: first Dirichlet row (identity) gets a stored 0 diagonal.
  // no_diag_row: a free row in the middle loses its diagonal entry.
  std::int32_t zero_row = -1, no_diag_row = -1;
  for (std::int32_t g = 0; g < n && zero_row < 0; ++g) {
    if (sys.is_dirichlet()[g]) zero_row = g;
  }
  for (std::int32_t g = n / 2; g < n; ++g)
    if (!sys.is_dirichlet()[g]) {
      no_diag_row = g;
      break;
    }
  ASSERT_GE(zero_row, 0);
  ASSERT_GE(no_diag_row, 0);
  std::vector<Triplet> trips;
  for (std::int32_t g = 0; g < n; ++g)
    for (std::int64_t e = k.row_ptr()[g]; e < k.row_ptr()[g + 1]; ++e) {
      const std::int32_t c = k.col_idx()[static_cast<std::size_t>(e)];
      double v = k.values()[static_cast<std::size_t>(e)];
      if (g == c && g == no_diag_row) continue;
      if (g == c && g == zero_row) v = 0.0;
      trips.push_back({g, c, v});
    }
  const CsrMatrix a = CsrMatrix::from_triplets(n, n, trips);

  // Contiguous blocks with ~30% of rows scattered to random ranks.
  constexpr int kRanks = 5;
  Rng rng(77);
  std::vector<std::int32_t> owner(n);
  for (std::int32_t g = 0; g < n; ++g) {
    owner[g] = static_cast<std::int32_t>(g * kRanks / n);
    if (rng.uniform(0, 1) < 0.3)
      owner[g] = static_cast<std::int32_t>(rng.uniform_index(kRanks));
  }
  const DistMatrix dm =
      DistMatrix::build(a, DistLayout::build(kRanks, owner, a));

  // Some owned row, not the last on its rank, has halo columns but no
  // strictly-upper owned entry.
  bool halo_without_upper = false;
  for (int r = 0; r < kRanks && !halo_without_upper; ++r) {
    const CsrMatrix& loc = dm.local[r];
    const auto nowned = static_cast<std::int32_t>(dm.layout.owned[r].size());
    for (std::int32_t i = 0; i + 1 < nowned; ++i) {
      bool upper = false, halo = false;
      for (std::int64_t e = loc.row_ptr()[i]; e < loc.row_ptr()[i + 1]; ++e) {
        const std::int32_t c = loc.col_idx()[static_cast<std::size_t>(e)];
        upper |= c > i && c < nowned;
        halo |= c >= nowned;
      }
      if (halo && !upper) {
        halo_without_upper = true;
        break;
      }
    }
  }
  ASSERT_TRUE(halo_without_upper);

  std::vector<double> b(n), x0(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto& v : x0) v = rng.uniform(-1, 1);
  b[zero_row] = 0.0;  // keeps the zero row consistent

  struct Expected {
    Precon precon;
    int iterations;
    double residual;
    std::uint64_t solution_fnv;
    double busy_max, busy_sum;
    std::uint64_t transactions;
    double bytes;
  };
  const Expected expected[] = {
      {Precon::kNone, 89, 0x1.4ef02abcd4472p-34, 0x942e30c5a847c669ULL,
       0x1.5995994013a72p-9, 0x1.ac630fc4c4132p-7, 1800, 0x1.15bcp+18},
      {Precon::kJacobi, 68, 0x1.a07e90619babp-34, 0x75fbcb8da3dda652ULL,
       0x1.08f15177a8149p-9, 0x1.486c8a05c1a5p-7, 1380, 0x1.a9dcp+17},
      {Precon::kBlockSsor, 58, 0x1.54a1560288c57p-34, 0x8df01706b5705e41ULL,
       0x1.d1e9c225ffc6ap-10, 0x1.1f132c3ddcc14p-7, 1180, 0x1.6c24p+17},
  };
  // threads 4 < 5 ranks: the bodies run concurrently on the pool, posting
  // into and reading from the halo channel's buffers.
  for (const int threads : {1, 4}) {
    for (const Expected& e : expected) {
      SCOPED_TRACE(static_cast<int>(e.precon));
      SCOPED_TRACE(threads);
      par::Runtime rt(kRanks,
                      par::Topology(par::MachineProfile::tianhe2(), kRanks),
                      1.0, 1.0, threads);
      SolveOptions opt{.rel_tol = 1e-10, .max_iterations = 400};
      opt.dist_precon = e.precon;
      const DistVector db = scatter_vector(dm.layout, b);
      DistVector dx = scatter_vector(dm.layout, x0);
      const SolveResult res = dist_cg(rt, "pin", dm, db, dx, opt);
      const std::vector<double> x = gather_vector(dm.layout, dx);
      const par::PhaseStats st = rt.phase_stats("pin");
      EXPECT_EQ(res.iterations, e.iterations);
      EXPECT_EQ(res.residual, e.residual);
      EXPECT_EQ(fnv64(x), e.solution_fnv);
      EXPECT_EQ(st.busy_max, e.busy_max);
      EXPECT_EQ(st.busy_sum, e.busy_sum);
      EXPECT_EQ(st.transactions, e.transactions);
      EXPECT_EQ(st.bytes, e.bytes);
    }
  }
}

}  // namespace
}  // namespace dsmcpic::linalg
