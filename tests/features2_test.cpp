// Additional coverage: serialization helpers, the rz contour map, Boris
// E x B drift, Poisson RHS consistency, NIC serialization model, runtime
// edge cases.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "dsmc/sampling.hpp"
#include "dsmc/species.hpp"
#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "par/runtime.hpp"
#include "pic/boris.hpp"
#include "pic/poisson.hpp"
#include "support/serialize.hpp"

namespace dsmcpic {
namespace {

TEST(Serialize, PodAndVectorRoundTrip) {
  std::stringstream ss;
  io::Writer w(ss);
  w(3.25, std::int32_t{-7}, std::vector<std::int64_t>{1, 2, 3},
    std::vector<double>{}, std::string("hello world"), true);
  double d = 0.0;
  std::int32_t i = 0;
  std::vector<std::int64_t> v64{9};
  std::vector<double> empty{1.0};
  std::string s;
  bool b = false;
  io::Reader r(ss);
  r(d, i, v64, empty, s, b);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_EQ(i, -7);
  EXPECT_EQ(v64, (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(s, "hello world");
  EXPECT_TRUE(b);
  EXPECT_EQ(r.left(), 0u);
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream ss;
  io::Writer w(ss);
  w(std::vector<double>{1, 2, 3});
  std::stringstream cut(ss.str().substr(0, 12));  // chop mid-payload
  std::vector<double> v;
  io::Reader r(cut);
  EXPECT_THROW(r(v), Error);
}

TEST(RzMap, RecoverConstantAndGradientFields) {
  mesh::NozzleSpec spec;
  spec.radial_divisions = 5;
  spec.axial_divisions = 10;
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);

  // Constant field -> every non-empty bin equals the constant.
  std::vector<double> constant(grid.num_tets(), 4.5);
  const auto cmap = dsmc::rz_map(grid, constant, spec.radius, spec.length, 4, 6);
  int nonempty = 0;
  for (const double v : cmap)
    if (v != 0.0) {
      EXPECT_NEAR(v, 4.5, 1e-12);
      ++nonempty;
    }
  EXPECT_GT(nonempty, 12);

  // Linear-in-z field -> bin means increase along z at fixed r.
  std::vector<double> linear(grid.num_tets());
  for (std::int32_t t = 0; t < grid.num_tets(); ++t)
    linear[t] = grid.centroid(t).z;
  const int nr = 3, nz = 5;
  const auto lmap = dsmc::rz_map(grid, linear, spec.radius, spec.length, nr, nz);
  for (int iz = 1; iz < nz; ++iz)
    EXPECT_GT(lmap[iz * nr + 0], lmap[(iz - 1) * nr + 0]);
}

TEST(Boris, ExBDriftMatchesTheory) {
  // Crossed fields: drift velocity = E x B / |B|^2.
  const Vec3 e{0, 1000, 0};
  const Vec3 b{0, 0, 0.2};
  const double qm = dsmc::constants::kElementaryCharge /
                    dsmc::constants::kHydrogenMass;
  const Vec3 expected_drift = cross(e, b) / b.norm2();  // (5000, 0, 0)
  // Average velocity over many gyro-periods ~ drift.
  Vec3 v{0, 0, 0};
  Vec3 sum{};
  const double dt = 1e-9;
  const int steps = 200000;
  for (int i = 0; i < steps; ++i) {
    v = pic::boris_push(v, e, b, qm, dt);
    sum += v;
  }
  const Vec3 mean = sum / steps;
  EXPECT_NEAR(mean.x, expected_drift.x, 0.05 * std::abs(expected_drift.x));
  EXPECT_NEAR(mean.z, 0.0, 1.0);
}

TEST(Poisson, RhsAtMatchesRhsVector) {
  mesh::NozzleSpec spec;
  spec.radial_divisions = 3;
  spec.axial_divisions = 5;
  const mesh::TetMesh coarse = mesh::make_cylinder_nozzle(spec);
  const mesh::RefinedMesh fine =
      mesh::red_refine(coarse, mesh::nozzle_classifier(spec));
  const pic::PoissonSystem sys(fine.mesh, {.phi_inlet = 9.0});
  std::vector<double> charge(sys.num_nodes());
  for (std::int32_t n = 0; n < sys.num_nodes(); ++n)
    charge[n] = 1e-15 * (n % 7);
  const auto b = sys.rhs(charge);
  for (std::int32_t n = 0; n < sys.num_nodes(); ++n)
    ASSERT_DOUBLE_EQ(b[n], sys.rhs_at(n, charge[n]));
}

TEST(NicModel, InterNodeMessagesPaySerialization) {
  par::MachineProfile prof = par::MachineProfile::tianhe2();
  prof.cores_per_node = 2;
  prof.nic_overhead = 1e-3;  // exaggerated for visibility
  par::Runtime rt(4, par::Topology(prof, 4));
  // One intra-node message (0 -> 1): no NIC cost.
  rt.superstep("intra", [](par::Comm& c) {
    if (c.rank() == 0) c.send(1, 0, {});
  });
  // One inter-node message (0 -> 2): both nodes pay ~1 ms.
  rt.superstep("inter", [](par::Comm& c) {
    if (c.rank() == 0) c.send(2, 0, {});
  });
  EXPECT_LT(rt.phase_stats("intra").busy_max, 1e-4);
  EXPECT_GT(rt.phase_stats("inter").busy_max, 1e-3);
}

TEST(NicModel, HintDrivesAllPairsCost) {
  par::MachineProfile prof = par::MachineProfile::tianhe2();
  prof.cores_per_node = 2;
  par::Runtime rt(8, par::Topology(prof, 8));
  rt.hint_round_transactions(8 * 7);
  rt.superstep("dc", [](par::Comm&) {});  // no real messages
  // NIC serialization still charged from the hint.
  EXPECT_GT(rt.phase_stats("dc").busy_max, 0.0);
}

TEST(Runtime, ExscanRejectsWrongSize) {
  par::Runtime rt(3, par::Topology(par::MachineProfile::tianhe2(), 3));
  const std::vector<std::int64_t> wrong{1, 2};
  EXPECT_THROW(rt.exscan_sum("x", wrong), Error);
}

TEST(Runtime, SaveLoadRoundTrip) {
  par::Runtime a(3, par::Topology(par::MachineProfile::tianhe2(), 3));
  a.superstep("w", [](par::Comm& c) {
    c.charge(par::WorkKind::kMove, 1e6 * (c.rank() + 1));
  });
  a.barrier("sync");
  std::stringstream ss;
  io::Writer w(ss);
  w(a.accounting());
  par::Runtime::Accounting acct;
  io::Reader r(ss);
  r(acct);
  par::Runtime b(3, par::Topology(par::MachineProfile::tianhe2(), 3));
  b.restore(std::move(acct));
  EXPECT_DOUBLE_EQ(b.total_time(), a.total_time());
  EXPECT_DOUBLE_EQ(b.phase_stats("w").busy_max, a.phase_stats("w").busy_max);
  EXPECT_EQ(b.phases(), a.phases());
}

}  // namespace
}  // namespace dsmcpic
