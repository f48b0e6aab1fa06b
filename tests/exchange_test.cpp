#include <gtest/gtest.h>

#include <map>
#include <set>

#include "exchange/exchange.hpp"
#include "par/machine.hpp"
#include "par/runtime.hpp"
#include "support/rng.hpp"

namespace dsmcpic::exchange {
namespace {

using dsmc::ParticleRecord;
using dsmc::ParticleStore;

struct World {
  par::Runtime rt;
  std::vector<ParticleStore> stores;
  std::vector<std::vector<std::uint8_t>> removed;
  std::vector<std::int32_t> owner;  // cell -> rank

  explicit World(int nranks, int ncells)
      : rt(nranks, par::Topology(par::MachineProfile::tianhe2(), nranks)),
        stores(nranks),
        removed(nranks),
        owner(ncells) {
    for (int c = 0; c < ncells; ++c) owner[c] = c % nranks;
  }

  void scatter_random_particles(int per_rank, std::uint64_t seed) {
    Rng rng(seed);
    std::int64_t id = 0;
    for (int r = 0; r < rt.size(); ++r) {
      for (int i = 0; i < per_rank; ++i) {
        ParticleRecord p;
        p.cell = static_cast<std::int32_t>(rng.uniform_index(owner.size()));
        p.id = id++;
        p.species = static_cast<std::int32_t>(rng.uniform_index(2));
        p.position = {rng.uniform(), rng.uniform(), rng.uniform()};
        p.velocity = {rng.normal(), rng.normal(), rng.normal()};
        stores[r].add(p);
      }
      removed[r].assign(stores[r].size(), 0);
    }
  }

  std::int64_t total() const {
    std::int64_t n = 0;
    for (const auto& s : stores) n += static_cast<std::int64_t>(s.size());
    return n;
  }
};

class ExchangeTest
    : public ::testing::TestWithParam<std::tuple<Strategy, int>> {};

TEST_P(ExchangeTest, ParticlesLandOnOwningRanks) {
  const auto [strategy, nranks] = GetParam();
  World w(nranks, 4 * nranks);
  w.scatter_random_particles(50, 123);
  const std::int64_t before = w.total();

  const ExchangeStats st = exchange_particles(w.rt, "exc", strategy, w.stores,
                                              w.removed, w.owner);
  EXPECT_EQ(w.total(), before);  // conservation
  EXPECT_EQ(st.migrated + st.kept, before);
  for (int r = 0; r < nranks; ++r) {
    ASSERT_EQ(w.removed[r].size(), w.stores[r].size());
    for (std::size_t i = 0; i < w.stores[r].size(); ++i) {
      EXPECT_EQ(w.owner[w.stores[r].cells()[i]], r);
      EXPECT_EQ(w.removed[r][i], 0);
    }
  }
}

TEST_P(ExchangeTest, RecordsSurviveIntact) {
  const auto [strategy, nranks] = GetParam();
  World w(nranks, 3 * nranks);
  w.scatter_random_particles(30, 99);
  // Snapshot every particle by id.
  std::map<std::int64_t, ParticleRecord> snapshot;
  for (const auto& s : w.stores)
    for (std::size_t i = 0; i < s.size(); ++i)
      snapshot[s.ids()[i]] = s.record(i);

  exchange_particles(w.rt, "exc", strategy, w.stores, w.removed, w.owner);

  std::set<std::int64_t> seen;
  for (const auto& s : w.stores) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      const ParticleRecord got = s.record(i);
      ASSERT_TRUE(snapshot.count(got.id));
      EXPECT_TRUE(seen.insert(got.id).second) << "duplicate id " << got.id;
      const ParticleRecord& want = snapshot[got.id];
      EXPECT_EQ(got.position, want.position);
      EXPECT_EQ(got.velocity, want.velocity);
      EXPECT_EQ(got.species, want.species);
      EXPECT_EQ(got.cell, want.cell);
    }
  }
  EXPECT_EQ(seen.size(), snapshot.size());
}

TEST_P(ExchangeTest, RemovedParticlesAreDropped) {
  const auto [strategy, nranks] = GetParam();
  World w(nranks, 2 * nranks);
  w.scatter_random_particles(20, 7);
  const std::int64_t before = w.total();
  // Flag every third particle as removed (left the domain).
  std::int64_t flagged = 0;
  for (int r = 0; r < nranks; ++r)
    for (std::size_t i = 0; i < w.removed[r].size(); i += 3) {
      w.removed[r][i] = 1;
      ++flagged;
    }
  exchange_particles(w.rt, "exc", strategy, w.stores, w.removed, w.owner);
  EXPECT_EQ(w.total(), before - flagged);
}

TEST_P(ExchangeTest, NoopWhenEverythingIsLocal) {
  const auto [strategy, nranks] = GetParam();
  World w(nranks, nranks);
  // Each rank gets particles only in its own cells.
  for (int r = 0; r < nranks; ++r) {
    for (int i = 0; i < 10; ++i) {
      ParticleRecord p;
      p.cell = r;  // owner[r] == r by construction
      p.id = r * 100 + i;
      w.stores[r].add(p);
    }
    w.removed[r].assign(w.stores[r].size(), 0);
  }
  const ExchangeStats st = exchange_particles(w.rt, "exc", strategy, w.stores,
                                              w.removed, w.owner);
  EXPECT_EQ(st.migrated, 0);
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(w.stores[r].size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndRanks, ExchangeTest,
    ::testing::Combine(::testing::Values(Strategy::kCentralized,
                                         Strategy::kDistributed,
                                         Strategy::kHierarchical),
                       ::testing::Values(1, 2, 3, 5, 8, 16)));

TEST(ExchangeHierarchical, MultiNodeFunnelWorks) {
  // Force several nodes by shrinking cores_per_node so leader routing and
  // the inter-node round are actually exercised.
  par::MachineProfile prof = par::MachineProfile::tianhe2();
  prof.cores_per_node = 4;
  const int nranks = 12;  // 3 nodes of 4 ranks
  par::Runtime rt(nranks, par::Topology(prof, nranks));
  std::vector<ParticleStore> stores(nranks);
  std::vector<std::vector<std::uint8_t>> removed(nranks);
  std::vector<std::int32_t> owner(nranks * 3);
  for (std::size_t c = 0; c < owner.size(); ++c)
    owner[c] = static_cast<std::int32_t>(c % nranks);
  Rng rng(3);
  std::int64_t id = 0, total = 0;
  for (int r = 0; r < nranks; ++r) {
    for (int i = 0; i < 40; ++i) {
      ParticleRecord p;
      p.cell = static_cast<std::int32_t>(rng.uniform_index(owner.size()));
      p.id = id++;
      stores[r].add(p);
      ++total;
    }
    removed[r].assign(stores[r].size(), 0);
  }
  const ExchangeStats st = exchange_particles(
      rt, "hc", Strategy::kHierarchical, stores, removed, owner);
  std::int64_t after = 0;
  for (int r = 0; r < nranks; ++r) {
    after += static_cast<std::int64_t>(stores[r].size());
    for (std::size_t i = 0; i < stores[r].size(); ++i)
      EXPECT_EQ(owner[stores[r].cells()[i]], r);
  }
  EXPECT_EQ(after, total);
  EXPECT_EQ(st.migrated + st.kept, total);
}

TEST(ExchangeHierarchical, FewerInterNodeTransactionsThanDistributed) {
  par::MachineProfile prof = par::MachineProfile::tianhe2();
  prof.cores_per_node = 4;
  const int nranks = 16;  // 4 nodes
  auto run = [&](Strategy s) {
    par::Runtime rt(nranks, par::Topology(prof, nranks));
    std::vector<ParticleStore> stores(nranks);
    std::vector<std::vector<std::uint8_t>> removed(nranks);
    std::vector<std::int32_t> owner(nranks * 2);
    for (std::size_t c = 0; c < owner.size(); ++c)
      owner[c] = static_cast<std::int32_t>(c % nranks);
    Rng rng(9);
    for (int r = 0; r < nranks; ++r) {
      for (int i = 0; i < 100; ++i) {
        ParticleRecord p;
        p.cell = static_cast<std::int32_t>(rng.uniform_index(owner.size()));
        p.id = r * 1000 + i;
        stores[r].add(p);
      }
      removed[r].assign(stores[r].size(), 0);
    }
    exchange_particles(rt, "x", s, stores, removed, owner);
    return rt;
  };
  const auto dc = run(Strategy::kDistributed);
  const auto hc = run(Strategy::kHierarchical);
  // HC's dense leader round is N_nodes^2 instead of N^2; with full pairwise
  // traffic DC ships ~N(N-1) messages while HC ships far fewer.
  EXPECT_LT(hc.phase_stats("x").transactions,
            dc.phase_stats("x").transactions);
}

// Every strategy gives the same stores, stats, clocks and phase stats
// whether its rank bodies run in rank order (threads 1) or concurrently on
// the pool (threads 4 < 10 ranks), each rank sending from its own arena.
TEST(ExchangeThreads, RankDispatchMatchesSerialForEveryStrategy) {
  par::MachineProfile prof = par::MachineProfile::tianhe2();
  prof.cores_per_node = 4;  // 3 nodes: HC's leader round is exercised
  constexpr int kRanks = 10;
  std::vector<std::vector<int>> ring(kRanks);
  for (int r = 0; r < kRanks; ++r)
    ring[r] = {(r + kRanks - 1) % kRanks, (r + 1) % kRanks};
  struct Result {
    std::vector<std::vector<std::int64_t>> ids;
    std::vector<std::vector<double>> px;
    std::vector<std::vector<std::int32_t>> cells;
    std::int64_t migrated, kept, dropped;
    std::vector<double> clocks;
    par::PhaseStats phase;
  };
  auto run = [&](Strategy strategy, int threads) {
    par::Runtime rt(kRanks, par::Topology(prof, kRanks), 1.0, 1.0, threads);
    std::vector<ParticleStore> stores(kRanks);
    std::vector<std::vector<std::uint8_t>> removed(kRanks);
    std::vector<std::int32_t> owner(kRanks * 5);
    for (std::size_t c = 0; c < owner.size(); ++c)
      owner[c] = static_cast<std::int32_t>((c * 7) % kRanks);
    Rng rng(17);
    std::int64_t id = 0;
    for (int r = 0; r < kRanks; ++r) {
      for (int i = 0; i < 60 + 10 * r; ++i) {
        ParticleRecord p;
        p.cell = static_cast<std::int32_t>(rng.uniform_index(owner.size()));
        p.id = id++;
        p.position = {rng.uniform(), rng.uniform(), rng.uniform()};
        stores[r].add(p);
      }
      removed[r].assign(stores[r].size(), 0);
      for (std::size_t i = 0; i < removed[r].size(); i += 11) removed[r][i] = 1;
    }
    const ExchangeStats st = exchange_particles(rt, "x", strategy, stores,
                                                removed, owner, 0, &ring);
    Result out{{}, {}, {}, st.migrated, st.kept, st.dropped, {},
               rt.phase_stats("x")};
    for (int r = 0; r < kRanks; ++r) {
      const auto ids = stores[r].ids();
      const auto cells = stores[r].cells();
      out.ids.emplace_back(ids.begin(), ids.end());
      out.cells.emplace_back(cells.begin(), cells.end());
      out.px.emplace_back();
      for (std::size_t i = 0; i < stores[r].size(); ++i)
        out.px.back().push_back(stores[r].record(i).position.x);
      out.clocks.push_back(rt.clock(r));
    }
    EXPECT_EQ(rt.undelivered_messages(), 0u);
    return out;
  };
  for (const Strategy s : {Strategy::kCentralized, Strategy::kDistributed,
                           Strategy::kHierarchical, Strategy::kNeighbor}) {
    SCOPED_TRACE(strategy_name(s));
    const Result want = run(s, 1);
    const Result got = run(s, 4);
    EXPECT_GT(want.migrated, 0);
    EXPECT_GT(want.dropped, 0);
    EXPECT_EQ(got.ids, want.ids);
    EXPECT_EQ(got.cells, want.cells);
    EXPECT_EQ(got.px, want.px);
    EXPECT_EQ(got.migrated, want.migrated);
    EXPECT_EQ(got.kept, want.kept);
    EXPECT_EQ(got.dropped, want.dropped);
    EXPECT_EQ(got.clocks, want.clocks);
    EXPECT_EQ(got.phase.busy_max, want.phase.busy_max);
    EXPECT_EQ(got.phase.busy_min, want.phase.busy_min);
    EXPECT_EQ(got.phase.busy_sum, want.phase.busy_sum);
    EXPECT_EQ(got.phase.transactions, want.phase.transactions);
    EXPECT_EQ(got.phase.bytes, want.phase.bytes);
  }
}

TEST(ExchangeCosts, CentralizedSerializesAtRoot) {
  const int nranks = 8;
  World w(nranks, nranks * 4);
  w.scatter_random_particles(200, 5);
  exchange_particles(w.rt, "cc", Strategy::kCentralized, w.stores, w.removed,
                     w.owner);
  // Root (rank 0) must be the busiest in the exchange phase.
  const auto busy = w.rt.phase_busy("cc");
  for (int r = 1; r < nranks; ++r) EXPECT_GE(busy[0], busy[r]);
}

TEST(ExchangeCosts, TransactionCountsMatchTheory) {
  // Centralized: ~2N messages (gather + scatter). Distributed: only
  // non-empty pairs ship data but all pairs pay latency.
  const int nranks = 6;
  World cc(nranks, nranks * 4), dc(nranks, nranks * 4);
  cc.scatter_random_particles(100, 11);
  dc.scatter_random_particles(100, 11);
  exchange_particles(cc.rt, "x", Strategy::kCentralized, cc.stores, cc.removed,
                     cc.owner);
  exchange_particles(dc.rt, "x", Strategy::kDistributed, dc.stores, dc.removed,
                     dc.owner);
  const auto cc_tx = cc.rt.phase_stats("x").transactions;
  const auto dc_tx = dc.rt.phase_stats("x").transactions;
  EXPECT_LE(cc_tx, static_cast<std::uint64_t>(2 * nranks));
  EXPECT_GT(cc_tx, 0u);
  EXPECT_LE(dc_tx, static_cast<std::uint64_t>(nranks * (nranks - 1)));
  // Data volume: CC moves migrated records twice (to root, then out), minus
  // the root's own share which never crosses the wire — ratio ~ 2 - 2/N.
  const double cc_bytes = cc.rt.phase_stats("x").bytes;
  const double dc_bytes = dc.rt.phase_stats("x").bytes;
  EXPECT_GT(cc_bytes, 1.4 * dc_bytes);
  EXPECT_LT(cc_bytes, 2.1 * dc_bytes);
}

TEST(ExchangeCosts, DistributedLatencyGrowsWithRanks) {
  // With almost no particles, DC cost is dominated by the N(N-1) handshake
  // latency and must grow superlinearly with N, while CC stays ~2N.
  auto run = [](Strategy s, int nranks) {
    World w(nranks, nranks);
    // One particle total, already local.
    ParticleRecord p;
    p.cell = 0;
    w.stores[0].add(p);
    w.removed[0].assign(1, 0);
    exchange_particles(w.rt, "x", s, w.stores, w.removed, w.owner);
    return w.rt.phase_stats("x").busy_max;
  };
  const double dc16 = run(Strategy::kDistributed, 16);
  const double dc64 = run(Strategy::kDistributed, 64);
  const double cc16 = run(Strategy::kCentralized, 16);
  const double cc64 = run(Strategy::kCentralized, 64);
  EXPECT_GT(dc64, 3.0 * dc16);  // ~linear-per-rank growth in N
  EXPECT_GT(dc64, cc64 * 3.0);  // DC much worse than CC when empty at scale
  EXPECT_GE(cc16, 0.0);
}

}  // namespace
}  // namespace dsmcpic::exchange
