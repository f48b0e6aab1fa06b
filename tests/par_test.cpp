#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "par/channel.hpp"
#include "par/machine.hpp"
#include "par/runtime.hpp"
#include "support/serialize.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::par {
namespace {

Runtime make_runtime(int n, double pscale = 1.0, double gscale = 1.0,
                     Placement placement = Placement::kInnerFrame) {
  return Runtime(n, Topology(MachineProfile::tianhe2(), n, placement), pscale,
                 gscale);
}

TEST(Topology, NodeMappingDense) {
  const Topology t(MachineProfile::tianhe2(), 96);  // 24 cores/node
  EXPECT_EQ(t.nodes_in_use(), 4);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(23), 0);
  EXPECT_EQ(t.node_of(24), 1);
  EXPECT_EQ(t.node_of(95), 3);
}

TEST(Topology, AlphaTiersOrdered) {
  const MachineProfile p = MachineProfile::tianhe2();
  // 24 cores/node, 32 nodes/frame, 4 frames/rack.
  const int n = 24 * 32 * 4 * 2;  // spans two racks
  const Topology t(p, n);
  const double intra = t.alpha(0, 1);            // same node
  const double frame = t.alpha(0, 24);           // same frame, other node
  const double rack = t.alpha(0, 24 * 32);       // other frame, same rack
  const double inter = t.alpha(0, 24 * 32 * 4);  // other rack
  EXPECT_EQ(intra, p.alpha_intra_node);
  EXPECT_EQ(frame, p.alpha_inner_frame);
  EXPECT_EQ(rack, p.alpha_inner_rack);
  EXPECT_EQ(inter, p.alpha_inter_rack);
  EXPECT_LT(intra, frame);
  EXPECT_LT(frame, rack);
  EXPECT_LT(rack, inter);
}

TEST(Topology, PlacementChangesDistance) {
  const MachineProfile p = MachineProfile::tianhe2();
  const int n = 96;  // 4 nodes
  const Topology dense(p, n, Placement::kInnerFrame);
  const Topology spread(p, n, Placement::kInterRack);
  // Ranks on different nodes: dense keeps them in one frame, inter-rack
  // placement puts every node in its own rack.
  EXPECT_EQ(dense.alpha(0, 95), p.alpha_inner_frame);
  EXPECT_EQ(spread.alpha(0, 95), p.alpha_inter_rack);
  // Same node is intra-node under every placement.
  EXPECT_EQ(spread.alpha(0, 1), p.alpha_intra_node);
}

TEST(Topology, InnerRackSpreadsAcrossFrames) {
  const MachineProfile p = MachineProfile::tianhe2();
  const Topology t(p, 24 * 8, Placement::kInnerRack);
  // Slots 0 and 1 land in different frames of the same rack.
  EXPECT_NE(t.frame_of(0), t.frame_of(24));
  EXPECT_EQ(t.rack_of(0), t.rack_of(24));
}

TEST(Runtime, MessageDeliveryNextSuperstep) {
  Runtime rt = make_runtime(3);
  rt.superstep("send", [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<int> payload{1, 2, 3};
      c.send_pod<int>(2, 5, payload);
    }
    EXPECT_TRUE(c.inbox().empty());
  });
  int delivered = 0;
  rt.superstep("recv", [&](Comm& c) {
    for (const auto& m : c.inbox()) {
      EXPECT_EQ(c.rank(), 2);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 5);
      const auto v = m.view<int>();
      ASSERT_EQ(v.size(), 3u);
      EXPECT_EQ(v[2], 3);
      ++delivered;
    }
  });
  EXPECT_EQ(delivered, 1);
}

TEST(Runtime, InboxClearedAfterSuperstep) {
  Runtime rt = make_runtime(2);
  rt.superstep("a", [](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, {});
  });
  rt.superstep("b", [](Comm& c) {
    if (c.rank() == 1) {
      EXPECT_EQ(c.inbox().size(), 1u);
    }
  });
  rt.superstep("c", [](Comm& c) { EXPECT_TRUE(c.inbox().empty()); });
}

TEST(Runtime, ChargeAdvancesClockAndBusy) {
  Runtime rt = make_runtime(2);
  rt.superstep("work", [](Comm& c) {
    if (c.rank() == 0) c.charge(WorkKind::kMove, 1000.0);
  });
  const double cost =
      1000.0 *
      MachineProfile::tianhe2().costs[static_cast<int>(WorkKind::kMove)];
  EXPECT_DOUBLE_EQ(rt.clock(0), cost);
  EXPECT_DOUBLE_EQ(rt.clock(1), 0.0);
  EXPECT_DOUBLE_EQ(rt.phase_stats("work").busy_max, cost);
  EXPECT_DOUBLE_EQ(rt.phase_stats("work").busy_min, 0.0);
}

TEST(Runtime, CostClassScalesApply) {
  Runtime rt = make_runtime(1, /*pscale=*/100.0, /*gscale=*/3.0);
  rt.superstep("p", [](Comm& c) { c.charge(WorkKind::kMove, 1.0); });
  rt.superstep("g", [](Comm& c) { c.charge(WorkKind::kSpmvFlop, 1.0); });
  const auto& costs = MachineProfile::tianhe2().costs;
  EXPECT_DOUBLE_EQ(rt.phase_stats("p").busy_max,
                   100.0 * costs[static_cast<int>(WorkKind::kMove)]);
  EXPECT_DOUBLE_EQ(rt.phase_stats("g").busy_max,
                   3.0 * costs[static_cast<int>(WorkKind::kSpmvFlop)]);
}

TEST(Runtime, BarrierAlignsClocks) {
  Runtime rt = make_runtime(3);
  rt.superstep("w", [](Comm& c) {
    c.charge(WorkKind::kGeneric, 1e6 * (c.rank() + 1));
  });
  EXPECT_LT(rt.clock(0), rt.clock(2));
  rt.barrier("sync");
  EXPECT_DOUBLE_EQ(rt.clock(0), rt.clock(2));
  EXPECT_GE(rt.clock(0), 3e-3);  // at least the largest pre-barrier clock
}

TEST(Runtime, AllreduceSumAndExtremes) {
  Runtime rt = make_runtime(4);
  const std::vector<double> vals{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(rt.allreduce_sum("x", vals), 10.0);
}

TEST(Runtime, AllreduceSumVecElementwise) {
  Runtime rt = make_runtime(3);
  const std::vector<std::vector<double>> per_rank{{1, 10}, {2, 20}, {3, 30}};
  const auto sum = rt.allreduce_sum_vec("x", per_rank);
  ASSERT_EQ(sum.size(), 2u);
  EXPECT_DOUBLE_EQ(sum[0], 6.0);
  EXPECT_DOUBLE_EQ(sum[1], 60.0);
}

TEST(Runtime, ExscanSum) {
  Runtime rt = make_runtime(4);
  const std::vector<std::int64_t> vals{5, 3, 2, 7};
  const auto off = rt.exscan_sum("x", vals);
  EXPECT_EQ(off, (std::vector<std::int64_t>{0, 5, 8, 10}));
}

TEST(Runtime, MessageCostChargedToBothEndpoints) {
  Runtime rt = make_runtime(2);
  std::vector<std::byte> payload(1000);
  rt.superstep("comm", [&](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, payload);
  });
  const MachineProfile p = MachineProfile::tianhe2();
  // Both ranks are on one node: alpha intra; small congestion for 1 message.
  const double expected_min = p.alpha_intra_node + 1000.0 * p.beta;
  EXPECT_GE(rt.clock(0), expected_min);
  EXPECT_GE(rt.clock(1), expected_min);
  EXPECT_EQ(rt.phase_stats("comm").transactions, 1u);
  EXPECT_DOUBLE_EQ(rt.phase_stats("comm").bytes, 1000.0);
}

TEST(Runtime, CongestionHintRaisesCost) {
  Runtime rt1 = make_runtime(2);
  Runtime rt2 = make_runtime(2);
  std::vector<std::byte> payload(8);
  rt1.superstep("c", [&](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, payload);
  });
  rt2.hint_round_transactions(1000000);
  rt2.superstep("c", [&](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, payload);
  });
  EXPECT_GT(rt2.clock(0), rt1.clock(0) * 10.0);
}

TEST(Runtime, GatherSerializesAtRoot) {
  Runtime rt = make_runtime(8);
  rt.charge_gather("g", 0, 1000.0);
  // Root pays ~7 transfers, everyone else one.
  EXPECT_GT(rt.clock(0), 5.0 * rt.clock(1));
}

TEST(Runtime, BusyTotalsAcrossPhases) {
  Runtime rt = make_runtime(2);
  rt.superstep("a", [](Comm& c) {
    if (c.rank() == 0) c.charge(WorkKind::kGeneric, 1e6);
  });
  rt.superstep("b", [](Comm& c) {
    if (c.rank() == 1) c.charge(WorkKind::kGeneric, 1e6);
  });
  const std::vector<std::string> both{"a", "b"};
  const auto tot = rt.busy_totals(both);
  EXPECT_DOUBLE_EQ(tot[0], tot[1]);
  EXPECT_GT(tot[0], 0.0);
  const auto all = rt.busy_all();
  EXPECT_DOUBLE_EQ(all[0], tot[0]);
}

TEST(Runtime, DeterministicAcrossRuns) {
  auto run = [] {
    Runtime rt = make_runtime(4);
    for (int s = 0; s < 5; ++s) {
      rt.superstep("w", [s](Comm& c) {
        c.charge(WorkKind::kMove, 100.0 * (c.rank() + s));
        const std::vector<double> x{1.0};
        if (c.rank() > 0) c.send_pod<double>(c.rank() - 1, 0, x);
      });
    }
    rt.barrier("end");
    return rt.total_time();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Runtime, SendOwnedAndViewRoundTrip) {
  Runtime rt = make_runtime(2);
  rt.superstep("a", [](Comm& c) {
    if (c.rank() != 0) return;
    const std::span<double> vals = c.stage<double>(1, 9, 3, CostClass::kGrid);
    vals[0] = 1.5;
    vals[1] = -2.5;
    vals[2] = 3.25;
  });
  rt.superstep("b", [](Comm& c) {
    if (c.rank() != 1) return;
    ASSERT_EQ(c.inbox().size(), 1u);
    const auto v = c.inbox()[0].view<double>();
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], 1.5);
    EXPECT_DOUBLE_EQ(v[1], -2.5);
    EXPECT_DOUBLE_EQ(v[2], 3.25);
  });
}

TEST(Runtime, GridScaleAppliesToGridPayloads) {
  // Same payload, particle- vs grid-class: byte costs differ by the scale
  // ratio (latency term subtracted out by comparing against a baseline).
  auto comm_cost = [](CostClass cls, double pscale, double gscale) {
    Runtime rt(2, Topology(MachineProfile::tianhe2(), 2), pscale, gscale);
    std::vector<std::byte> payload(100000);
    rt.superstep("x", [&](Comm& c) {
      if (c.rank() == 0) c.send(1, 0, payload, cls);
    });
    return rt.phase_stats("x").bytes;
  };
  EXPECT_DOUBLE_EQ(comm_cost(CostClass::kParticle, 7.0, 3.0), 700000.0);
  EXPECT_DOUBLE_EQ(comm_cost(CostClass::kGrid, 7.0, 3.0), 300000.0);
}

TEST(Runtime, PhaseStatsForUnknownPhaseAreZero) {
  Runtime rt = make_runtime(2);
  const PhaseStats s = rt.phase_stats("never-used");
  EXPECT_EQ(s.busy_max, 0.0);
  EXPECT_EQ(s.transactions, 0u);
}

TEST(Runtime, ChargeRankOutsideSuperstep) {
  Runtime rt = make_runtime(3);
  rt.charge_rank("p", 1, WorkKind::kPartitionEdge, 1e6);
  EXPECT_GT(rt.clock(1), 0.0);
  EXPECT_EQ(rt.clock(0), 0.0);
  EXPECT_GT(rt.phase_stats("p").busy_max, 0.0);
}

// The routing contract after per-rank staging: every inbox receives its
// messages sorted by source rank, ties broken by the order the source sent
// them ("src-major, send-order"). This is what the sequential 0..N-1
// schedule always produced; the per-sender staging buffers preserve it
// under rank dispatch (4 ranks > 3 lanes) by merging buffers in rank order.
TEST(Runtime, InboxOrderingIsSrcMajorSendOrder) {
  for (const int threads : {1, 3}) {
    Runtime rt(4, Topology(MachineProfile::tianhe2(), 4), 1.0, 1.0, threads);
    rt.superstep("send", [](Comm& c) {
      // Every rank sends two tagged messages to rank 0, second one first to
      // a different destination so buffers interleave destinations too.
      c.send(0, /*tag=*/c.rank() * 10 + 0, {});
      c.send(1, /*tag=*/c.rank() * 10 + 5, {});
      c.send(0, /*tag=*/c.rank() * 10 + 1, {});
    });
    rt.superstep("recv", [&](Comm& c) {
      if (c.rank() == 0) {
        ASSERT_EQ(c.inbox().size(), 8u);
        for (int src = 0; src < 4; ++src) {
          EXPECT_EQ(c.inbox()[2 * src].src, src);
          EXPECT_EQ(c.inbox()[2 * src].tag, src * 10 + 0);
          EXPECT_EQ(c.inbox()[2 * src + 1].src, src);
          EXPECT_EQ(c.inbox()[2 * src + 1].tag, src * 10 + 1);
        }
      }
      if (c.rank() == 1) {
        ASSERT_EQ(c.inbox().size(), 4u);
        for (int src = 0; src < 4; ++src) {
          EXPECT_EQ(c.inbox()[src].src, src);
          EXPECT_EQ(c.inbox()[src].tag, src * 10 + 5);
        }
      }
    });
  }
}

// Rank dispatch (8 ranks > 4 lanes) must be invisible in every accounted
// number: same clocks (bitwise), same phase stats, same message costs.
TEST(Runtime, ThreadedSuperstepsMatchSequentialBitwise) {
  auto run = [](int threads) {
    Runtime rt(8, Topology(MachineProfile::tianhe2(), 8), 3.0, 2.0, threads);
    for (int s = 0; s < 6; ++s) {
      rt.superstep("work", [s](Comm& c) {
        c.charge(WorkKind::kMove, 137.0 * (c.rank() + 1) + s);
        const std::vector<double> x{1.0 + c.rank(), 2.0};
        c.send_pod<double>((c.rank() + 1 + s) % c.size(), s, x);
        if (c.rank() % 2 == 0)
          c.send_pod<double>((c.rank() + 3) % c.size(), 100 + s, x,
                             CostClass::kGrid);
      });
      rt.superstep("drain", [](Comm& c) {
        double acc = 0.0;
        for (const auto& m : c.inbox())
          for (const double v : m.view<double>()) acc += v;
        c.charge(WorkKind::kVecFlop, acc);
      });
    }
    rt.barrier("end");
    return rt;
  };
  const Runtime a = run(1);
  const Runtime b = run(4);
  for (int r = 0; r < a.size(); ++r) EXPECT_EQ(a.clock(r), b.clock(r));
  ASSERT_EQ(a.phases(), b.phases());
  for (const auto& p : a.phases()) {
    const PhaseStats sa = a.phase_stats(p);
    const PhaseStats sb = b.phase_stats(p);
    EXPECT_EQ(sa.busy_max, sb.busy_max) << p;
    EXPECT_EQ(sa.busy_min, sb.busy_min) << p;
    EXPECT_EQ(sa.busy_sum, sb.busy_sum) << p;
    EXPECT_EQ(sa.transactions, sb.transactions) << p;
    EXPECT_EQ(sa.bytes, sb.bytes) << p;
    EXPECT_EQ(a.phase_busy(p), b.phase_busy(p)) << p;
  }
}

TEST(Runtime, ThreadedExposesLaneCount) {
  Runtime seq = make_runtime(4);
  EXPECT_EQ(seq.threads(), 1);
  EXPECT_EQ(seq.pool(), nullptr);
  Runtime thr(4, Topology(MachineProfile::tianhe2(), 4), 1.0, 1.0, 3);
  EXPECT_EQ(thr.threads(), 3);
  ASSERT_NE(thr.pool(), nullptr);
  EXPECT_EQ(thr.pool()->num_threads(), 3);
  EXPECT_THROW(Runtime(4, Topology(MachineProfile::tianhe2(), 4), 1.0, 1.0,
                       -1),
               Error);
}

// The thread-budget rule, kernel side: with no more active ranks than
// lanes, every body runs on the calling thread in rank order, so kernels
// inside the bodies own the whole pool.
TEST(Runtime, FewerRanksThanLanesRunBodiesOnTheCaller) {
  Runtime rt(3, Topology(MachineProfile::tianhe2(), 3), 1.0, 1.0, 4);
  ASSERT_EQ(rt.threads(), 4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  rt.superstep("bodies", [&](Comm& c) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "rank " << c.rank();
    EXPECT_FALSE(rt.pool()->in_batch()) << "rank " << c.rank();
    order.push_back(c.rank());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// The rank side: with more active ranks than lanes, bodies run inside the
// pool's batch, where a kernel's nested parallel_for runs inline.
TEST(Runtime, MoreRanksThanLanesRunBodiesOnThePool) {
  Runtime rt(6, Topology(MachineProfile::tianhe2(), 6), 1.0, 1.0, 2);
  std::vector<int> in_batch(6, 0);
  rt.superstep("bodies", [&](Comm& c) {
    in_batch[c.rank()] = rt.pool()->in_batch() ? 1 : 0;
  });
  EXPECT_EQ(in_batch, std::vector<int>(6, 1));
  // Shrinking the active set to the lane count flips the same runtime to
  // caller-side bodies.
  rt.set_active_ranks(2);
  rt.superstep("bodies", [&](Comm& c) {
    in_batch[c.rank()] = rt.pool()->in_batch() ? 1 : 0;
  });
  EXPECT_EQ(in_batch[0], 0);
  EXPECT_EQ(in_batch[1], 0);
}

TEST(Runtime, HintInsideSuperstepBodyThrows) {
  Runtime rt = make_runtime(2);
  EXPECT_THROW(
      rt.superstep("bad", [&](Comm& c) {
        if (c.rank() == 0) rt.hint_round_transactions(7);
      }),
      Error);
}

TEST(Runtime, MessageArenaStopsGrowingInSteadyState) {
  // A fixed communication pattern repeated over supersteps: once both
  // parities have carried one round, the arenas hold their capacity and
  // later rounds allocate nothing.
  Runtime rt = make_runtime(4);
  auto round = [&] {
    rt.superstep("ring", [](Comm& c) {
      const std::vector<double> vals(16, static_cast<double>(c.rank()));
      c.send_pod<double>((c.rank() + 1) % c.size(), 0, vals);
    });
  };
  for (int i = 0; i < 2; ++i) round();
  const std::size_t warm = rt.arena_bytes();
  EXPECT_GE(warm, 2 * 4 * 16 * sizeof(double));
  for (int i = 0; i < 5; ++i) round();
  EXPECT_EQ(rt.arena_bytes(), warm) << "steady-state supersteps allocated";
}

/// Distinct, non-zero test values: message m's element i.
double pattern(int m, std::size_t i) { return 1000.0 * (m + 1) + i + 0.5; }

// A body's later send may grow (move) its arena. Sends are offsets until
// routing, so the messages staged before the move arrive byte-exact.
TEST(Runtime, ArenaGrowthKeepsEarlierMessagesIntact) {
  const std::vector<std::size_t> sizes{3, 5000, 40000};  // each one grows
  Runtime rt = make_runtime(2);
  rt.superstep("grow", [&](Comm& c) {
    if (c.rank() != 0) return;
    for (std::size_t m = 0; m < sizes.size(); ++m) {
      std::vector<double> vals(sizes[m]);
      for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = pattern(static_cast<int>(m), i);
      c.send_pod<double>(1, static_cast<int>(m), vals);
    }
  });
  rt.superstep("check", [&](Comm& c) {
    if (c.rank() != 1) return;
    ASSERT_EQ(c.inbox().size(), sizes.size());
    for (std::size_t m = 0; m < sizes.size(); ++m) {
      const auto vals = c.inbox()[m].view<double>();
      ASSERT_EQ(vals.size(), sizes[m]);
      for (std::size_t i = 0; i < vals.size(); ++i)
        ASSERT_EQ(vals[i], pattern(static_cast<int>(m), i))
            << "message " << m << " element " << i;
    }
  });
}

// Payloads of any trivially copyable type can be viewed in place: every
// message starts on a max_align_t boundary, even after an odd-sized one.
TEST(Runtime, EveryMessageIsMaxAligned) {
  struct Record {  // ParticleRecord's shape
    double position[3];
    double velocity[3];
    std::int64_t id;
    std::int32_t species;
    std::int32_t cell;
  };
  Runtime rt = make_runtime(2);
  rt.superstep("send", [](Comm& c) {
    if (c.rank() != 0) return;
    const std::byte one{0x5A};
    c.send(1, 0, std::span<const std::byte>(&one, 1));
    const std::vector<double> d{1.25, -7.5};
    c.send_pod<double>(1, 1, d);
    c.send(1, 2, std::span<const std::byte>(&one, 1));
    const std::vector<Record> recs{{{1, 2, 3}, {4, 5, 6}, 42, 1, 7},
                                   {{-1, -2, -3}, {0, 0, 1}, 43, 0, 9}};
    c.send_pod<Record>(1, 3, recs);
  });
  rt.superstep("recv", [](Comm& c) {
    if (c.rank() != 1) return;
    ASSERT_EQ(c.inbox().size(), 4u);
    for (const Message& m : c.inbox())
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.bytes.data()) %
                    alignof(std::max_align_t),
                0u)
          << "message " << m.tag;
    EXPECT_EQ(c.inbox()[0].bytes[0], std::byte{0x5A});
    const auto d = c.inbox()[1].view<double>();
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0], 1.25);
    EXPECT_EQ(d[1], -7.5);
    const auto recs = c.inbox()[3].view<Record>();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].id, 42);
    EXPECT_EQ(recs[0].velocity[2], 6.0);
    EXPECT_EQ(recs[1].cell, 9);
    EXPECT_EQ(recs[1].position[0], -1.0);
  });
}

// Each rank reads the message sent to it in superstep S while it sends the
// next one in S+1, for several rounds. A rank that overwrote its S bytes in
// S+1 would corrupt what its receiver reads later in S+1 (rank order at
// threads 1) or at the same time (rank dispatch at threads 4 < 6 ranks).
TEST(Runtime, RelayReadsTheLastSuperstepWhileSendingTheNext) {
  constexpr int kRanks = 6;
  constexpr std::size_t kLen = 257;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Runtime rt(kRanks, Topology(MachineProfile::tianhe2(), kRanks), 1.0, 1.0,
               threads);
    auto send = [](Comm& c, int round) {
      const std::span<double> out =
          c.stage<double>((c.rank() + 1) % kRanks, round, kLen);
      for (std::size_t i = 0; i < kLen; ++i)
        out[i] = pattern(round * kRanks + c.rank(), i);
    };
    std::vector<int> received(kRanks, 0);
    rt.superstep("relay", [&](Comm& c) { send(c, 0); });
    for (int round = 1; round <= 4; ++round)
      rt.superstep("relay", [&](Comm& c) {
        ASSERT_EQ(c.inbox().size(), 1u);
        const Message& m = c.inbox()[0];
        const int src = (c.rank() + kRanks - 1) % kRanks;
        EXPECT_EQ(m.src, src);
        send(c, round);  // before reading: a shared buffer shows here
        const auto vals = m.view<double>();
        ASSERT_EQ(vals.size(), kLen);
        for (std::size_t i = 0; i < kLen; ++i)
          ASSERT_EQ(vals[i], pattern((round - 1) * kRanks + src, i))
              << "round " << round << " element " << i;
        ++received[c.rank()];
      });
    rt.superstep("drain", [](Comm&) {});
    EXPECT_EQ(received, std::vector<int>(kRanks, 4));
  }
}

TEST(Runtime, ActiveRankShrinkFreezesParkedClocks) {
  Runtime rt = make_runtime(4);
  rt.superstep("warm", [](Comm& c) { c.charge(WorkKind::kGeneric, 100.0); });
  rt.barrier("warm");
  const double frozen = rt.clock(3);
  rt.set_active_ranks(2);
  EXPECT_EQ(rt.active_ranks(), 2);
  std::vector<int> ran(4, 0);
  rt.superstep("shrunk", [&](Comm& c) {
    ran[static_cast<std::size_t>(c.rank())] = 1;
    c.charge(WorkKind::kGeneric, 50.0);
  });
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 0, 0}));
  EXPECT_EQ(rt.clock(3), frozen) << "parked clocks must not advance";
  EXPECT_GT(rt.clock(0), frozen);
}

TEST(Runtime, ActiveRankGrowJoinsAtFrontier) {
  Runtime rt = make_runtime(4);
  rt.set_active_ranks(2);
  rt.superstep("half", [](Comm& c) { c.charge(WorkKind::kGeneric, 1000.0); });
  rt.barrier("half");
  const double frontier = rt.clock(0);
  rt.set_active_ranks(4);
  // Reactivated ranks cannot time-travel: they rejoin at the active
  // frontier, never behind it.
  EXPECT_GE(rt.clock(2), frontier);
  EXPECT_GE(rt.clock(3), frontier);
  std::vector<int> ran(4, 0);
  rt.superstep("full", [&](Comm& c) {
    ran[static_cast<std::size_t>(c.rank())] = 1;
  });
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1}));
}

TEST(Runtime, SetActiveRanksValidation) {
  Runtime rt = make_runtime(4);
  EXPECT_THROW(rt.set_active_ranks(0), Error);
  EXPECT_THROW(rt.set_active_ranks(5), Error);
  rt.superstep("fly", [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<double> v{1.0};
      c.send_pod<double>(1, 0, v, CostClass::kParticle);
    }
  });
  // Messages in flight: resizing would strand them.
  EXPECT_THROW(rt.set_active_ranks(2), Error);
  rt.superstep("drain", [](Comm&) {});
  rt.set_active_ranks(2);
  EXPECT_EQ(rt.active_ranks(), 2);
}

TEST(Runtime, SendToParkedRankThrows) {
  Runtime rt = make_runtime(4);
  rt.set_active_ranks(2);
  EXPECT_THROW(rt.superstep("bad",
                            [](Comm& c) {
                              if (c.rank() != 0) return;
                              const std::vector<double> v{1.0};
                              c.send_pod<double>(3, 0, v, CostClass::kParticle);
                            }),
               Error);
}

TEST(Runtime, HintAllPairsMatchesExplicitDenseHint) {
  // The runtime-owned all-pairs hint must charge exactly what the dense
  // exchange's explicit N(N-1) hint charges — and track the active set.
  auto phase_time = [](int nranks, int active, bool explicit_hint) {
    Runtime rt(6, Topology(MachineProfile::tianhe2(), 6), 1.0, 1.0);
    if (active < nranks) rt.set_active_ranks(active);
    if (explicit_hint)
      rt.hint_round_transactions(static_cast<std::uint64_t>(active) *
                                 static_cast<std::uint64_t>(active - 1));
    else
      rt.hint_round_transactions_all_pairs();
    std::vector<std::byte> payload(4096);
    rt.superstep("x", [&](Comm& c) {
      if (c.rank() == 0) c.send(1, 0, payload, CostClass::kParticle);
    });
    rt.barrier("x");
    return rt.total_time();
  };
  EXPECT_EQ(phase_time(6, 6, true), phase_time(6, 6, false));
  EXPECT_EQ(phase_time(6, 4, true), phase_time(6, 4, false));
  // Fewer active pairs -> less congestion -> strictly cheaper round.
  EXPECT_LT(phase_time(6, 4, false), phase_time(6, 6, false));
}

TEST(Runtime, SuperstepCounterCounts) {
  Runtime rt = make_runtime(2);
  EXPECT_EQ(rt.supersteps(), 0u);
  rt.superstep("a", [](Comm&) {});
  rt.superstep("b", [](Comm&) {});
  EXPECT_EQ(rt.supersteps(), 2u);
}

/// A hand-written Runtime::save stream for 3 ranks: one phase per
/// (name, busy row) pair.
std::string runtime_stream(
    const std::vector<std::pair<std::string, std::vector<double>>>& phases) {
  std::ostringstream os;
  io::write_pod<std::int32_t>(os, 3);   // active ranks
  io::write_pod<std::uint64_t>(os, 7);  // supersteps
  io::write_vec(os, std::vector<double>{1.0, 2.0, 3.0});
  io::write_pod<std::uint64_t>(os, phases.size());
  for (const auto& [name, busy] : phases) {
    io::write_string(os, name);
    io::write_vec(os, busy);
    io::write_pod<std::uint64_t>(os, 1);
    io::write_pod<double>(os, 8.0);
  }
  return os.str();
}

// A busy row shorter than the rank count would be written past its end by
// the next charge (and an empty one breaks phase_stats). The full-length
// row is the control: the stream itself is well formed.
TEST(Runtime, LoadRejectsABusyRowOfTheWrongLength) {
  {
    Runtime rt = make_runtime(3);
    std::istringstream is(runtime_stream({{"a", {1, 2, 3}}, {"b", {0, 0, 1}}}));
    rt.load(is);
    EXPECT_EQ(rt.supersteps(), 7u);
    EXPECT_EQ(rt.phases(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(rt.phase_stats("a").busy_max, 3.0);
  }
  for (const std::vector<double>& row :
       {std::vector<double>{1, 2}, std::vector<double>{}}) {
    Runtime rt = make_runtime(3);
    std::istringstream is(runtime_stream({{"a", {1, 2, 3}}, {"b", row}}));
    EXPECT_THROW(rt.load(is), Error) << row.size() << " entries";
  }
}

// Phase ids are positions in the stream: a repeated name would leave one
// busy row that no name reaches.
TEST(Runtime, LoadRejectsADuplicatePhaseName) {
  Runtime rt = make_runtime(3);
  std::istringstream is(runtime_stream({{"a", {1, 2, 3}}, {"a", {4, 5, 6}}}));
  EXPECT_THROW(rt.load(is), Error);
}

// ---- persistent channels ----------------------------------------------------

/// Irregular plans over `n` ranks: some pairs silent, slice lengths 1..5,
/// send indices repeating, receive indices overlapping across peers.
std::pair<HaloPlans, HaloPlans> irregular_plans(int n) {
  HaloPlans send(n), recv(n);
  for (int r = 0; r < n; ++r)
    for (int p = 0; p < n; ++p) {
      if (p == r || (r + p) % 3 == 0) continue;
      const int len = 1 + (r * 7 + p * 3) % 5;
      HaloPlan s{p, {}}, q{r, {}};
      for (int i = 0; i < len; ++i) {
        s.idx.push_back((i * 5 + p) % 16);
        q.idx.push_back(3 * (r % 4) + i);
      }
      send[r].push_back(std::move(s));
      recv[p].push_back(std::move(q));  // r ascends: sorted by peer
    }
  return {std::move(send), std::move(recv)};
}

// A channel post is an owned send of the same bytes in every accounted
// number: inbox order and contents, clocks, phase stats and trace message
// records, with the rank bodies run in order (threads 1) and concurrently
// (threads 4 < 6 ranks). Supersteps 1..3 receive and post on the same
// channel, so concurrent bodies write one parity of the buffers while
// others read the other.
TEST(Channel, PostMatchesSendPodInEveryAccountedNumber) {
  constexpr int kRanks = 6;
  const auto [send, recv] = irregular_plans(kRanks);
  const Channel channel(send, recv);

  struct Run {
    std::vector<double> clocks;
    std::vector<std::vector<double>> acc, last;  // sums, final assignment
    std::vector<std::vector<int>> inbox_src, inbox_tag;
    std::vector<PhaseStats> stats;
    std::vector<trace::MessageRec> messages;
  };
  auto run = [&](bool use_channel, int threads) {
    Runtime rt(kRanks, Topology(MachineProfile::tianhe2(), kRanks), 1.0, 2.5,
               threads);
    trace::TraceRecorder rec(kRanks);
    rt.set_tracer(&rec);
    Run out;
    out.acc.assign(kRanks, std::vector<double>(20, 0.0));
    out.last.assign(kRanks, std::vector<double>(20, 0.0));
    out.inbox_src.resize(kRanks);
    out.inbox_tag.resize(kRanks);
    std::vector<std::vector<double>> v(kRanks, std::vector<double>(16));
    auto post = [&](Comm& c, int round) {
      const int r = c.rank();
      for (int i = 0; i < 16; ++i) v[r][i] = 1000.0 * round + 100 * r + i + 0.25;
      if (use_channel) return channel.post(c, v[r]);
      for (const HaloPlan& plan : send[r]) {
        std::vector<double> vals;
        for (const std::int32_t i : plan.idx) vals.push_back(v[r][i]);
        c.charge(WorkKind::kPackByte,
                 static_cast<double>(vals.size() * sizeof(double)));
        c.send_pod<double>(plan.peer, 0, vals, CostClass::kGrid);
      }
    };
    auto receive = [&](Comm& c, bool add) {
      const int r = c.rank();
      for (const Message& m : c.inbox()) {
        out.inbox_src[r].push_back(m.src);
        out.inbox_tag[r].push_back(m.tag);
      }
      if (use_channel) {
        if (add) return channel.recv_add(c, out.acc[r]);
        return channel.recv_assign(c, out.last[r]);
      }
      for (std::size_t k = 0; k < c.inbox().size(); ++k) {
        const auto vals = c.inbox()[k].view<double>();
        const auto& idx = recv[r][k].idx;
        for (std::size_t i = 0; i < vals.size(); ++i) {
          if (add) {
            out.acc[r][idx[i]] += vals[i];
          } else {
            out.last[r][idx[i]] = vals[i];
          }
        }
        if (add) c.charge(WorkKind::kVecFlop, static_cast<double>(vals.size()));
      }
    };
    rt.superstep("post", [&](Comm& c) { post(c, 0); });
    for (int round = 1; round <= 3; ++round)
      rt.superstep("relay", [&](Comm& c) {
        receive(c, /*add=*/true);
        post(c, round);
      });
    rt.superstep("last", [&](Comm& c) { receive(c, /*add=*/false); });
    EXPECT_EQ(rt.undelivered_messages(), 0u);
    for (int r = 0; r < kRanks; ++r) out.clocks.push_back(rt.clock(r));
    for (const auto& p : rt.phases()) out.stats.push_back(rt.phase_stats(p));
    out.messages = rec.messages();
    return out;
  };

  const Run want = run(/*use_channel=*/false, 1);
  ASSERT_FALSE(want.messages.empty());
  for (const auto& [use_channel, threads] :
       {std::pair{false, 4}, std::pair{true, 1}, std::pair{true, 4}}) {
    SCOPED_TRACE(std::string(use_channel ? "channel" : "send_pod") +
                 " threads " + std::to_string(threads));
    const Run got = run(use_channel, threads);
    EXPECT_EQ(got.clocks, want.clocks);
    EXPECT_EQ(got.acc, want.acc);
    EXPECT_EQ(got.last, want.last);
    EXPECT_EQ(got.inbox_src, want.inbox_src);
    EXPECT_EQ(got.inbox_tag, want.inbox_tag);
    ASSERT_EQ(got.stats.size(), want.stats.size());
    for (std::size_t p = 0; p < want.stats.size(); ++p) {
      EXPECT_EQ(got.stats[p].busy_max, want.stats[p].busy_max);
      EXPECT_EQ(got.stats[p].busy_min, want.stats[p].busy_min);
      EXPECT_EQ(got.stats[p].busy_sum, want.stats[p].busy_sum);
      EXPECT_EQ(got.stats[p].transactions, want.stats[p].transactions);
      EXPECT_EQ(got.stats[p].bytes, want.stats[p].bytes);
    }
    ASSERT_EQ(got.messages.size(), want.messages.size());
    for (std::size_t i = 0; i < want.messages.size(); ++i) {
      const trace::MessageRec& a = got.messages[i];
      const trace::MessageRec& b = want.messages[i];
      EXPECT_EQ(a.src, b.src);
      EXPECT_EQ(a.dst, b.dst);
      EXPECT_EQ(a.tag, b.tag);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(a.scaled_bytes, b.scaled_bytes);
      EXPECT_EQ(a.send_begin, b.send_begin);
      EXPECT_EQ(a.send_end, b.send_end);
      EXPECT_EQ(a.recv_begin, b.recv_begin);
      EXPECT_EQ(a.recv_end, b.recv_end);
      EXPECT_EQ(a.phase, b.phase);
      EXPECT_EQ(a.seq, b.seq);
    }
  }
}

// Repeated channel posts reuse the arena capacity of the first one.
TEST(Channel, SteadyPostsDoNotGrowTheArena) {
  const auto [send, recv] = irregular_plans(4);
  const Channel channel(send, recv);
  Runtime rt = make_runtime(4);
  std::vector<std::vector<double>> v(4, std::vector<double>(16, 1.0));
  std::size_t first = 0;
  for (int s = 0; s < 3; ++s) {
    rt.superstep("post", [&](Comm& c) { channel.post(c, v[c.rank()]); });
    rt.superstep("recv",
                 [&](Comm& c) { channel.recv_add(c, v[c.rank()]); });
    if (s == 0) first = rt.arena_bytes();
  }
  EXPECT_GT(first, 0u);
  EXPECT_EQ(rt.arena_bytes(), first);
  EXPECT_GT(rt.phase_stats("post").transactions, 0u);
}

// The receive side refuses a message from an unplanned peer, a slice of
// the wrong length, and a planned peer that sent nothing.
TEST(Channel, ReceiveRejectsTrafficOffThePlan) {
  const auto [send, recv] = irregular_plans(4);
  auto exchange = [&](const HaloPlans& r) {
    const Channel channel(send, r);
    Runtime rt = make_runtime(4);
    std::vector<std::vector<double>> v(4, std::vector<double>(20, 0.0));
    rt.superstep("post", [&](Comm& c) { channel.post(c, v[c.rank()]); });
    rt.superstep("recv",
                 [&](Comm& c) { channel.recv_assign(c, v[c.rank()]); });
  };
  EXPECT_NO_THROW(exchange(recv));
  HaloPlans wrong_peer = recv;
  wrong_peer[1][0].peer = 1;
  EXPECT_THROW(exchange(wrong_peer), Error);
  HaloPlans wrong_size = recv;
  wrong_size[2][0].idx.push_back(0);
  EXPECT_THROW(exchange(wrong_size), Error);
  HaloPlans missing = recv;
  missing[3].push_back({.peer = 3, .idx = {0}});
  EXPECT_THROW(exchange(missing), Error);
}

TEST(MachineProfiles, ThreePlatformsDiffer) {
  const auto t2 = MachineProfile::tianhe2();
  const auto bs = MachineProfile::bscc();
  const auto t3 = MachineProfile::tianhe3();
  EXPECT_EQ(t2.cores_per_node, 24);
  EXPECT_EQ(bs.cores_per_node, 96);
  EXPECT_EQ(t3.cores_per_node, 64);
  // ARM cores are slower per-core, BSCC faster than Tianhe-2.
  const int mv = static_cast<int>(WorkKind::kMove);
  EXPECT_GT(t3.costs[mv], t2.costs[mv]);
  EXPECT_LT(bs.costs[mv], t2.costs[mv]);
  // Bandwidth ordering: Tianhe-3 200Gbps > Tianhe-2 160 > BSCC 100.
  EXPECT_LT(t3.beta, t2.beta);
  EXPECT_LT(t2.beta, bs.beta);
}

}  // namespace
}  // namespace dsmcpic::par
