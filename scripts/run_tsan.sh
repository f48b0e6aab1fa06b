#!/usr/bin/env bash
# Builds the runtime + determinism tests under ThreadSanitizer and runs
# them. The one thread budget (DESIGN.md §2c) spends the runtime's pool on
# rank bodies when active ranks > threads ("bit-identical by construction,
# no locks in rank bodies") and otherwise on chunked move/collide/react/
# deposit inside them, which claims the same. The filters below run both
# dispatch levels — this is the check that both are actually race-free,
# not just deterministic by luck.
#
#   scripts/run_tsan.sh [build-dir]
#
# scripts/run_asan.sh is the ASan+UBSan lane over the whole ctest suite.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-tsan}"

cmake -B "$BUILD" -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDSMCPIC_SANITIZE=thread
cmake --build "$BUILD" --target par_test support_test exchange_test linalg_test determinism_test trace_test obs_test pic_test balance_policy_test ensemble_test fleet_test telemetry_test -j

# halt_on_error so a race fails the script, not just prints a report.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

"$BUILD"/tests/support_test --gtest_filter='ThreadPool.*:KernelExec.*'
"$BUILD"/tests/par_test
# The blocked parallel deposit (DESIGN.md §2g) above the candidate cutoff:
# per-block scatter buffers + ascending-block reduction on real kernel
# lanes. The solver-level suites stay below the cutoff, so this unit test
# is the only TSan coverage of the deposit's phase-A/phase-B threading.
"$BUILD"/tests/pic_test --gtest_filter='Deposit.*'
# The message arena (DESIGN.md §2i): rank bodies write messages into their
# own arena, picked by superstep parity, while they read other ranks'
# arenas of the other parity. par_test above relays in consecutive
# supersteps (Runtime.Relay*, Channel.*), so a missing parity flip would be
# flagged there. The persistent halo channels pack straight into the
# arena: the distributed CG (the pinned-bits test at threads 4 on 5 ranks,
# the rank-count sweep) and the node reduce/broadcast run their bodies on
# the pool here. Particle migration sends through the same arenas: every
# exchange strategy runs at threads 4 on 10 ranks (rank dispatch).
"$BUILD"/tests/linalg_test --gtest_filter='Dist.*:RankCounts/*'
"$BUILD"/tests/pic_test --gtest_filter='NodeExchange.*'
"$BUILD"/tests/exchange_test
# Kernel-level dispatch first (ranks <= threads: real threads inside
# move/collide/react/deposit; BothDispatchLevelsMatchSerial also runs the
# rank level), then the sorted-traversal suite (periodic cell sort under
# both levels, DESIGN.md §2g), then the full harness, whose
# EveryThreadCountMatchesSerialOnBothSidesOfTheRule sweeps threads 2/4/8
# at 3 and 8 ranks.
"$BUILD"/tests/determinism_test --gtest_filter='KernelThreads.*'
"$BUILD"/tests/determinism_test --gtest_filter='SortDeterminism.*'
# The timer cost model feeds measured virtual time back into the partition
# weights (DESIGN.md §2h); its runs at both dispatch levels re-read the busy
# counters on the driver thread between supersteps, so a racy accounting
# path would surface in this filter before the full harness runs.
"$BUILD"/tests/determinism_test --gtest_filter='CostModelDeterminism.*'
"$BUILD"/tests/determinism_test
# Tracing claims driver-thread-only recording (DESIGN.md §2e); the
# trace suite records solves at threads 4 (rank level) and 8 (kernel
# level), so a racy recorder hook would be flagged here.
"$BUILD"/tests/trace_test
# The health auditor and host profiler claim zero perturbation of the
# deterministic state (DESIGN.md §2f); the audit-enabled determinism suite
# runs audited+profiled solves at threads 4 (rank level) and 8 (kernel
# level), so a racy profiler scope or auditor hook would be flagged here.
"$BUILD"/tests/obs_test
# The cost-model / rebalance-policy unit battery is single-threaded logic,
# but TSan instrumentation still exercises its allocation and EWMA paths
# the same way the solver-level suites consume them.
"$BUILD"/tests/balance_policy_test
# Elastic rank ensembles (DESIGN.md §2i): resizing the active prefix
# mid-run reroutes ownership through exchange + redecompose while the
# pool is live; migration payloads are written into each sending rank's
# message arena inside rank bodies and read in place by their receivers.
# The thread-count bit-identity test shrinks 12 active ranks to at most 4
# on 4 and 8 lanes, so one solver switches from rank to kernel dispatch
# mid-run; a racy arena or active-set handoff would be flagged here.
"$BUILD"/tests/ensemble_test
# The fleet service (DESIGN.md §2j) runs whole solvers concurrently on the
# slot pool while they read the same immutable CaseGeometry through
# SharedAssets, and preempt/resume moves solver state across slots through
# checkpoint v4. The fleet suite runs 4-slot fleets, lease slicing, and the
# park/resume round trip, so a racy registry, result aggregation, or shared
# mesh access would be flagged here.
"$BUILD"/tests/fleet_test
# The telemetry bus (docs/observability.md §6) samples the solver from the
# driver thread, but the FLEET aggregator republishes fleet_summary.json +
# fleet_metrics.prom from whichever slot finished a lease, serialized by
# publish_mu_ — and per-run hubs write exposition files from concurrent
# slots. The fleet-telemetry test plus the postmortem runs at both
# dispatch levels would flag a racy snapshot or a torn publish here.
"$BUILD"/tests/telemetry_test

echo "TSan sweep clean."
