#!/usr/bin/env python3
"""End-to-end and per-layer host-time benchmark of the coupled DSMC/PIC step.

Builds perfbench_workload from the checkout's sources (perfbench/CMakeLists.txt),
runs one workload in a child process, checks its outputs against the
references in perfbench/references.json and prints, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. See perfbench/README.md.

    python3 perfbench/run.py --workload field_r24 --seed 42 --seconds 10 --trace 0

Exit codes: 0 ok (the result may still say "correct": false), 1 the build or
the workload binary failed (no result printed), 2 bad arguments.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("field_r24", "particle_r4", "ranks_r768", "fleet_lease")

# name -> unit; the keys and units of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "runs_per_s": "runs/s",
    "peak_rss_mb": "MB",
    "virtual_s": "virtual-s",
}
PER_LAYER = {
    "linalg.field_solve_ms": "ms",
    "linalg.ms_per_solve": "ms",
    "linalg.cg_iterations": "count",
    "dsmc.move_ms": "ms",
    "dsmc.collide_ms": "ms",
    "dsmc.react_ms": "ms",
    "dsmc.sort_ms": "ms",
    "pic.deposit_ms": "ms",
    "exchange.migrate_ms": "ms",
    "exchange.migrated": "count",
    "par.supersteps": "count",
    "par.ms_per_superstep": "ms",
    "par.messages": "count",
    "par.bytes": "bytes",
    "balance.rebalance_ms": "ms",
    "balance.rebalances": "count",
    "partition.kway_ms": "ms",
    "partition.edge_cut": "count",
    "mesh.geometry_ms": "ms",
    "core.init_ms": "ms",
    "core.step_ms_p50": "ms",
    "core.step_ms_max": "ms",
    "core.unattributed_ms": "ms",
    "core.checkpoint_save_ms": "ms",
    "core.checkpoint_restore_ms": "ms",
    "core.checkpoint_bytes": "bytes",
    "fleet.slot_utilization": "ratio",
    "fleet.geometry_hit_rate": "ratio",
    "fleet.leases": "count",
    "fleet.lease_ms": "ms",
    "obs.coverage_ratio": "ratio",
    "obs.profiler_share": "ratio",
    "obs.trace_overhead_pct": "%",
    "core.digest_match": "flag",
    "host.calibration_ms": "ms",
}

# Outputs that are exact functions of (workload, seed): every repetition,
# traced or not, must reproduce them bit for bit.
EXACT_KEYS = ("digest", "virtual_s", "supersteps", "messages", "bytes",
              "cg_iterations", "rebalances", "migrated", "final_particles",
              "runs_done", "leases")

# Top-level HostProfiler scopes -> per-layer metric. Nested scopes
# ("rebalance/exchange") are inside their parent's time already.
SCOPE_METRICS = {
    "field_solve": "linalg.field_solve_ms",
    "move": "dsmc.move_ms",
    "collide": "dsmc.collide_ms",
    "react": "dsmc.react_ms",
    "sort": "dsmc.sort_ms",
    "deposit": "pic.deposit_ms",
    "exchange": "exchange.migrate_ms",
    "rebalance": "balance.rebalance_ms",
}

COVERAGE_MIN = 0.95  # per-layer ms must account for >= 95% of step wall
CALIBRATION_TOL = 0.25  # calibration drift beyond this = loaded host
WORKLOAD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="one of: " + ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement time of this run")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True,
                   help="0: end-to-end metrics, 1: per-layer metrics")
    p.add_argument("--metric", action="append", default=[],
                   help="also print only these metrics in the summary table "
                        "(repeatable; an unknown name exits 2)")
    p.add_argument("--smoke", action="store_true",
                   help="self-test size: a few steps and one repetition; "
                        "outputs are checked but not against the references")
    p.add_argument("--update-references", action="store_true",
                   help="record this run's digests and exact counts as the "
                        "references for (workload, seed)")
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        p.error("unknown workload '%s' (one of: %s)"
                % (args.workload, ", ".join(WORKLOADS)))
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    known = END_TO_END if args.trace == 0 else PER_LAYER
    for m in args.metric:
        if m not in known:
            p.error("unknown metric '%s' for --trace %d" % (m, args.trace))
    return args


# ---- build -------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures (once) and builds perfbench_workload; returns its path."""
    for needed in ("src/CMakeLists.txt", "bench/common.cpp"):
        if not (ROOT / needed).is_file():
            raise RuntimeError("no %s: run.py must sit in a dsmcpic checkout"
                               % needed)
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir)]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", str(bdir), "-j", "3"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    return bdir / "perfbench_workload"


def run_workload(exe, args, tmp):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
           "--tmp", str(tmp), "--smoke", "1" if args.smoke else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=WORKLOAD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_workload exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


# ---- reduction -----------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


class Checks:
    """Failed operations and correctness findings of one invocation."""

    def __init__(self):
        self.failed = 0
        self.problems = []

    def problem(self, msg):
        self.problems.append(msg)
        log("CHECK FAILED: " + msg)


def check_exact(reps, checks):
    """Every exact output must be the same in every repetition."""
    ok = [r for r in reps if r["ok"]]
    for key in EXACT_KEYS:
        values = {json.dumps(r[key]) for r in ok if key in r}
        if len(values) > 1:
            checks.problem("'%s' differs between repetitions: %s"
                           % (key, sorted(values)))


def compare_references(raw, args):
    """1 = digests, virtual_s and counts match the recorded reference, 0 = a
    mismatch (shown loudly; a deliberate model change re-records them),
    -1 = no reference recorded for this seed, or a smoke run."""
    if args.smoke:
        return -1
    ref = load_references().get(args.workload, {}).get(str(args.seed))
    if ref is None:
        log("digest: no reference recorded for %s seed %d"
            % (args.workload, args.seed))
        return -1
    match = 1
    for r in (r for r in raw["reps"] if r["ok"]):
        for key, want in ref.items():
            if r.get(key, want) != want:
                match = 0
                log("!!! REFERENCE MISMATCH on %s seed %d: %s = %r, recorded %r"
                    % (args.workload, args.seed, key, r.get(key), want))
    return match


def count_ops(raw, checks):
    """An operation is one workload run, or one fleet run on fleet_lease."""
    attempted = 0
    for r in raw["reps"]:
        runs = r.get("runs", 1)
        attempted += runs
        if not r["ok"]:
            checks.failed += runs
            log("operation failed: %s" % r.get("error", "?"))
            continue
        if "runs_done" in r and r["runs_done"] != r["runs"]:
            checks.failed += r["runs"] - r["runs_done"]
            log("fleet: %d of %d runs did not finish"
                % (r["runs"] - r["runs_done"], r["runs"]))
        if r.get("audit_violations", 0) > 0:
            checks.failed += 1
            log("health audit: %d violation(s)" % r["audit_violations"])
        if r["traced"] and "audit_checks" in r and r["audit_checks"] == 0:
            checks.problem("the health auditor ran no checks")
    return attempted


def setup_ms(r):
    return r["setup_ms"] if "setup_ms" in r else r["geometry_ms"] + r["init_ms"]


def end_to_end(raw):
    reps = [r for r in raw["reps"] if r["ok"]]
    if not reps:
        return {}
    run_s = [r["run_ms"] / 1e3 for r in reps]
    per_s = [r.get("runs_done", 1) / s for s, r in zip(run_s, reps)]
    return {
        "setup_s": median([setup_ms(r) / 1e3 for r in reps]),
        "run_s": median(run_s),
        "runs_per_s": median(per_s),
        # The first repetition is the only one that starts from a fresh heap.
        "peak_rss_mb": reps[0]["peak_rss_mb"],
        "virtual_s": reps[0]["virtual_s"],
    }


def layer_metrics_of(r):
    """Per-layer metrics of one traced solver repetition."""
    scopes = r["scopes_ms"]
    top = {k: v for k, v in scopes.items() if "/" not in k}
    for name in top:
        if name not in SCOPE_METRICS:
            log("note: profiler scope '%s' has no metric; counted as "
                "attributed" % name)
    step_wall = sum(r["step_ms"])
    scoped = sum(top.values())
    m = {metric: scopes.get(scope, 0.0) for scope, metric in SCOPE_METRICS.items()}
    solves = r["steps"] * r["pic_substeps"]
    m["linalg.ms_per_solve"] = m["linalg.field_solve_ms"] / solves
    m["core.step_ms_p50"] = median(r["step_ms"])
    m["core.step_ms_max"] = max(r["step_ms"])
    m["core.unattributed_ms"] = step_wall - scoped
    # Layers = profiler scopes + the unscoped remainder of each step() call;
    # the run wall also holds the loop between the calls.
    m["obs.coverage_ratio"] = (scoped + m["core.unattributed_ms"]) / r["run_ms"]
    m["obs.profiler_share"] = scoped / step_wall
    return m


def per_layer(raw, checks):
    reps = [r for r in raw["reps"] if r["ok"]]
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    if not traced or not plain:
        return {}
    fleet = "runs" in reps[0]
    m = {name: 0.0 for name in PER_LAYER}

    # Trace overhead from (untraced, traced) pairs run back to back.
    pairs = list(zip(plain, traced))
    m["obs.trace_overhead_pct"] = median(
        [100.0 * (t["run_ms"] / u["run_ms"] - 1.0) for u, t in pairs])

    if fleet:
        probe = raw["probe"]
        m["mesh.geometry_ms"] = median([p["geometry_ms"] for p in probe])
        m["core.init_ms"] = median([p["init_ms"] for p in probe])
        ckpt = probe[0]["checkpoint"]
        m["fleet.slot_utilization"] = median([r["slot_utilization"] for r in traced])
        hits = traced[0]["geometry_hits"]
        total = hits + traced[0]["geometry_misses"]
        m["fleet.geometry_hit_rate"] = hits / total if total else 0.0
        m["fleet.leases"] = traced[0]["leases"]
        m["fleet.lease_ms"] = median([r["busy_ms"] / r["leases"] for r in traced])
    else:
        per_rep = [layer_metrics_of(r) for r in traced]
        for key in per_rep[0]:
            m[key] = median([x[key] for x in per_rep])
        r0 = traced[0]
        m["linalg.cg_iterations"] = r0["cg_iterations"]
        m["exchange.migrated"] = r0["migrated"]
        m["par.supersteps"] = r0["supersteps"]
        m["par.ms_per_superstep"] = median([r["run_ms"] for r in plain]) / r0["supersteps"]
        m["par.messages"] = r0["messages"]
        m["par.bytes"] = r0["bytes"]
        m["balance.rebalances"] = r0["rebalances"]
        m["mesh.geometry_ms"] = median([r["geometry_ms"] for r in reps])
        m["core.init_ms"] = median([r["init_ms"] for r in reps])
        ckpt = r0["checkpoint"]
        for x in per_rep:
            if x["obs.coverage_ratio"] < COVERAGE_MIN:
                log("WARNING: per-layer ms cover only %.1f%% of the run wall"
                    % (100 * x["obs.coverage_ratio"]))
            if x["obs.profiler_share"] > 1.01:
                checks.problem("profiler scopes overlap: they sum to more "
                               "than the step wall")

    m["partition.kway_ms"] = median(raw["partition"]["kway_ms"])
    m["partition.edge_cut"] = raw["partition"]["edge_cut"]
    m["core.checkpoint_save_ms"] = ckpt["save_ms"]
    m["core.checkpoint_restore_ms"] = ckpt["restore_ms"]
    m["core.checkpoint_bytes"] = ckpt["bytes"]
    if not ckpt["ok"]:
        checks.problem("restored checkpoint differs from the saved solver")
    m["host.calibration_ms"] = median(raw["calibration_ms"])
    return m


# ---- references and host fingerprint -----------------------------------------

def load_references():
    if not REFERENCES.is_file():
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def save_references(raw, args):
    refs = load_references()
    rep = next(r for r in raw["reps"] if r["ok"])
    refs.setdefault(args.workload, {})[str(args.seed)] = {
        k: rep[k] for k in EXACT_KEYS if k in rep}
    refs.setdefault("host", {}).update(
        fingerprint=raw["fingerprint"],
        calibration_ms=median(raw["calibration_ms"]))
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    log("recorded references for %s seed %d" % (args.workload, args.seed))


def host_verdict(raw):
    """Compares the fingerprint with the host the references were taken on.

    A changed field means another host: its timings are not regressions
    against recorded figures. Same fields with a calibration far from the
    recorded one means this host is loaded or throttled right now."""
    ref = load_references().get("host")
    if not ref:
        return "no recorded host"
    diffs = [k for k, v in ref["fingerprint"].items()
             if raw["fingerprint"].get(k) != v]
    drift = median(raw["calibration_ms"]) / ref["calibration_ms"] - 1.0
    if diffs:
        return ("different host (%s differ; calibration %+.0f%%): compare "
                "against a baseline from this host, not the recorded figures"
                % (", ".join(diffs), 100 * drift))
    if abs(drift) > CALIBRATION_TOL:
        return ("same host, calibration %+.0f%%: the host is loaded or "
                "throttled, timings are not comparable" % (100 * drift))
    return "same host (calibration %+.0f%%)" % (100 * drift)


# ---- main ----------------------------------------------------------------------

def main(argv):
    args = parse_args(argv)
    try:
        exe = build(build_dir())
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    tmp = build_dir() / "tmp" / str(os.getpid())
    started = time.monotonic()
    try:
        raw = run_workload(exe, args, tmp)
    except (RuntimeError, OSError, ValueError, IndexError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: workload binary failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wall = time.monotonic() - started

    checks = Checks()
    attempted = count_ops(raw, checks)
    check_exact(raw["reps"], checks)
    match = compare_references(raw, args)
    if args.update_references and not args.smoke:
        save_references(raw, args)
    if args.trace:
        metrics = per_layer(raw, checks)
        metrics["core.digest_match"] = match
        names = PER_LAYER
    else:
        metrics = end_to_end(raw)
        names = END_TO_END
    if set(metrics) != set(names):
        checks.problem("no successful repetition to measure")
        metrics = {name: metrics.get(name, 0.0) for name in names}

    verdict = host_verdict(raw)
    stamp = dict(raw["fingerprint"], calibration_ms=median(raw["calibration_ms"]),
                 host=verdict)
    result = {
        "correct": checks.failed == 0 and not checks.problems,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": names[k]} for k in names},
    }
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / ("%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       fingerprint=stamp, problems=checks.problems,
                       raw=raw), f, indent=1)

    print("perfbench %s seed=%d trace=%d: %d rep(s) in %.1f s, host: %s"
          % (args.workload, args.seed, args.trace, len(raw["reps"]), wall, verdict))
    print("fingerprint: " + json.dumps(stamp, sort_keys=True))
    for name in (args.metric or names):
        print("  %-28s %14.6g %s" % (name, metrics[name], names[name]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
