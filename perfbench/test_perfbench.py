"""Self-test of the benchmark: every metric of BENCHMARK.json is emitted with
its unit on every workload, and bad names exit 2.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke runs use `run.py --smoke` (a few steps, one repetition), so the
whole file takes about 20 s once the workload binary is built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class Arguments(unittest.TestCase):
    def test_unknown_workload_exits_2(self):
        proc = run(["--workload", "no_such", "--seed", "1", "--seconds", "1",
                    "--trace", "0"])
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_unknown_metric_exits_2(self):
        for trace, name in (("0", "no_such_metric"), ("1", "run_s")):
            proc = run(["--workload", "field_r24", "--seed", "1", "--seconds",
                        "1", "--trace", trace, "--metric", name])
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertEqual(proc.stdout, "")

    def test_spec_matches_run_py(self):
        sys.path.insert(0, str(BENCH_DIR))
        import run as bench  # noqa: E402
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         bench.PER_LAYER)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(["--workload", workload, "--seed", "42", "--seconds", "1",
                    "--trace", str(trace), "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_metric_on_every_workload(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


class Standalone(unittest.TestCase):
    def test_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "field_r24",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
