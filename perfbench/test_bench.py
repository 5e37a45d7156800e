#!/usr/bin/env python3
"""The benchmark's own tests: a fast pass over all four workload shapes.

Run from the root of a source checkout:

    python3 perfbench/test_bench.py

Each workload runs shrunken (--tiny) at the default seed, untraced and
traced, through perfbench/run.py. The tests check that

  * every metric name and unit BENCHMARK.json lists is emitted, and the
    run's outputs pass every check (correct, no failed operations);
  * the digest matches the one recorded for the tiny shape;
  * the traced campaign pipeline reproduced the untraced RunResults;
  * the campaign and classification outputs equal those of the
    repository's own fig4_performance and scenarios binaries;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    fails without printing a result.

Takes a couple of minutes on a 4-CPU host, most of it the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

SEED = 42
WORKLOADS = run.WORKLOADS
# The proxies the tiny small_setup shape runs (Shape::make in common.cc).
TINY_SETUP_PROXIES = ["spmv", "comd", "xsbench"]


def run_bench(workload, trace, cwd="."):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def info_of(proc):
    for line in proc.stdout.splitlines():
        if line.strip().startswith("info: "):
            return json.loads(line.strip()[len("info: "):])
    return {}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = run.load_benchmark()
        cls.out = os.path.join(
            os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
            "perfbench-out")
        os.makedirs(cls.out, exist_ok=True)
        run.build(os.path.join(cls.out, "test-build.log"))
        # The repository binaries the outputs are compared against.
        subprocess.run(["cmake", "--build", run.build_dir(), "--target",
                        "fig4_performance", "scenarios", "-j", "4"],
                       check=True, capture_output=True)
        cls.runs = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = run_bench(w, trace)
                if w in ("small_setup", "classify_scenarios") and trace == 0:
                    # Keep the untraced run's output document.
                    shutil.copy(os.path.join(cls.out, w + ".json"),
                                os.path.join(cls.out, w + ".test.json"))

    def test_every_metric_emitted_and_correct(self):
        for (w, trace), proc in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                res = result_of(proc)
                self.assertEqual(set(res),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                section = "per_layer" if trace else "end_to_end"
                want = {m["name"]: m["unit"] for m in self.bench[section]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                if not trace:
                    for name, m in res["metrics"].items():
                        self.assertGreater(m["value"], 0, name)

    def test_digests_match_recorded(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertIn("matches the recorded one",
                              self.runs[(w, 0)].stdout)

    def test_traced_pipeline_reproduces_campaign(self):
        for w in ("paper_sim", "small_setup"):
            with self.subTest(workload=w):
                self.assertTrue(
                    info_of(self.runs[(w, 1)]).get("traced_results_identical"))

    def test_campaign_equals_fig4_performance(self):
        ref = os.path.join(self.out, "fig4-ref.json")
        subprocess.run(
            [os.path.join(run.build_dir(), "killi", "bench",
                          "fig4_performance"),
             "scale=0.001", "workloads=" + ",".join(TINY_SETUP_PROXIES), "jobs=2",
             "scenario=" + json.dumps({"format": "killi-scenario-v1",
                                       "model": "iid", "seed": str(SEED)}),
             "json=" + ref],
            check=True, capture_output=True)
        with open(ref) as fh:
            want = json.load(fh)["workloads"]
        with open(os.path.join(self.out, "small_setup.test.json")) as fh:
            got = json.load(fh)["workloads"]
        self.assertEqual(got, want)

    def test_classification_equals_scenarios_binary(self):
        ref = os.path.join(self.out, "scenarios-ref.json")
        subprocess.run(
            [os.path.join(run.build_dir(), "killi", "bench", "scenarios"),
             "lines=1024", "seed=%d" % SEED, "json=" + ref],
            check=True, capture_output=True)
        with open(ref) as fh:
            want = json.load(fh)["scenarios"]
        with open(os.path.join(self.out,
                               "classify_scenarios.test.json")) as fh:
            got = json.load(fh)["scenarios"]
        self.assertEqual(got, want)

    def test_fails_without_source_tree(self):
        bare = os.path.join(self.out, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small_setup",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
