#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Builds the driver (perfbench/CMakeLists.txt, RelWithDebInfo) and the
kserved daemon into .bench_build/ on first use, runs the workload, checks
its outputs and prints every metric by name with its unit. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end_to_end metrics of BENCHMARK.json with --trace 0, the
per_layer ones with --trace 1. The exit code is 0 only if every output
check passed. See perfbench/README.md for the workloads and metrics.

--record stores this run's digest in perfbench/digests.json (only for a
run whose other checks pass); --tiny runs the shrunken shapes the
benchmark's own tests use.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("paper_sim", "small_setup", "serve_mix", "classify_scenarios")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# Fresh kbench processes per untraced run. On a shared host one process
# can run up to ~15% slower than the next, depending on where its memory
# lands: back-to-back single-pass classify_scenarios processes took
# 4.1-5.7 s while the passes inside one process agreed within a few
# percent. A run therefore splits --seconds over several processes and
# pools their samples. paper_sim's unit is one ~20 s campaign, so it
# gets one process.
PROCESSES = {"paper_sim": 1, "small_setup": 4, "serve_mix": 3,
             "classify_scenarios": 4}

# Metrics computed from samples pooled over the run's processes:
# name -> (sample key, quantile, unit).
POOLED = {
    "setup_s": ("setup_s", 0.5, "s"),
    "wall_s": ("wall_s", 0.5, "s"),
    "op_ms_p50": ("op_ms", 0.5, "ms"),
    "op_ms_tail": ("op_ms", 0.9, "ms"),
}


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(log_path):
    """Configure once, then build the driver and kserved (incremental)."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "kbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                fail("build step failed (%s); see %s"
                     % (" ".join(cmd), log_path))
    return os.path.join(bdir, "kbench")


def load_benchmark():
    try:
        with open("BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


def shape_key(tiny):
    return "tiny" if tiny else "full"


def quantile(values, q):
    """Linear-interpolated quantile, as kbench computes it."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(len(v) - 1, lo + 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_process(cmd, log, timeout):
    """Run one kbench process in its own process group (kbench spawns
    kserved and set-up probes into it). Returns its stdout, or None if
    it failed or timed out. Every process of the group has ended when
    this returns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    # Normally the group is already empty; after a crash or a timeout
    # a daemon may be left, so end it and wait until it is gone.
    for _ in range(500):
        proc.poll()  # reaps kbench itself once it has ended
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    proc.wait()
    return out if proc.returncode == 0 else None


def merge(reports):
    """One report from the run's per-process kbench reports."""
    out = {"attempted": sum(r["attempted"] for r in reports),
           "failed": sum(r["failed"] for r in reports),
           "failures": [f for r in reports for f in r["failures"]],
           "info": [r["info"] for r in reports],
           "metrics": {}}
    digests = {r["digest"] for r in reports}
    if len(digests) > 1:
        out["failures"].append("the run's processes gave different outputs")
    out["digest"] = reports[0]["digest"]
    for name in sorted({n for r in reports for n in r["metrics"]}):
        ms = [r["metrics"][name] for r in reports if name in r["metrics"]]
        out["metrics"][name] = {
            "value": statistics.median(m["value"] for m in ms),
            "unit": ms[0]["unit"]}
    for name, (key, q, unit) in POOLED.items():
        pooled = [v for r in reports for v in r["samples"].get(key, [])]
        if pooled:
            out["metrics"][name] = {"value": quantile(pooled, q),
                                    "unit": unit}
    out["samples"] = {k: [r["samples"].get(k, []) for r in reports]
                      for k in ("wall_s",)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if not (os.path.isfile("CMakeLists.txt") and
            os.path.isfile(os.path.join("src", "CMakeLists.txt"))):
        fail("run from the root of a killi source checkout "
             "(no CMakeLists.txt / src/ here)")
    bench = load_benchmark()

    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "run.log")
    kbench = build(log_path)

    processes = 1 if args.trace else PROCESSES[args.workload]
    seconds = max(1, round(args.seconds / processes))
    # Relative, so the daemon's Unix socket path stays short.
    cmd = [kbench, args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out", os.path.relpath(out_dir)]
    if args.tiny:
        cmd.append("--tiny")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    reports = []
    with open(log_path, "a") as log:
        for _ in range(processes):
            out = run_process(cmd, log, max(1, deadline - time.monotonic()))
            if not out or not out.strip():
                fail("kbench failed or ran past %d s; see %s"
                     % (RUN_TIMEOUT_S, log_path))
            reports.append(json.loads(out.strip().splitlines()[-1]))
    report = merge(reports)

    failures = list(report["failures"])
    digests = load_digests()
    recorded = (digests["recorded"][shape_key(args.tiny)]
                .get(args.workload, {}).get(str(args.seed)))
    digest = report["digest"]
    if recorded is not None and digest != recorded:
        failures.append("digest %s differs from the one recorded for seed %d"
                        % (digest[:16], args.seed))

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in bench[section]:
        name, unit = spec["name"], spec["unit"]
        got = report["metrics"].get(name)
        if got is None:
            if args.trace:
                # The layer is not on this workload's path.
                got = {"value": 0.0, "unit": unit}
            else:
                failures.append("metric %s was not measured" % name)
                continue
        if got["unit"] != unit:
            failures.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, got["unit"], unit))
        metrics[name] = {"value": got["value"], "unit": unit}

    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"])
    correct = not failures and failed == 0

    if args.record and correct and digest:
        table = digests["recorded"][shape_key(args.tiny)]
        table.setdefault(args.workload, {})[str(args.seed)] = digest
        with open(DIGESTS, "w") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print("workload %s seed %d seconds %d trace %d%s"
          % (args.workload, args.seed, args.seconds, args.trace,
             " (tiny)" if args.tiny else ""))
    for name in sorted(report["metrics"]):
        m = report["metrics"][name]
        print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))
    print("  %-28s %16.6f %s" % ("error_rate", failed / attempted,
                                 "fraction"))
    print("  processes: %d x --seconds %d; unit seconds per process: %s"
          % (processes, seconds, json.dumps(report["samples"]["wall_s"])))
    for info in report["info"]:
        print("  info: %s" % json.dumps(info, sort_keys=True))
    if digest:
        print("  digest: %s (%s)" % (
            digest, "matches the recorded one" if recorded == digest else
            "no recorded digest for this seed" if recorded is None else
            "MISMATCH"))
    for f in failures:
        print("  FAILED: %s" % f)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if correct else max(failed, 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
