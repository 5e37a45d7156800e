#!/usr/bin/env python3
"""Extract the deterministic subset of a sweep benchmark report.

The ``workloads`` section of a fig4-style JSON report holds only
simulated state: event counters and ratios derived from them (mpki,
normalized_time, area fractions). For a fixed die seed it is
bit-identical across hosts, job counts, and KILLI_CHECK_INVARIANTS
settings. Everything else in the report (campaign wall-clock stats,
option echo) legitimately varies run to run.

CI's perf-smoke job pins this subset against a recorded golden
(tests/golden/) so hot-path optimizations — bit-sliced codecs, skip
sampling, scratch reuse — can never silently change simulation
results. See EXPERIMENTS.md ("Hot-path perf harness") for the
re-record command and the libm caveat.

The optional second argument names another deterministic section
to extract instead: softerror_resilience's ``table`` holds only
simulated counts too.

Usage: extract_sweep_results.py <report.json> [section]  (canonical
JSON on stdout: sorted keys, fixed indentation, trailing newline;
section defaults to ``workloads``)
"""

import json
import sys


def main() -> int:
    if len(sys.argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    section = sys.argv[2] if len(sys.argv) == 3 else "workloads"
    with open(sys.argv[1]) as fh:
        doc = json.load(fh)
    json.dump({section: doc[section]}, sys.stdout,
              sort_keys=True, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
