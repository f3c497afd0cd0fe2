#!/usr/bin/env python3
"""Compare two sets of benchmark runs, refusing if their environments differ.

    python3 perfbench/compare.py BASE/.perfbench/runs.jsonl NEW/.perfbench/runs.jsonl

Every run of perfbench/run.py appends one record to .perfbench/runs.jsonl
in its checkout.  This prints, per workload and end-to-end metric, each
side's median and quartiles and the change of the medians, and marks a
change that is worse than the metric's bound in BENCHMARK.json.  It exits
with 2 without comparing anything when the two sides ran with different
benchmark code, run length or environment (Python version, core count,
machine, kernel backend, BELLGAMMA_PURE).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SAME_ENV = ("python", "nproc", "machine", "backend", "bellgamma_pure",
            "bench_sha256", "seconds")


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(p) for p in argv)
    envs = {tuple(r["env"][k] for k in SAME_ENV) for r in base + new}
    if len(envs) != 1:
        differ = [k for i, k in enumerate(SAME_ENV) if len({e[i] for e in envs}) > 1]
        print("refusing to compare: runs differ in %s" % ", ".join(differ),
              file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    print("%-8s %-16s %28s %28s %8s" % ("workload", "metric", "base median [q1, q3]",
                                       "new median [q1, q3]", "change"))
    for wl in sorted({r["env"]["workload"] for r in base + new}):
        for m in spec["end_to_end"]:
            sides = []
            for runs in (base, new):
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                        if r["env"]["workload"] == wl and not r["env"]["trace"]]
                sides.append(vals)
            if min(len(v) for v in sides) < 2:
                continue
            (b1, b2, b3), (n1, n2, n3) = (statistics.quantiles(v, n=4) for v in sides)
            change = (n2 - b2) / b2
            worse = change if m["better"] == "lower" else -change
            flag = "  WORSE" if worse > m["bound"] else ""
            print("%-8s %-16s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+7.1f%%%s"
                  % (wl, m["name"], b2, b1, b3, n2, n1, n3, 100 * change, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
