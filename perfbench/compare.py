#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files as run.py writes them to
.bench_build/results/. For each workload and trace mode present on both
sides, it prints every metric's median over the runs on each side and
the change relative to BEFORE. An end-to-end metric that got worse by
more than its bound in BENCHMARK.json is marked REGRESSION, and the exit
code is then 1. Sides whose kernel backends differ are flagged BACKEND
MISMATCH: their figures compare two builds, not two versions of the code.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        runs[(rec["meta"]["workload"], rec["meta"]["trace"])].append(rec)
    return runs


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for key in sorted(set(before) & set(after)):
        sides = (before[key], after[key])
        backends = [sorted({r["meta"]["backend"] for r in recs}) for recs in sides]
        print(f"== {key[0]} trace={key[1]}  runs {len(sides[0])} -> {len(sides[1])}"
              f"  backend {'/'.join(backends[0])} -> {'/'.join(backends[1])}")
        if backends[0] != backends[1]:
            print("   BACKEND MISMATCH: the two sides ran different kernel backends")
        for name, m in declared.items():
            values = [[r["result"]["metrics"][name]["value"] for r in recs
                       if name in r["result"]["metrics"]] for recs in sides]
            if not all(values):
                continue
            med_b, med_a = (statistics.median(v) for v in values)
            change = (med_a - med_b) / med_b if med_b else float("nan")
            worse = change if m["better"] == "lower" else -change
            mark = ""
            if "bound" in m and worse > m["bound"]:
                mark, status = "  REGRESSION", 1
            print(f"   {name:45s} {med_b:14.6g} -> {med_a:14.6g} {m['unit']:6s}"
                  f" {change:+8.1%}{mark}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
