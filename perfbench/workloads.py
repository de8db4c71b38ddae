"""The three workloads: the CLI invocations each one runs, and what each
invocation is expected to print.

family_table  `table --n 7 12`: the paper's 45-cone table in one process,
              through the full per-cone pipeline and the table thread pool.
              Shooting dominates. Fixed input: the seed does not change it.
verify_all    `verify --suite all`: the invariant batteries in one process.
              Large-parameter special functions and ODE continuation
              dominate; no shooting at all. Fixed input, as the batteries
              carry their own seed.
cold_analyze  one `analyze` process per cone for a seeded sample of cones
              with 7 <= n <= 40, half with even d = n - k (the log case of
              the connection formula, which takes the ODE continuation) and
              half with odd d. About 60% of each call is `import conelab`,
              and every call starts with cold caches.

The cold_analyze sample is stratified on cone_rank.json, the cones in
order of their `analyze` compute time at the seed commit (pure-Python
kernels, one in-process timing each; regenerate with
`python3 perfbench/rank_cones.py`). Each parity list is cut into halves
and an antithetic pair of offsets u, 1-u is taken in each half, so every
sample spans cheap to expensive cones alike and its total work varies
little from seed to seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import List, NamedTuple, Tuple

HERE = Path(__file__).resolve().parent
WORKLOADS = ("family_table", "verify_all", "cold_analyze")
COLD_STRATA = 2  # per parity of d; each stratum gives an antithetic pair
TABLE_RANGE = (7, 12)

Cell = Tuple[int, int]


def cold_sample(seed: int) -> List[Cell]:
    ranked = [tuple(c) for c in json.loads((HERE / "cone_rank.json").read_text())]
    rng = random.Random(seed)
    sample: List[Cell] = []
    for parity in (0, 1):
        cones = [c for c in ranked if (c[0] - c[1]) % 2 == parity]
        u = rng.random()
        for i in range(COLD_STRATA):
            for off in (u, 1.0 - u):
                sample.append(cones[min(len(cones) - 1,
                                        int((i + off) * len(cones) / COLD_STRATA))])
    return sample


class Invocation(NamedTuple):
    """One CLI process: its arguments and the cone rows it must print
    (none for verify, whose records are checked by name)."""

    args: List[str]
    cells: List[Cell]


def invocations(workload: str, seed: int) -> List[Invocation]:
    if workload == "family_table":
        lo, hi = TABLE_RANGE
        cells = [(n, k) for n in range(lo, hi + 1) for k in range(1, n - 1)]
        return [Invocation(["table", "--n", str(lo), str(hi), "--format", "json"], cells)]
    if workload == "verify_all":
        return [Invocation(["verify", "--suite", "all"], [])]
    if workload == "cold_analyze":
        return [Invocation(["analyze", "--n", str(n), "--k", str(k), "--format", "json"],
                           [(n, k)]) for n, k in cold_sample(seed)]
    raise ValueError(f"unknown workload {workload!r}")
