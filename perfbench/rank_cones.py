"""Regenerate cone_rank.json: every cone with 7 <= n <= 40 in order of its
in-process `analyze` compute time, one timing per cone.

Run from the repository root with the package importable, e.g.
    PYTHONPATH=src python3 perfbench/rank_cones.py
The ranking only stratifies the cold_analyze sample; regenerating it
changes that workload's inputs, so it belongs with a benchmark change.
"""

import contextlib
import io
import json
import time
from pathlib import Path

from conelab import cli


def main() -> None:
    timed = []
    for n in range(7, 41):
        for k in range(1, n - 1):
            tic = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["analyze", "--n", str(n), "--k", str(k), "--format", "json"])
            timed.append((time.perf_counter() - tic, n, k))
    timed.sort()
    path = Path(__file__).resolve().parent / "cone_rank.json"
    path.write_text("[\n" + ",\n".join(json.dumps([n, k]) for _, n, k in timed) + "\n]\n")


if __name__ == "__main__":
    main()
