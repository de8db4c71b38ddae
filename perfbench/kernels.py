"""Microseconds per kernel call on fixed inputs, for the kernel backend
the package selected at import. Prints one JSON object.

The cases are those of benchmarks/bench_backends.py: three series
evaluations (a profile near its root, a high-dimension profile, a
subsolution profile) and the lambda1 shot of the axisymmetric 7-cone.
Each case reports its best of REPEATS calls; the series figure is the
mean over its three cases.
"""

import json
import time

from conelab import _backend

REPEATS = 20
SERIES_CASES = [
    (4.0, -0.5, 2.0, 0.6355),
    (999.5, -0.5, 500.0, 0.515),
    (1.0, 98.0, 80.0, 0.9),
]
SHOOT_ARGS = (1.0, -5.6984e-6, 1e-6, 0.5173305416768469,
              7.0, 1.0, -5.6984022, 0.0, 0.0, 1e-11, 1e-300, 0.0323, 2_000_000)


def best_us(fn, args):
    best = float("inf")
    for _ in range(REPEATS):
        tic = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - tic)
    return best * 1e6


def main():
    series = [best_us(_backend.hyp2f1_series, (a, b, c, s, 1e-15, 1e-280, 40000))
              for a, b, c, s in SERIES_CASES]
    print(json.dumps({
        "hyp2f1_series_us": sum(series) / len(series),
        "robin_shoot_us": best_us(_backend.robin_shoot, SHOOT_ARGS),
    }))


if __name__ == "__main__":
    main()
