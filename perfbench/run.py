#!/usr/bin/env python3
"""conelab benchmark: runs one workload of CLI invocations as fresh
processes, checks every output, and prints the metrics.

    python3 perfbench/run.py --workload {family_table,verify_all,cold_analyze}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository. The package is
built with the repository's own setup.py into .bench_build/ (rebuilt when
setup.py, pyproject.toml or src/ change) and run from there with the
program's default settings: CONELAB_* variables are removed from the
children's environment. The load is a closed loop with one client: one
`python -m conelab.cli` process at a time.

--trace 0 repeats the workload's invocation sequence while at least half
of another pass fits in S seconds (at least once) and reports, with
tracing off,
  wall_s         median wall time of the whole sequence,
  latency_p50_s  median wall time of one invocation,
  setup_s        median wall time of a fresh `import conelab`, over
                 SETUP_REPEATS interpreters,
  peak_rss_mb    largest max-RSS of any child process.
--trace 1 runs the sequence once untraced and once under traced.py and
reports the per-layer metrics (see layers.py), the import breakdown from
`python -X importtime` and the kernels' microseconds per call on fixed
inputs (kernels.py).

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it carries the run's metadata (kernel backend, build
seconds, Python/numpy/scipy versions, nproc, sample counts). The full
record, with the oracle's findings, goes to
.bench_build/results/<workload>-seed<N>-trace<T>.json. Outputs are
checked by oracle.py after the timed invocations.
"""

import argparse
import hashlib
import importlib.metadata
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, NamedTuple

import layers
import workloads
from oracle import Oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
LIB = WORK / "lib"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
PY = sys.executable


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Child(NamedTuple):
    wall: float
    rss_mb: float
    code: int
    out: bytes
    err: bytes


def run_child(argv: List[str], cwd: Path = WORK) -> Child:
    """Run one process to completion; its max-RSS comes from wait4."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
        tic = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - tic
        out.seek(0)
        err.seek(0)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, out.read(), err.read())


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONELAB_")}
    env["PYTHONPATH"] = str(LIB)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"] + sorted(
        p for p in (ROOT / "src").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
        and not any(part.endswith(".egg-info") for part in p.parts)
        and p.suffix not in (".so", ".pyc"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def build() -> dict:
    """Build the package with setup.py into .bench_build/lib, once per
    source state; returns {digest, build_s, backend}."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "conelab").is_dir():
        raise BenchError(f"no conelab sources under {ROOT}")
    digest = source_digest()
    stamp = WORK / "build.json"
    if stamp.is_file() and (LIB / "conelab").is_dir():
        info = json.loads(stamp.read_text())
        if info.get("digest") == digest:
            return info
    for sub in ("lib", "build", "egg"):
        shutil.rmtree(WORK / sub, ignore_errors=True)
    (WORK / "egg").mkdir(parents=True)
    res = run_child([PY, "setup.py", "-q", "egg_info", "--egg-base", str(WORK / "egg"),
                     "build", "--build-base", str(WORK / "build"), "--build-lib", str(LIB)],
                    cwd=ROOT)
    if res.code != 0 or not (LIB / "conelab" / "__init__.py").is_file():
        raise BenchError("setup.py build failed:\n" + res.err.decode(errors="replace"))
    # compile the bytecode as installing the package would, whether or not
    # the environment lets imports write it (PYTHONDONTWRITEBYTECODE)
    compiled = run_child([PY, "-m", "compileall", "-q", str(LIB)])
    probe = run_child([PY, "-c", "import conelab; print(conelab.BACKEND_NAME)"])
    if compiled.code != 0 or probe.code != 0:
        raise BenchError("import conelab failed:\n" + probe.err.decode(errors="replace"))
    info = {"digest": digest, "build_s": res.wall, "backend": probe.out.decode().strip()}
    stamp.write_text(json.dumps(info))
    return info


def checked(argv: List[str]) -> Child:
    res = run_child(argv)
    if res.code != 0:
        raise BenchError(f"{argv} exited {res.code}:\n" + res.err.decode(errors="replace"))
    return res


def run_sequence(invs, prefix: List[str]) -> List[Child]:
    return [run_child(prefix + inv.args) for inv in invs]


def check_outputs(oracle: Oracle, workload: str, invs, sequences: List[List[Child]]):
    """(attempted, failed, problems) over every pass of the sequence."""
    attempted, failed, problems = 0, 0, []
    for children in sequences:
        for inv, ch in zip(invs, children):
            if workload == "verify_all":
                a, f, p = oracle.check_verify(ch.out, ch.code)
            else:
                a, f, p = oracle.check_cones(ch.out, ch.code, inv.cells)
            attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems


def measure(workload: str, invs, seconds: float, oracle: Oracle):
    """Trace off: repeat the sequence while at least half of another one
    fits in `seconds` (always once), then time the set-up."""
    prefix = [PY, "-m", "conelab.cli"]
    reps = []
    start = time.perf_counter()
    while not reps or (time.perf_counter() - start) * (1.0 + 0.5 / len(reps)) < seconds:
        tic = time.perf_counter()
        children = run_sequence(invs, prefix)
        reps.append((time.perf_counter() - tic, children))
    setups = [checked([PY, "-c", "import conelab"]) for _ in range(SETUP_REPEATS)]
    everything = [ch for _, chs in reps for ch in chs] + setups
    metrics = {
        "wall_s": statistics.median(w for w, _ in reps),
        "latency_p50_s": statistics.median(ch.wall for _, chs in reps for ch in chs),
        "setup_s": statistics.median(ch.wall for ch in setups),
        "peak_rss_mb": max(ch.rss_mb for ch in everything),
    }
    attempted, failed, problems = check_outputs(oracle, workload, invs, [c for _, c in reps])
    samples = {"sequences": len(reps), "invocations": sum(len(c) for _, c in reps),
               "setups": len(setups)}
    return metrics, attempted, failed, problems, samples


def measure_traced(workload: str, invs, oracle: Oracle):
    """Trace on: one untraced and one traced pass, import breakdown,
    kernel microbenchmark."""
    plain = run_sequence(invs, [PY, "-m", "conelab.cli"])
    spans_dir = WORK / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    traced, processes = [], []
    for i, inv in enumerate(invs):
        path = spans_dir / f"{i}.marshal"
        ch = run_child([PY, str(HERE / "traced.py"), str(path)] + inv.args)
        traced.append(ch)
        if path.is_file():
            processes.append(marshal.loads(path.read_bytes()))
    traced_wall = sum(ch.wall for ch in traced)
    metrics = layers.summarize(processes, traced_wall)
    metrics["trace.overhead_s"] = traced_wall - sum(ch.wall for ch in plain)
    imports = [layers.parse_importtime(
        checked([PY, "-X", "importtime", "-c", "import conelab"]).err.decode())
        for _ in range(IMPORTTIME_REPEATS)]
    for key in imports[0]:
        metrics[key] = statistics.median(d[key] for d in imports)
    kern = json.loads(checked([PY, str(HERE / "kernels.py")]).out)
    metrics["backend.hyp2f1_series.us_fixed"] = kern["hyp2f1_series_us"]
    metrics["backend.robin_shoot.us_fixed"] = kern["robin_shoot_us"]
    attempted, failed, problems = check_outputs(oracle, workload, invs, [plain, traced])
    samples = {"sequences": 2, "invocations": len(plain) + len(traced),
               "traced_processes": len(processes)}
    return metrics, attempted, failed, problems, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        info = build()
        oracle = Oracle(ROOT)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    invs = workloads.invocations(args.workload, args.seed)
    try:
        if args.trace:
            found, attempted, failed, problems, samples = measure_traced(
                args.workload, invs, oracle)
        else:
            found, attempted, failed, problems, samples = measure(
                args.workload, invs, args.seconds, oracle)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in declared}
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": info["backend"], "build_s": info["build_s"],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(), "samples": samples,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "cells": [cell for inv in invs for cell in inv.cells],
    }
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result, "all_metrics": found,
                    "problems": problems[:50]}, indent=1))
    for line in problems[:20]:
        print("oracle: " + line, file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
