"""Per-layer metrics from the spans that traced.py records.

Self time: a span's duration minus the part of it that its child spans
cover, children in other threads included (a pool worker's spans are
children of the span waiting for them). When spans of several threads
are open at once, their time is split equally between the innermost
ones, as the interpreter lock lets one thread run at a time. So the
self times of all spans plus trace.unattributed_s (interpreter start,
imports, output) add up to the traced wall time exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

STRATEGIES = ("DirectSeries", "EulerTransform", "ConnectionAt1", "OdeContinuation")
SUITES = ("specfun", "riccati", "lemmas", "barriers")
# every span traced.py records; each reports .calls and .self_s
SPAN_NAMES = (
    "backend.hyp2f1_series", "backend.robin_shoot", "specfun.hyp2f1",
    "specfun.hyp2f1_deriv", "specfun.ode_continuation", "cone.find_root",
    "cone.verdict", "cone.stability_margin", "spectrum.find_eigenvalue",
    "riccati.L_direct", "riccati.ode", "riccati.verify_barrier",
    "riccati.check_4_minus_n", "lemmas.root_bound_check", "lemmas.overshoot_check",
    "lemmas.estimate_z0", "lemmas.proof_constants_check",
) + tuple(f"checks.{suite}_suite" for suite in SUITES) + ("cli.main",)


def self_times(spans: Dict[int, tuple]) -> Dict[int, float]:
    """Self time of every span of one process, keyed like `spans`."""
    events = []
    for idx, (_, t0, t1, _, _, _) in spans.items():
        events.append((t0, 1, idx))
        events.append((t1, 0, -idx))  # a child ends before a parent ending at the same instant
    events.sort()
    stacks: Dict[int, List[int]] = defaultdict(list)
    own = dict.fromkeys(spans, 0.0)
    prev = events[0][0] if events else 0.0
    for t, starting, key in events:
        dt = t - prev
        prev = t
        if dt > 0.0:
            open_stacks = [st for st in stacks.values() if st]
            waiting = {spans[st[0]][3] for st in open_stacks}
            owners = [st[-1] for st in open_stacks if st[-1] not in waiting]
            for idx in owners:
                own[idx] += dt / len(owners)
        if starting:
            stacks[spans[key][4]].append(key)
        else:
            stacks[spans[-key][4]].remove(-key)
    return own


def summarize(processes: Iterable[dict], traced_wall: float) -> Dict[str, float]:
    """Metrics of the traced invocations of one workload run; `processes`
    holds what traced.py wrote for each invocation."""
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    m: Dict[str, float] = defaultdict(int)
    for key in ("backend.hyp2f1_series.terms", "cone.find_root.residual_max",
                "spectrum.find_eigenvalue.bc_residual_max", "checks.records", "checks.failed",
                *(f"specfun.hyp2f1.calls.{s}" for s in STRATEGIES),
                *(f"checks.{s}_suite.s" for s in SUITES)):
        m[key] = 0
    useful_roots = 0
    for proc in processes:
        spans = proc["spans"]
        for name, n in proc["counts"].items():
            counts[name] += n
        own = self_times(spans)
        cones = set()
        for idx, (name, t0, t1, parent, _, info) in spans.items():
            calls[name] += 1
            self_s[name] += own[idx]
            parent_name = spans[parent][0] if parent in spans else None
            if name == "backend.hyp2f1_series" and info is not None:
                m["backend.hyp2f1_series.terms"] += info
            elif name == "specfun.hyp2f1" and info in STRATEGIES:
                m[f"specfun.hyp2f1.calls.{info}"] += 1
            elif name == "cone.find_root" and info is not None:
                cones.add(info[:2])
                m["cone.find_root.residual_max"] = max(m["cone.find_root.residual_max"], info[2])
            elif name == "spectrum.find_eigenvalue" and info is not None:
                m["spectrum.find_eigenvalue.bc_residual_max"] = max(
                    m["spectrum.find_eigenvalue.bc_residual_max"], info)
            elif name.startswith("checks.") and name.endswith("_suite"):
                m[f"{name}.s"] += t1 - t0
                if info is not None:
                    m["checks.records"] += info[0]
                    m["checks.failed"] += info[1]
            if parent_name == "cone.find_root" and name in ("specfun.hyp2f1", "specfun.hyp2f1_deriv"):
                m["find_root_evals"] += 1
            if parent_name == "spectrum.find_eigenvalue" and name == "backend.robin_shoot":
                m["eigen_shots"] += 1
        useful_roots += len(cones)

    for name in SPAN_NAMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    continuations = calls["specfun.ode_continuation"]
    integrations = counts["specfun.ode_integrations"]
    m["specfun.ode_continuation.integrations"] = integrations
    m["specfun.ode_continuation.hit_ratio"] = (
        (continuations - integrations) / continuations if continuations else 0.0)
    roots = calls["cone.find_root"]
    m["cone.find_root.useful_ratio"] = useful_roots / roots if roots else 0.0
    m["cone.find_root.evals_per_call"] = m.pop("find_root_evals", 0) / roots if roots else 0.0
    eig = calls["spectrum.find_eigenvalue"]
    m["spectrum.find_eigenvalue.shots_per_call"] = m.pop("eigen_shots", 0) / eig if eig else 0.0
    m["riccati.ode.integrations"] = calls["riccati.ode"]
    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - sum(self_s.values())
    return dict(m)


def parse_importtime(stderr: str) -> Dict[str, float]:
    """import.conelab.s: cumulative time of `import conelab`;
    import.scipy.s / import.numpy.s: summed self time of the scipy.* /
    numpy.* modules it loads, from `python -X importtime`."""
    out = {"import.conelab.s": 0.0, "import.scipy.s": 0.0, "import.numpy.s": 0.0}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            own_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:  # the header line
            continue
        module = parts[2].strip()
        if module == "conelab":
            out["import.conelab.s"] = cum_us / 1e6
        for pkg in ("scipy", "numpy"):
            if module == pkg or module.startswith(pkg + "."):
                out[f"import.{pkg}.s"] += own_us / 1e6
    return out
