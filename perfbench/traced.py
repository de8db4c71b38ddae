"""Run one conelab CLI invocation with a span recorded around every call
into each layer's public entry points, without editing the package.

    python perfbench/traced.py SPANS_FILE CLI_ARG...

Modules bind their callees at import (`from conelab.specfun import
hyp2f1`), so each entry point is replaced in every conelab namespace that
binds the same function object, including module-level dicts such as
checks.SUITES. Spans stay in memory as (name, start, end, parent, thread
id, info) and are written to SPANS_FILE with marshal when the command
returns; `info` is read from the return value (series terms, 2F1
strategy, root residual, eigenvalue boundary residual, check records).
A span opened by a thread with no open span of its own (a pool worker)
takes as parent the innermost open span of the main thread, the one
waiting for it. Entry points that no longer exist are skipped.
"""

import itertools
import marshal
import sys
import threading
import time
from collections import Counter

import conelab  # noqa: F401  (loads every layer before wrapping)
from conelab import cli

SPAN_POINTS = {
    "backend.hyp2f1_series": ("conelab._backend", "hyp2f1_series",
                              lambda args, res: res[2]),
    "backend.robin_shoot": ("conelab._backend", "robin_shoot", None),
    "specfun.hyp2f1": ("conelab.specfun", "hyp2f1", lambda args, res: res.strategy.value),
    "specfun.hyp2f1_deriv": ("conelab.specfun", "hyp2f1_deriv", None),
    "specfun.ode_continuation": ("conelab.specfun", "_ode_continuation", None),
    "cone.find_root": ("conelab.cone", "find_root",
                       lambda args, res: (args[0].n, args[0].k, res.residual)),
    "cone.verdict": ("conelab.cone", "verdict", None),
    "cone.stability_margin": ("conelab.cone", "stability_margin", None),
    "spectrum.find_eigenvalue": ("conelab.spectrum", "find_eigenvalue",
                                 lambda args, res: res.bc_residual),
    "riccati.L_direct": ("conelab.riccati", "L_direct", None),
    "riccati.ode": ("conelab.riccati", "_L_ode_solution", None),
    "riccati.verify_barrier": ("conelab.riccati", "verify_barrier", None),
    "riccati.check_4_minus_n": ("conelab.riccati", "check_4_minus_n", None),
    "lemmas.root_bound_check": ("conelab.lemmas", "root_bound_check", None),
    "lemmas.overshoot_check": ("conelab.lemmas", "overshoot_check", None),
    "lemmas.estimate_z0": ("conelab.lemmas", "estimate_z0", None),
    "lemmas.proof_constants_check": ("conelab.lemmas", "proof_constants_check", None),
}
for _suite in ("specfun", "riccati", "lemmas", "barriers"):
    SPAN_POINTS[f"checks.{_suite}_suite"] = (
        "conelab.checks", f"{_suite}_suite",
        lambda args, res: (len(res), sum(not r.passed for r in res)))

# counted without a span, so their time stays with the caller's span
COUNT_POINTS = {
    "specfun.ode_integrations": ("conelab.specfun", "_OdeCache._integrate"),
}

spans = {}
events = []
_ids = itertools.count()
_local = threading.local()
_main_stack = []


def _stack():
    try:
        return _local.stack
    except AttributeError:
        _local.stack = []
        return _local.stack


def _info(info, args, res):
    if res is None or info is None:
        return None
    try:
        return info(args, res)
    except (AttributeError, TypeError, IndexError):  # a changed return type
        return None


def span_wrapper(name, fn, info):
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else (_main_stack[-1] if _main_stack else -1)
        idx = next(_ids)
        stack.append(idx)
        res = None
        t0 = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
            return res
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, threading.get_ident(),
                          _info(info, args, res))
    return wrapper


def count_wrapper(name, fn, _info=None):
    def wrapper(*args, **kwargs):
        events.append(name)
        return fn(*args, **kwargs)
    return wrapper


def install(name, module, attr, make, info=None):
    owner = sys.modules.get(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    raw = vars(owner).get(last) if owner is not None else None
    if raw is None:
        return
    if isinstance(raw, staticmethod):
        setattr(owner, last, staticmethod(make(name, raw.__func__, info)))
        return
    wrapped = make(name, raw, info)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "conelab" and not mod_name.startswith("conelab."):
            continue
        for key, val in list(vars(mod).items()):
            if val is raw:
                setattr(mod, key, wrapped)
            elif isinstance(val, dict):
                for dkey, dval in list(val.items()):
                    if dval is raw:
                        val[dkey] = wrapped


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    _local.stack = _main_stack
    for name, (module, attr, info) in SPAN_POINTS.items():
        install(name, module, attr, span_wrapper, info)
    for name, (module, attr) in COUNT_POINTS.items():
        install(name, module, attr, count_wrapper)
    rc = span_wrapper("cli.main", cli.main, None)(cli_args)
    sys.stdout.flush()
    with open(out_path, "wb") as fh:
        marshal.dump({"spans": spans, "counts": dict(Counter(events))}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
