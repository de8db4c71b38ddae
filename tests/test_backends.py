"""Compiled and pure-Python kernels must agree to roundoff; the package
works with either selected at import.

When the package was installed without its extension, the agreement tests
build _kernels.c into a temporary directory with the flags of setup.py;
they skip only when no C compiler exists."""

import importlib.util
import inspect
import json
import math
import random
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

from conelab import _pykernels

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "conelab" / "_kernels.c"


@pytest.fixture(scope="session")
def _kernels(tmp_path_factory):
    try:
        from conelab import _kernels as built
        return built
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler to build the compiled kernels")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("kernels")
    ext = Extension("conelab._kernels", [str(KERNEL_SOURCE)],
                    extra_compile_args=["-O3", "-ffp-contract=off"])
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib, cmd.build_temp = str(out), str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "conelab._kernels", cmd.get_ext_fullpath("conelab._kernels"))
    built = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(built)
    assert built.BACKEND == "compiled"
    return built


def test_series_kernel_agreement(_kernels):
    cases = [
        (3.0, -0.5, 2.0, 0.3),
        (999.5, -0.5, 500.0, 0.52),
        (1.0, 8.0, 3.5, 0.45),
        (-2.0, 1.3, 0.7, -0.4),
    ]
    for (a, b, c, s) in cases:
        vc, ec, tc, okc = _kernels.hyp2f1_series(a, b, c, s, 1e-15, 1e-280, 40000)
        vp, ep, tp, okp = _pykernels.hyp2f1_series(a, b, c, s, 1e-15, 1e-280, 40000)
        assert okc and okp
        assert tc == tp
        assert vc == vp  # statement-identical summation
        assert ec == ep  # and error bound


def test_shoot_kernel_agreement(_kernels):
    args = (1.0, -5.6e-6, 1e-6, 0.517, 7.0, 1.0, -5.7, 0.0, 0.0,
            1e-11, 1e-300, 0.01, 1_000_000)
    uc, vc, zc, okc = _kernels.robin_shoot(*args)
    up, vp, zp, okp = _pykernels.robin_shoot(*args)
    assert okc and okp and zc == zp
    assert math.isclose(uc, up, rel_tol=1e-12)
    assert math.isclose(vc, vp, rel_tol=1e-12)


def test_shoot_kernel_bit_identical(_kernels):
    # the mirror squares by multiplication, as the C source does: x ** 2
    # calls pow(), which differs from x * x in the last bit on some shots
    for n in (7, 33, 40):
        for k in (1, n - 2):
            for q in (0, 2):
                for lam in (-2.0 * n, 3.0):
                    args = (1.0, -lam * 1e-6, 1e-6, 0.9 - 0.5 / k, float(n), float(k),
                            lam, 0.0, q * (q + k - 2.0), 1e-11, 1e-300, 0.03, 2_000_000)
                    assert _kernels.robin_shoot(*args) == _pykernels.robin_shoot(*args)


def _same(x, y):
    """Tuples equal field for field, NaN equal to NaN, and of the same
    types, so an int count never matches a float or a bool."""
    return len(x) == len(y) and all(
        type(p) is type(q) and (p == q or (p != p and q != q)) for p, q in zip(x, y))


def _series_draw(rng):
    a = rng.choice([-float(rng.randint(0, 30)), rng.uniform(-60.0, 60.0)])
    b = rng.choice([-0.5, -float(rng.randint(0, 30)), rng.uniform(-60.0, 60.0)])
    # c + i <= 0 for the first terms, where no tail bound exists; a
    # nonpositive integer c is a pole of every term and no kernel input
    c = rng.choice([rng.uniform(0.01, 80.0), -rng.randint(0, 20) - rng.uniform(0.01, 0.99)])
    s = rng.choice([0.0, 1.0 - rng.uniform(0.0, 1e-8), rng.uniform(-0.999, 0.999)])
    return a, b, c, s, rng.choice([1e-15, 1e-8]), 1e-280, rng.choice([0, 1, 5, 500, 2000])


def _overflow_draw(rng):
    # a near 1e5 and c = a/2, as in the profiles of n near 2e5: the total
    # overflows on some draws and not on others
    a = rng.uniform(1e3, 2e5)
    b = rng.choice([-0.5, rng.uniform(-60.0, 60.0), -float(rng.randint(100, 400))])
    return (a, b, a * rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.99),
            rng.choice([1e-15, 1e-8]), 1e-280, rng.choice([500, 5000, 40000]))


def _shot_draw(rng):
    n = rng.randint(3, 40)
    k = rng.randint(1, n - 2)
    p, q = rng.randint(0, 3), rng.randint(0, 3)
    t0 = rng.uniform(1e-6, 0.05)
    return (t0 ** q, q * t0 ** (q - 1) if q else -1e-6, t0, rng.uniform(0.3, 0.95),
            float(n), float(k), rng.uniform(-2.0 * n, 80.0),
            p * (p + n - k - 2.0), q * (q + k - 2.0), rng.choice([1e-11, 1e-8]), 1e-300,
            rng.uniform(0.01, 0.05), rng.choice([3, 50, 2_000_000]))


def test_kernels_bit_identical_on_seeded_draws(_kernels):
    # exhausted budgets, infinite tail bounds, terminating and b = -1/2
    # series, shots cut by the step limit, and totals that overflow,
    # compared to the last bit
    rng = random.Random(20261019)
    for _ in range(1500):
        args = _series_draw(rng)
        assert _same(_kernels.hyp2f1_series(*args), _pykernels.hyp2f1_series(*args)), args
    for _ in range(150):
        args = _shot_draw(rng)
        assert _same(_kernels.robin_shoot(*args), _pykernels.robin_shoot(*args)), args
    overflowed = 0
    for _ in range(60):
        args = _overflow_draw(rng)
        got = _kernels.hyp2f1_series(*args)
        assert _same(got, _pykernels.hyp2f1_series(*args)), args
        assert math.isfinite(got[0]) or got[3] is False, args
        overflowed += not math.isfinite(got[0])
    assert overflowed >= 10


def _fraction_draw(rng):
    # L_direct's arguments (n, k, alpha, q): a real exponent over [2-n, 0]
    # with both ends, alpha = -k (A = 0) and alpha = 4-n (A = (4-d)/2, a
    # nonpositive integer for even d >= 4, where the fraction ends), or
    # the conjugate pair at alpha = (2-n)/2 with q = w^2/4, w up to 1e6 (q
    # up to 2.5e11); d = 2 often; s = 0, s near 1 and plain points; now and
    # then a budget small enough to stall
    n = rng.choice([rng.randint(3, 40), rng.randint(3, 400), rng.randint(3, 2000)])
    k = rng.choice([rng.randint(1, n - 2), n - 2])
    if rng.random() < 0.6:
        alpha = rng.choice([2.0 - n, 0.0, -float(k), min(4.0 - n, 0.0),
                            -float(rng.randint(0, n - 2)), rng.uniform(2.0 - n, 0.0)])
        w = 0.0
    else:
        alpha = (2.0 - n) / 2.0
        w = rng.choice([rng.uniform(0.0, 3.0), rng.uniform(0.0, 100.0), 10.0 ** rng.uniform(2.0, 6.0)])
    ss = [rng.choice([0.0, rng.random(), rng.uniform(0.9, 0.999), 1.0 - 10.0 ** rng.uniform(-6.0, -1.0),
                      1.0 - 1e-6]) for _ in range(rng.randint(1, 3))]
    max_terms = rng.choice([40000] * 6 + [8, 20, 64, 300])
    return (n, k, alpha, 0.25 * w * w, ss, 1e-13, max_terms)


def test_fraction_kernel_bit_identical_on_seeded_draws(_kernels):
    # values, and on a stall the point, L and the level count, to the last bit
    rng = random.Random(20261020)
    kinds = set()
    for _ in range(400):
        args = _fraction_draw(rng)
        got, want = _kernels.L_fraction(*args), _pykernels.L_fraction(*args)
        assert all((g is None and w is None) or _same(g, w) for g, w in zip(got, want)), args
        kinds.add((args[3] > 0.0, got[1] is None))
    assert kinds == {(False, True), (False, False), (True, True), (True, False)}
    # (7,5) at alpha = -2.5: d = 2, where s = 1 - 1e-6 needs about 21,600 levels
    args = (7, 5, -2.5, 0.0, [0.0, 0.5, 1.0 - 1e-6], 1e-13, 40000)
    got = _kernels.L_fraction(*args)
    assert got == _pykernels.L_fraction(*args) and got[0][0] == 4.0 and got[1] is None


@pytest.mark.parametrize("alpha, q", [(-2.5, -1e-300), (-2.5, math.nan),
                                      (-2.0, 0.25), (-2.0, math.inf)])
def test_fraction_takes_a_real_or_a_conjugate_pair(_kernels, alpha, q):
    # q < 0 (or NaN), and q > 0 off alpha = (2-n)/2, are no exponent
    # L_direct builds
    args = (7, 1, alpha, q, [0.5], 1e-13, 100)
    msgs = []
    for kernels in (_kernels, _pykernels):
        with pytest.raises(ValueError) as info:
            kernels.L_fraction(*args)
        msgs.append(str(info.value))
    assert msgs[0] == msgs[1] == (f"L_fraction() needs q >= 0, and alpha = (2-n)/2 where "
                                  f"q > 0; got n=7, alpha={alpha!r}, q={q!r}")


@pytest.mark.parametrize("ss", [[math.nan], [0.5, math.nan], [0.5, -0.1], [1.0 - 1e-6, 1.0]])
def test_fraction_checks_the_whole_grid_first(_kernels, ss):
    # every s must lie in [0, 1), NaN included; the grid is checked before
    # the first point is cut, so a bad s after a point that would stall on
    # this budget of 8 levels is still the ValueError
    for kernels in (_kernels, _pykernels):
        with pytest.raises(ValueError, match=r"^s must lie in \[0, 1\)$"):
            kernels.L_fraction(7, 1, -2.5, 0.0, ss, 1e-13, 8)


def _ts_nodes():
    """The nodes of every level of specfun.hyp2f1_integral out to its
    widest cut: the integers of level 0, then the odd multiples of 2^-L."""
    from conelab.specfun import TS_MAX_LEVEL, TS_X_MAX
    x_max = int(TS_X_MAX)
    nodes = [float(x) for x in range(x_max + 1)]
    for level in range(1, TS_MAX_LEVEL + 1):
        h = 0.5 ** level
        nodes += [j * h for j in range(1, int(x_max / h) + 1, 2)]
    return nodes


def _outcome(kernel, *args):
    """What a kernel returns, or the type and message of what it raises."""
    try:
        return kernel(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_ts_kernel_bit_identical_on_seeded_draws(_kernels):
    # the verify suite's 200 draws, then wider ones: s near 1, negative s
    # and large |a|, where exp overflows and both kernels raise alike
    nodes = _ts_nodes()
    rng = random.Random(20260214)
    draws = []
    for _ in range(200):
        b = rng.uniform(0.2, 4.0)
        c = b + rng.uniform(0.2, 4.0)
        draws.append((rng.uniform(-2.0, 5.0), b, c - b, rng.uniform(0.0, 0.95)))
    rng = random.Random(20261021)
    for _ in range(400):
        a = rng.choice([rng.uniform(-5.0, 10.0), rng.uniform(-3000.0, 3000.0)])
        s = rng.choice([rng.uniform(-20.0, 0.0), rng.uniform(0.0, 1.0),
                        1.0 - 10.0 ** rng.uniform(-15.0, -2.0)])
        draws.append((a, rng.uniform(1e-3, 30.0), rng.uniform(1e-3, 30.0), s))
    raised = 0
    for a, b, cb, s in draws:
        got = _outcome(_kernels.ts_terms, a, b, cb, s, nodes)
        want = _outcome(_pykernels.ts_terms, a, b, cb, s, nodes)
        assert type(got) is tuple and len(got) == 2
        if isinstance(got[0], type):
            raised += 1
            assert got == want, (a, b, cb, s)
        else:
            assert all(_same(x, y) for x, y in zip(got, want)), (a, b, cb, s)
    assert 10 <= raised <= 300, raised


def _barrier_cells():
    """The verify suite's 36 cells, then n up to 3000 and d = 6..59."""
    from conelab.checks import BARRIER_D, BARRIER_N
    rng = random.Random(20261022)
    cells = [(n, d) for n in BARRIER_N for d in BARRIER_D]
    cells += [(rng.randint(61, 3000), rng.randint(6, 59)) for _ in range(300)]
    return cells


def test_barrier_kernel_bit_identical_on_seeded_draws(_kernels):
    # both kernels against each other and against the residual as
    # verify_barrier wrote it before the kernel: barrier_phi's phi and
    # P_poly on the Chebyshev grid of [k/n, s_end]
    from conelab.checks import BARRIER_GRID, P_poly, barrier_phi
    from conelab.cone import ConeParams
    from conelab.errors import VariantUnavailableError
    checked = 0
    for n, d in _barrier_cells():
        p = ConeParams(n, n - d)
        try:
            s_star, (r_minus, r_plus), delta, phi = barrier_phi(p)
        except VariantUnavailableError:
            continue
        k = float(p.k)
        s_end = s_star - (s_star - k / n) * 1e-9
        args = (float(n), k, s_star, r_minus, r_plus, delta, s_end, BARRIER_GRID)
        got = _kernels.barrier_residual(*args)
        assert _same((got,), (_pykernels.barrier_residual(*args),)), (n, d)
        grid = [k / n + (s_end - k / n) * 0.5 * (1.0 - math.cos(math.pi * j / (BARRIER_GRID - 1)))
                for j in range(BARRIER_GRID)]
        assert got == max((n * s - k + (r_minus + r_plus)) * phi(s)
                          + P_poly(p, 2.0 * (4.0 - n), s) - r_minus * r_plus
                          for s in grid), (n, d)
        checked += 1
    assert checked >= 300, checked


@pytest.mark.parametrize("grid", [1, 0, -5])
def test_barrier_kernel_needs_two_points(_kernels, grid):
    args = (200.0, 160.0, 0.9, -3.0, -1.0, 4.0, 0.85, grid)
    for kernels in (_kernels, _pykernels):
        with pytest.raises(ValueError, match="2 points or more"):
            kernels.barrier_residual(*args)


def _root_cells():
    """find_root's cells: every cell with n <= 40, the large cells that
    tests/data/large_cells.json pins, far cells of small d, and the cell
    whose profile turns NaN at a step."""
    data = Path(__file__).resolve().parent / "data"
    pinned = json.loads((data / "large_cells.json").read_text())
    return ([(n, k) for n in range(3, 41) for k in range(1, n - 1)]
            + [(r["n"], r["k"]) for r in pinned]
            + [(n, n - d) for n in (10 ** 4, 10 ** 6) for d in (2, 3, 8, 100)]
            + [(160008, 144006)])


def _direct(hp, s):
    """Does the router take 2F1 at s as the direct series, and converge?"""
    from conelab.errors import NonConvergenceError
    from conelab.specfun import Strategy, hyp2f1
    try:
        return hyp2f1(hp, s).strategy is Strategy.DIRECT_SERIES
    except NonConvergenceError:
        return False


def test_illinois_kernel_bit_identical_on_seeded_draws(_kernels, monkeypatch):
    # find_root and verdict through each kernel: the same results, or the
    # same error, to the last bit, and the same callback points; and with
    # its series span the solver calls the profile exactly where the router
    # takes no direct series, or that series does not converge
    import conelab.cone as cone
    from conelab.errors import ConelabError
    from conelab.specfun import hyp2f1, series_span
    called = []
    monkeypatch.setattr(cone, "hyp2f1", lambda hp, s: called.append(s) or hyp2f1(hp, s))

    def attempt(call):
        """repr of what call() returns, or the type and message of the error
        it raises, and the profile's points."""
        called.clear()
        try:
            out = repr(call())
        except ConelabError as exc:
            out = (type(exc), str(exc))
        return out, list(called)

    def run(kernel, step, *args):
        monkeypatch.setattr(cone, "illinois", kernel)
        return attempt(lambda: step(*args))

    raised = []
    for n, k in _root_cells():
        p = cone.ConeParams(n, k)
        got = run(_kernels.illinois, cone.find_root, p)
        assert got == run(_pykernels.illinois, cone.find_root, p), (n, k)
        # without the span, every step calls the profile
        steps = run(lambda *args: _pykernels.illinois(*args[:5]), cone.find_root, p)
        assert steps[0] == got[0], (n, k)
        hp = cone.profile_params(p, 1.0)
        assert got[1] == steps[1][:1] + [s for s in steps[1][1:] if not _direct(hp, s)], (n, k)
        if isinstance(got[0], tuple):
            raised.append((n, k))
        elif n <= 40 or n in (150, 400):
            r = cone.find_root(p)
            assert (run(_kernels.illinois, cone.verdict, p, r)
                    == run(_pykernels.illinois, cone.verdict, p, r)), (n, k)
    assert raised == [(160008, 144006)]
    # the error of a callback passes through unchanged
    seeded = RuntimeError("seeded")

    def boom(x):
        raise seeded

    for kernels in (_kernels, _pykernels):
        with pytest.raises(RuntimeError) as info:
            kernels.illinois(boom, 0.0, 1.0, 1.0, -1.0)
        assert info.value is seeded
    # the flat-steep brackets of test_steep_bracket_bisects, and f = -inf
    # at the upper end
    lo = 63.0 / 64.0
    for f, a, b in [(lambda x: 0.05 - 1e30 * ((x - lo) / (1.0 - lo)) ** 40, lo, 1.0),
                    (lambda x: 1.0 - math.exp(20.0 * (x - 0.5)), 0.0, 1.0),
                    (lambda x: 1e-3 - x ** 9, 0.0, 1.0),
                    (lambda x: -math.inf if x == 1.0 else 1.0 + math.log1p(-x), 0.0, 1.0)]:
        outs = []
        for kernels in (_kernels, _pykernels):
            called.clear()
            outs.append((kernels.illinois(lambda x: called.append(x) or f(x), a, f(a), b, f(b)),
                         list(called)))
        assert _same(outs[0][0], outs[1][0]) and outs[0][1] == outs[1][1]
    # spans whose sums stop short of converging, or reach past the router's
    rng = random.Random(20261023)
    for _ in range(300):
        n = rng.choice([rng.randint(3, 40), rng.randint(41, 3000)])
        p = cone.ConeParams(n, rng.randint(1, n - 2))
        hp = cone.profile_params(p, 1.0)
        a, b, c, _, _, rel_tol, abs_tol, _, _ = series_span(hp.a, hp.b, hp.c)
        span = (a, b, c, rng.choice([0.5, 0.2, 0.0]), rng.choice([0.5, 0.99, 0.999]),
                rel_tol, abs_tol, rng.choice([0, 3, 40000]), rng.choice([1, 20, 8000]))
        s_up = min(2.0 * p.k / (n - 1.0), cone.refined_terminal_point(p))
        f_up = hyp2f1(hp, s_up).value
        if not f_up <= 0.0:
            continue
        profile = lambda s: cone.hyp2f1(hp, s).value
        outs = [attempt(lambda: kernels.illinois(profile, 0.0, 1.0, s_up, f_up, span))
                for kernels in (_kernels, _pykernels)]
        assert outs[0] == outs[1], (n, p.k, span)


def test_backends_export_the_same_kernels(_kernels):
    # no kernel lands on one side only, each takes the same parameters (the
    # text signatures of the C docstrings against the mirror's), and the
    # solver's tolerance is shared
    from conelab import _backend

    def own(mod):
        return {name for name, v in vars(mod).items() if callable(v) and not name.startswith("_")
                and getattr(v, "__module__", None) == mod.__name__}

    bound = {name for name, v in vars(_backend).items()
             if callable(v) and not name.startswith("_")}
    assert own(_kernels) == own(_pykernels) == bound
    for name in bound:
        assert inspect.signature(getattr(_kernels, name)) == \
            inspect.signature(getattr(_pykernels, name)), name
    assert _kernels.ROOT_F_TOL == _pykernels.ROOT_F_TOL


def _returns_text(x):
    return "0.5"


@pytest.mark.parametrize("name, args", [
    ("hyp2f1_series", (1.0, 1.0, 1.0, 0.5, 1e-15, 1e-280)),
    ("hyp2f1_series", (1.0, 1.0, "1", 0.5, 1e-15, 1e-280, 100)),
    ("L_fraction", (7, 1, -2.5, 0.0, [0.5], 1e-13)),
    ("L_fraction", (7, 1, -2.5, 0.0, [0.5], 1e-13, 100, 0)),
    ("L_fraction", (7, 1, -2.5, "0", [0.5], 1e-13, 100)),
    ("L_fraction", ("7", 1, -2.5, 0.0, [0.5], 1e-13, 100)),
    ("L_fraction", (7, 1, -2.5 + 1j, 0.0, [0.5], 1e-13, 100)),
    ("L_fraction", (7, 1, -2.5, 0.0, 0.5, 1e-13, 100)),
    ("L_fraction", (7, 1, -2.5, 0.0, [0.5], 1e-13, 100.0)),
    ("ts_terms", (1.0, 1.0, 1.0, 0.5)),
    ("ts_terms", (1.0, 1.0, 1.0, 0.5, [0.0], 1)),
    ("ts_terms", (1.0, "1", 1.0, 0.5, [0.0])),
    ("ts_terms", (1.0, 1.0, 1.0, 0.5, 0.0)),
    ("ts_terms", (1.0, 1.0, 1.0, 0.5, ["0.5"])),
    ("barrier_residual", (200.0, 160.0, 0.9, -3.0, -1.0, 4.0, 0.85)),
    ("barrier_residual", (200.0, 160.0, 0.9, -3.0, -1.0, 4.0, 0.85, 512, 0)),
    ("barrier_residual", (200.0, 160.0, "0.9", -3.0, -1.0, 4.0, 0.85, 512)),
    ("barrier_residual", (200.0, 160.0, 0.9, -3.0, -1.0, 4.0, 0.85, 512.0)),
    ("illinois", (math.sqrt, 0.0, 1.0, 1.0)),
    ("illinois", (math.sqrt, 0.0, 1.0, 1.0, -1.0, None, 0)),
    ("illinois", (math.sqrt, "0", 1.0, 1.0, -1.0)),
    ("illinois", (math.sqrt, 0.0, 1.0, 1.0, -1.0, 0.5)),
    ("illinois", (math.sqrt, 0.0, 1.0, 1.0, -1.0, (3.5, -0.5, 2.0, 0.5, 0.99))),
    ("illinois", (math.sqrt, 0.0, 1.0, 1.0, -1.0,
                  (3.5, -0.5, 2.0, 0.5, 0.99, 1e-15, 1e-280, 40000.0, 8000))),
    ("illinois", (None, 0.0, 1.0, 1.0, -1.0)),
    ("illinois", (_returns_text, 0.0, 1.0, 1.0, -1.0)),
    # a string in the grid: the per-point conversion's error path, alone
    # and after a point already read, with the grid and the result list to
    # free
    ("L_fraction", (7, 1, -2.5, 0.0, ["0.5"], 1e-13, 100)),
    ("L_fraction", (7, 1, -2.5, 0.0, [0.5, "0.5"], 1e-13, 100)),
])
def test_kernel_argument_errors(_kernels, name, args):
    with pytest.raises(TypeError):
        getattr(_kernels, name)(*args)


def test_overflowed_total_is_not_converged(_kernels):
    # the total of 2F1(80003.5, -1/2; 40001.5; 0.6506) overflows to -inf,
    # which clears every tolerance; it was reported converged, and
    # `analyze --n 160008 --k 80003` then failed on f = nan
    args = (80003.5, -0.5, 40001.5, 0.6506, 1e-15, 1e-280, 40000)
    for kernels in (_kernels, _pykernels):
        value, err, _, converged = kernels.hyp2f1_series(*args)
        assert (value, err, converged) == (-math.inf, math.inf, False)


def test_backend_name_exposed():
    import conelab
    assert conelab.BACKEND_NAME in ("compiled", "python")


def test_kernel_digest_matches_source():
    # _backend's literal is the SHA-256 of the _kernels.c beside it, so an
    # edit to the C must update it (and setup.py compiles it in)
    import hashlib

    from conelab import _backend
    assert _backend.KERNELS_SHA256 == hashlib.sha256(KERNEL_SOURCE.read_bytes()).hexdigest()


def _load_backend(monkeypatch, fake):
    """Run _backend's import logic with conelab._kernels replaced by fake
    (None: no extension), in a module of its own."""
    import sys
    import types

    import conelab
    monkeypatch.delenv("CONELAB_PURE", raising=False)
    monkeypatch.setitem(sys.modules, "conelab._kernels", fake)
    if isinstance(fake, types.ModuleType):
        monkeypatch.setattr(conelab, "_kernels", fake, raising=False)
    else:
        monkeypatch.delattr(conelab, "_kernels", raising=False)
    path = Path(conelab.__file__).with_name("_backend.py")
    spec = importlib.util.spec_from_file_location("conelab_backend_probe", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_stale_extension_is_an_import_error(monkeypatch):
    # an extension built from another _kernels.c, or before the digest was
    # compiled in, must not load under the name "compiled"
    import types
    from conelab import _backend
    for digest in ("0" * 64, None):
        fake = types.ModuleType("conelab._kernels")
        fake.__file__, fake.BACKEND = "/nowhere/_kernels.so", "compiled"
        if digest is not None:
            fake.SOURCE_SHA256 = digest
        with pytest.raises(ImportError) as info:
            _load_backend(monkeypatch, fake)
        msg = str(info.value)
        assert repr(digest) in msg and repr(_backend.KERNELS_SHA256) in msg
        assert "`python setup.py build_ext --inplace --force`" in msg


def test_missing_extension_falls_back(monkeypatch):
    mod = _load_backend(monkeypatch, None)
    assert mod.BACKEND_NAME == "python" and mod.L_fraction is _pykernels.L_fraction


def test_pure_fallback_env(tmp_path):
    # a fresh interpreter with CONELAB_PURE=1 must select the fallback
    import os
    import subprocess
    import sys
    env = dict(os.environ, CONELAB_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "import conelab; print(conelab.BACKEND_NAME)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "python"
