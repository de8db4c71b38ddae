"""Large-cone gate: what `analyze` gives on about 300 fixed cells above
n = 40, pinned one cell a line in tests/data/large_cells.json.

The cells are every d <= 16 and a spread of k at n = 150, 400 and 1000,
the overflow frontier rows n = 1,200 ... 2,400, the cells that earlier
sweeps found at fault, and two ends of the range.  Each line holds
(n, k); the class, which is the verdict or the cause of the exit 2; t_nk
and lambda1 where `analyze` prints them; and whether the threshold value
F of the degree-(2-n)/2 profile at s_nk lies outside its own
err_estimate (null where find_root or that F fails; the verdict does not
use that F, since L comes from a continued fraction).  Classes must match
exactly and numbers to 1e-12 relative, so a change that moves a class
says why.  A 20-cell subset is checked against 40-digit mpmath: the root,
and where a verdict is printed, the threshold margin it was read from.

Rewrite the data file, only for a change that moves these outcomes on
purpose, with

    PYTHONPATH=src python tests/test_large_cells.py
"""

import json
import math
from pathlib import Path

import pytest

import conelab
from conelab import cli
from conelab.cone import ConeParams, find_root, profile_params, stability_margin
from conelab.errors import ConelabError
from conelab.specfun import hyp2f1

DATA = Path(__file__).resolve().parent / "data" / "large_cells.json"
SRC = Path(conelab.__file__).resolve().parent

# the exit-2 causes, told apart by their messages
CAUSES = {
    "profile not finite": "profile_not_finite",
    "no sign change": "no_sign_change",
    "profile vanishes": "pole",
    "leaves residual": "margin_residual",
}

# cells that sweeps found at fault: a steep root bracket (206,200) and
# (1000,984), a threshold sign inside its bound (397,392), (400,393),
# (1000,994) and (1000,997)
FOUND_CELLS = ((206, 200), (397, 392), (400, 393), (1000, 984), (1000, 994), (1000, 997))
# far out: verdicts at d = n/2 past the frontier and at d = 3; the margin
# root of (100000, 50000) passes its residual test only with c - A and
# c - B formed from alpha, not from the rounded A = (k + alpha)/2
RANGE_ENDS = ((2500, 1250), (10000, 3), (100000, 50000))

MPMATH_CELLS = (
    (150, 75), (150, 140), (150, 147), (206, 200), (397, 392), (400, 200),
    (400, 384), (400, 388), (400, 392), (400, 393), (400, 397), (1000, 500),
    (1000, 984), (1000, 988), (1000, 990), (1000, 994), (1000, 997),
    (1200, 1188), (1600, 1590), (2000, 1000),
)


def cells():
    out = set(FOUND_CELLS + RANGE_ENDS)
    for n in (150, 400, 1000):
        out.update((n, n - d) for d in range(2, 17))
        out.update((n, n - d) for d in (18, 20, 22, 25, 28, 30, 32, 36, 40, 45, 50, 60,
                                        70, 80, 100))
        out.update((n, k) for k in (1, 2, 3, 5, 10, 20, 50, n // 10, n // 4, n // 3,
                                    n // 2, 2 * n // 3, 3 * n // 4, 9 * n // 10))
    for n in (1200, 1600, 1800, 1900, 2000, 2400):
        out.update((n, n - d) for d in (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 22,
                                        25, 30, 35, 40, 50, 60, 80, 100))
        out.update((n, k) for k in (1, n // 4, n // 2))
    return sorted(out)


def record(n, k):
    """The line of the data file for the cell (n, k)."""
    try:
        rec = cli._cone_record(n, k)
        cls, t_nk, lambda1 = rec["verdict"], rec["t_nk"], rec["lambda1"]
    except ConelabError as exc:
        cls = next((c for text, c in CAUSES.items() if text in str(exc)), f"other: {exc}")
        t_nk = lambda1 = None
    p = ConeParams(n, k)
    try:
        F = hyp2f1(profile_params(p, (2.0 - n) / 2.0), find_root(p).s_nk)
        settled = abs(F.value) > F.err_estimate
    except ConelabError:
        settled = None
    return {"n": n, "k": k, "class": cls, "t_nk": t_nk, "lambda1": lambda1,
            "threshold_settled": settled}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_cells_are_the_generators(pinned):
    assert [(r["n"], r["k"]) for r in pinned] == cells()


def test_outcomes_match_pinned(pinned):
    def same(got, want):
        return got == want or (isinstance(got, float) and isinstance(want, float)
                               and math.isclose(got, want, rel_tol=1e-12))

    moved = [f"{want} -> {got}" for want, got in
             ((row, record(row["n"], row["k"])) for row in pinned)
             if not all(same(got[key], want[key]) for key in want)]
    assert not moved, f"{len(moved)} cells moved:\n" + "\n".join(moved[:20])


def test_causes_are_library_messages():
    # a cause whose message the library no longer raises is stale
    source = "".join(path.read_text() for path in SRC.glob("*.py"))
    assert [text for text in CAUSES if text not in source] == []


@pytest.mark.parametrize("n, k", MPMATH_CELLS, ids=lambda c: str(c))
def test_against_mpmath(n, k):
    # the library root lies within 1e-12 relative of mpmath's (the profile
    # changes sign across that band), and where a verdict is printed it has
    # the sign of the threshold margin L(s_nk) / (t (1 - t^2)) from 40-digit
    # F'/F at the library's root, and the library's margin lies within
    # 1e-10 relative of it
    mpmath = pytest.importorskip("mpmath")
    p = ConeParams(n, k)
    r = find_root(p)
    s_nk = r.s_nk
    with mpmath.workdps(40):
        def mp_profile(alpha, s):
            hp = profile_params(p, alpha)
            return mpmath.hyp2f1(hp.a, hp.b, hp.c, mpmath.mpf(s))

        band = mpmath.mpf(s_nk) * mpmath.mpf(10) ** -12
        assert mp_profile(1.0, s_nk - band) > 0 > mp_profile(1.0, s_nk + band)
        try:
            rec = cli._cone_record(n, k)
        except ConelabError:
            return
        threshold = (2.0 - n) / 2.0
        hp = profile_params(p, threshold)
        a, b, c, s = (mpmath.mpf(x) for x in (*hp, s_nk))
        ratio = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, s) / mp_profile(threshold, s_nk)
        want = (2 * s * (1 - s) * ratio - (n - 2) * s + (k - 1)) / (mpmath.sqrt(s) * (1 - s))
        got = stability_margin(p, threshold, r)
        assert abs(got - want) <= 1e-10 * abs(want), (got, float(want))
        assert rec["verdict"] == ("strictly_stable" if want > 0 else "unstable"), float(want)


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(json.dumps(record(n, k)) for n, k in cells())
                    + "\n]\n")
