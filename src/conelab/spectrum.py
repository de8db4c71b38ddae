"""The family scan: the first eigenvalue lambda_1 of the Robin link
problem and the decay rates gamma_+- over the cells 3 <= n <= 40,
1 <= k <= n-2, with the monotonicity and range flags of the
conjecture-evidence scan.

For the mode (0, 0) the regular solution of the link ODE at lambda is the
profile 2F1(a, b; k/2; t^2), a + b = (n-2)/2, ab = -lambda/4, so the
Robin matching at the free-boundary root is the stability margin
vanishing in lambda: cone.verdict takes lambda_1 and gamma_+- from that
root for every cell, and family_scan tabulates them.  Shooting the link
problem for any mode and index is the tests' oracle (tests/oracles.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from conelab.cone import ConeParams, find_root, verdict

__all__ = [
    "ScanRow",
    "ScanReport",
    "family_cells",
    "family_scan",
]


@dataclass(frozen=True)
class ScanRow:
    n: int
    k: int
    t_nk: float
    lambda1: float
    gamma_plus: Optional[float]
    gamma_minus: Optional[float]


@dataclass(frozen=True)
class ScanReport:
    rows: Tuple[ScanRow, ...]
    flags: Dict[str, bool]
    notes: Tuple[str, ...]


def _scan_cell(n: int, k: int) -> ScanRow:
    pars = ConeParams(n, k)
    root = find_root(pars)
    rep = verdict(pars, root)
    return ScanRow(n=n, k=k, t_nk=root.t_nk, lambda1=rep.lambda1,
                   gamma_plus=rep.gamma_plus, gamma_minus=rep.gamma_minus)


def family_cells(n_lo: int, n_hi: int) -> List[Tuple[int, int]]:
    """The cells (n, k), n_lo <= n <= n_hi and 1 <= k <= n-2, in (n, k)
    order; raises ValueError, naming the range, unless
    3 <= n_lo <= n_hi <= 40."""
    if not 3 <= n_lo <= n_hi <= 40:
        raise ValueError(f"n_range must satisfy 3 <= n_lo <= n_hi <= 40, "
                         f"got n_lo={n_lo}, n_hi={n_hi}")
    return [(n, k) for n in range(n_lo, n_hi + 1) for k in range(1, n - 1)]


def family_scan(n_range: Tuple[int, int]) -> ScanReport:
    """First-eigenvalue table over n in [n_lo, n_hi], k in [1, n-2], with
    the monotonicity and range flags of the conjecture-evidence scan.

    Rows come in (n, k) order.  The bound flags are evaluated on the n >= 7
    rows, where the family is strictly stable; a flag that has no row or
    consecutive pair to judge passes, and a note names it.
    """
    rows = [_scan_cell(n, k) for n, k in family_cells(*n_range)]

    notes: List[str] = []
    stable_rows = [r for r in rows if r.n >= 7]
    by_n: Dict[int, List[ScanRow]] = {}
    for r in stable_rows:
        by_n.setdefault(r.n, []).append(r)

    inc_k = True
    for n, group in by_n.items():
        lams = [r.lambda1 for r in sorted(group, key=lambda r: r.k)]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            inc_k = False
            notes.append(f"lambda1 not strictly increasing in k at n={n}")
    above = all(r.lambda1 > 8.0 - 2.0 * r.n for r in stable_rows)
    gm_rng = all(r.gamma_minus is not None
                 and 2.0 - r.n < r.gamma_minus < 4.0 - r.n for r in stable_rows)
    gp_rng = all(r.gamma_plus is not None
                 and -2.0 < r.gamma_plus < 0.0 for r in stable_rows)
    bar = [group[-1] for n, group in sorted(by_n.items()) if group[-1].k == n - 2]
    gbar_vals = [r.gamma_plus for r in bar]
    gbar_inc = all(b > a for a, b in zip(gbar_vals, gbar_vals[1:]))
    gbar_rng = all(g is not None and -2.0 < g < -1.0 for g in gbar_vals)
    # signed first eigenvalue of the k = n-2 member: -5.55 > -6.54 > ...
    lbar = [r.lambda1 for r in bar]
    lbar_dec = all(b < a for a, b in zip(lbar, lbar[1:]))

    judged = {
        "lambda1_strictly_increasing_in_k": (inc_k, sum(len(g) - 1 for g in by_n.values())),
        "lambda1_above_8_minus_2n": (above, len(stable_rows)),
        "gamma_minus_in_2mn_4mn": (gm_rng, len(stable_rows)),
        "gamma_plus_in_m2_0": (gp_rng, len(stable_rows)),
        "gamma_bar_strictly_increasing": (gbar_inc, len(bar) - 1),
        "gamma_bar_in_m2_m1": (gbar_rng, len(bar)),
        "lambda_bar_strictly_decreasing": (lbar_dec, len(bar) - 1),
    }
    notes += [f"flag {name} judged no row or pair: it passes vacuously"
              for name, (_, count) in judged.items() if count < 1]
    flags = {name: ok for name, (ok, _) in judged.items()}
    return ScanReport(rows=tuple(rows), flags=flags, notes=tuple(notes))
