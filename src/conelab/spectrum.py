"""Robin eigenvalue problem on the spherical link of the cone.

For a separated mode (p, q) the radial factor solves

    (1-t^2) Phi'' + ((k-1)/t - (n-1) t) Phi'
        + (lambda - p(p+n-k-2)/(1-t^2) - q(q+k-2)/t^2) Phi = 0

with the regular Frobenius branch Phi ~ t^q at the axis and the Robin
matching Phi'/Phi = ((n-2) t - (k-1)/t) / (1-t^2) at the free-boundary
root.  For the mode (0, 0) the regular solution at lambda is the profile
2F1(a, b; k/2; t^2), a + b = (n-2)/2, ab = -lambda/4, so the matching is
the stability margin vanishing in lambda: first_eigenvalue takes lambda_1
from that root (cone.lambda1_root) for every cell.  chained_shot
integrates the link ODE for riccati's cross-check of L.  The tests'
oracles (tests/oracles.py), Pruefer-angle shooting for any mode and index
and a finite-difference discretization, reuse chained_shot, the mode
potentials and _eigen_result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from conelab._backend import robin_shoot
from conelab.cone import ConeParams, RootResult, find_root, indicial_roots, lambda1_root
from conelab.errors import IntegrationFailure, NonConvergenceError

__all__ = [
    "Mode",
    "EigenResult",
    "ScanRow",
    "ScanReport",
    "chained_shot",
    "first_eigenvalue",
    "family_cells",
    "family_scan",
]


@dataclass(frozen=True)
class Mode:
    """Spherical harmonic degrees on the two sphere factors."""

    p: int = 0
    q: int = 0

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("mode degrees must be nonnegative")


T_LAUNCH = 1e-6  # axis offset of the Frobenius launch
ODE_TOL = 1e-11  # local error tolerance of the shooting integrator
BC_RESIDUAL_MAX = 1e-9  # largest accepted |Phi'/Phi - Robin side| at the root


@dataclass(frozen=True)
class EigenResult:
    lam: float
    zeros_interior: int
    gamma_minus: Optional[float]
    gamma_plus: Optional[float]
    bc_residual: float


def _mode_potentials(p_: ConeParams, mode: Mode) -> Tuple[float, float]:
    P2 = mode.p * (mode.p + p_.n - p_.k - 2.0)
    Q2 = mode.q * (mode.q + p_.k - 2.0)
    return P2, Q2


def _frobenius_launch(p_: ConeParams, mode: Mode, lam: float,
                      tl: float) -> Tuple[float, float]:
    """Fourth-order series launch of the regular branch Phi ~ t^q.

    Substituting Phi = t^q (1 + c2 t^2 + c4 t^4) into the mode ODE gives
        c2 = (q(q+n-2) + P2 - lam) / (2 (2q + k)),
        c4 = (c2 ((q+2)(q+n) - lam + P2) + P2) / (4 (2q + k + 2)).
    """
    n, k, q = p_.n, p_.k, mode.q
    P2, _ = _mode_potentials(p_, mode)
    c2 = (q * (q + n - 2.0) + P2 - lam) / (2.0 * (2.0 * q + k))
    c4 = (c2 * ((q + 2.0) * (q + n) - lam + P2) + P2) / (4.0 * (2.0 * q + k + 2.0))
    poly = 1.0 + c2 * tl * tl + c4 * tl ** 4
    dpoly = 2.0 * c2 * tl + 4.0 * c4 * tl ** 3
    if q == 0:
        return poly, dpoly
    u = tl ** q * poly
    v = q * tl ** (q - 1) * poly + tl ** q * dpoly
    return u, v


def chained_shot(pars: ConeParams, lam: float, ts: Sequence[float],
                 mode: Mode = Mode()) -> List[Tuple[float, float, int]]:
    """(u, v, zeros) at each increasing t of ts, for (u, v) a positive
    multiple of (Phi, Phi') and zeros the interior sign changes of Phi so
    far: one integration from the Frobenius launch at T_LAUNCH, carried
    from point to point; points at or below the launch take the series.
    Raises IntegrationFailure on a step collapse."""
    P2, Q2 = _mode_potentials(pars, mode)
    t0, zeros, out = T_LAUNCH, 0, []
    u, v = _frobenius_launch(pars, mode, lam, t0)
    # resolve the local oscillation scale so step-wise sign counting is exact
    max_step = min(0.25 / math.sqrt(1.0 + abs(lam)), (ts[-1] - T_LAUNCH) / 16.0)
    for t in ts:
        if t <= T_LAUNCH:
            out.append((*_frobenius_launch(pars, mode, lam, t), 0))
            continue
        u, v, z, ok = robin_shoot(u, v, t0, t, float(pars.n), float(pars.k), lam, P2, Q2,
                                  ODE_TOL, 1e-300, max_step, 2_000_000)
        if not ok:
            raise IntegrationFailure(f"shooting step collapse before t={t} at "
                                     f"(n,k)=({pars.n},{pars.k}), lambda={lam}")
        t0, zeros = t, zeros + z
        out.append((u, v, zeros))
    return out


def _eigen_result(n: int, lam: float, zeros: int, residual: float, what: str) -> EigenResult:
    """lam and its indicial roots, unless residual exceeds BC_RESIDUAL_MAX."""
    if not residual <= BC_RESIDUAL_MAX:
        raise NonConvergenceError(f"{what} leaves boundary residual {residual:.3e} above "
                                  f"{BC_RESIDUAL_MAX:g}", value=lam, err_estimate=residual)
    return EigenResult(lam, zeros, *(indicial_roots(lam, n) or (None, None)), residual)


def first_eigenvalue(pars: ConeParams, root: RootResult) -> EigenResult:
    """First eigenvalue of the mode (0, 0) with its decay rates.

    lambda_1 is the margin root cone.lambda1_root for every cell, gamma_+-
    its indicial roots (None for a complex pair).  Raises
    NonConvergenceError when |margin| there exceeds BC_RESIDUAL_MAX.
    """
    lam, residual = lambda1_root(pars, root)
    return _eigen_result(pars.n, lam, 0, residual,
                         f"margin root lambda1={lam!r} at (n,k)=({pars.n},{pars.k})")


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
    res = first_eigenvalue(pars, root)
    return ScanRow(n=n, k=k, t_nk=root.t_nk, lambda1=res.lam,
                   gamma_plus=res.gamma_plus, gamma_minus=res.gamma_minus)


def family_cells(n_lo: int, n_hi: int) -> List[Tuple[int, int]]:
    """The cells (n, k), n_lo <= n <= n_hi and 1 <= k <= n-2, in (n, k)
    order; raises ValueError unless 3 <= n_lo <= n_hi <= 40."""
    if not 3 <= n_lo <= n_hi <= 40:
        raise ValueError("n_range must satisfy 3 <= n_lo <= n_hi <= 40")
    return [(n, k) for n in range(n_lo, n_hi + 1) for k in range(1, n - 1)]


def family_scan(n_range: Tuple[int, int]) -> ScanReport:
    """First-eigenvalue table over n in [n_lo, n_hi], k in [1, n-2], with
    the monotonicity and range flags of the conjecture-evidence scan.

    Rows come in (n, k) order.  The bound flags are evaluated on the n >= 7
    rows, where the family is strictly stable.
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

    flags = {
        "lambda1_strictly_increasing_in_k": inc_k,
        "lambda1_above_8_minus_2n": above,
        "gamma_minus_in_2mn_4mn": gm_rng,
        "gamma_plus_in_m2_0": gp_rng,
        "gamma_bar_strictly_increasing": gbar_inc,
        "gamma_bar_in_m2_m1": gbar_rng,
        "lambda_bar_strictly_decreasing": lbar_dec,
    }
    return ScanReport(rows=tuple(rows), flags=flags, notes=tuple(notes))
