"""Robin eigenvalue problem on the spherical link of the cone.

For a separated mode (p, q) the radial factor solves

    (1-t^2) Phi'' + ((k-1)/t - (n-1) t) Phi'
        + (lambda - p(p+n-k-2)/(1-t^2) - q(q+k-2)/t^2) Phi = 0

with the regular Frobenius branch Phi ~ t^q at the axis and the Robin
matching Phi'/Phi = ((n-2) t - (k-1)/t) / (1-t^2) at the free-boundary
root.  For the mode (0, 0) the regular solution at lambda is the profile
2F1(a, b; k/2; t^2), a + b = (n-2)/2, ab = -lambda/4, so the matching is
the stability margin vanishing in lambda: first_eigenvalue takes lambda_1
from that root (cone.lambda1_root) for every cell.  Shooting
(find_eigenvalue) solves for the lambda at which the Pruefer angle at the
root (interior zeros and log-derivative) reaches the Robin angle of the
requested index; it and a symmetric finite-difference discretization are
the tests' oracles.  chained_shot integrates the link ODE for shoot and
for riccati's cross-check of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from conelab._backend import robin_shoot
from conelab.cone import (ConeParams, RootResult, boundary_rhs, find_root, illinois,
                          indicial_roots, lambda1_root)
from conelab.errors import BracketExhausted, IntegrationFailure, NonConvergenceError

__all__ = [
    "Mode",
    "EigenResult",
    "ScanRow",
    "ScanReport",
    "chained_shot",
    "shoot",
    "find_eigenvalue",
    "first_eigenvalue",
    "fd_oracle_lambda1",
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


def shoot(pars: ConeParams, root: RootResult, lam: float,
          mode: Mode = Mode()) -> Tuple[float, int]:
    """Integrate the mode ODE to the root; return (Phi'/Phi there, number
    of interior sign changes of Phi).  The log-derivative is +-inf when the
    shot lands exactly on a zero."""
    u, v, zeros = chained_shot(pars, lam, (root.t_nk,), mode)[0]
    if u == 0.0:
        return math.copysign(math.inf, v), zeros
    return v / u, zeros


def find_eigenvalue(pars: ConeParams, root: RootResult, mode: Mode = Mode(),
                    index: int = 0) -> EigenResult:
    """Locate the index-th eigenvalue of the mode (index 0 = lowest).

    The Pruefer angle of the shot at the root, theta = z pi + arccot(d)
    for z interior zeros and log-derivative d, increases with lambda and
    passes index pi + arccot(rhs) at the index-th eigenvalue; illinois
    solves for that crossing to a relative width of 1e-13.  Raises
    BracketExhausted when two widenings of the initial lambda bracket do
    not enclose it, and NonConvergenceError when the boundary residual
    |d - rhs| at the result exceeds BC_RESIDUAL_MAX.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    _, rhs_bc = boundary_rhs(pars, root)
    target = index * math.pi + 0.5 * math.pi - math.atan(rhs_bc)

    def deficit(lam: float) -> float:
        # d = +-inf means the shot ends exactly on a zero, which z counts
        d, z = shoot(pars, root, lam, mode)
        frac = 0.0 if math.isinf(d) else 0.5 * math.pi - math.atan(d)
        return target - (z * math.pi + frac)

    lo, hi = -float((pars.n - 2) ** 2) - 1.0, 0.0
    h_lo = deficit(lo)
    widenings = 0
    while not h_lo > 0.0:
        if widenings >= 2:
            raise BracketExhausted(
                f"no eigenvalue bracket below lambda={lo} for (n,k)=({pars.n},{pars.k})")
        lo -= 4.0 * (hi - lo) + 10.0
        h_lo = deficit(lo)
        widenings += 1
    h_hi = deficit(hi)
    widenings = 0
    while h_hi > 0.0:
        if widenings >= 2:
            raise BracketExhausted(
                f"no eigenvalue bracket above lambda={hi} for (n,k)=({pars.n},{pars.k})")
        hi += 4.0 * (hi - lo) + 10.0 * (index + 1.0)
        h_hi = deficit(hi)
        widenings += 1

    lam = illinois(deficit, lo, h_lo, hi, h_hi, rel_tol=1e-13)[0]
    d, zeros = shoot(pars, root, lam, mode)
    return _eigen_result(pars.n, lam, zeros, abs(d - rhs_bc), f"eigenvalue {index} of mode "
                         f"({mode.p},{mode.q}) at (n,k)=({pars.n},{pars.k})")


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


def _link_weight(pars: ConeParams, t):
    """Sturm-Liouville weight p(t) = t^(k-1) (1-t^2)^((n-k)/2)."""
    return t ** (pars.k - 1) * (1.0 - t * t) ** ((pars.n - pars.k) / 2.0)


def fd_oracle_lambda1(pars: ConeParams, root: RootResult, mode: Mode = Mode(),
                      grid_n: int = 2000) -> float:
    """First eigenvalue from a symmetric tridiagonal finite-volume
    discretization of the weighted Sturm-Liouville form; independent of
    the shooting code path.

    Natural (weighted-Neumann) condition at the axis for q = 0, Dirichlet
    for q > 0 (the regular branch vanishes there); Robin condition at the
    root enters through the boundary work term rhs * p(t0).
    """
    if grid_n < 200:
        raise ValueError("grid_n must be at least 200")
    return _lowest_eigenvalue(*_fd_matrix(pars, root, mode, grid_n))


def _fd_matrix(pars: ConeParams, root: RootResult, mode: Mode,
               grid_n: int) -> Tuple[List[float], List[float]]:
    """Diagonal and off-diagonal of the mass-symmetrized discretization."""
    t0 = root.t_nk
    _, rhs_bc = boundary_rhs(pars, root)
    P2, Q2 = _mode_potentials(pars, mode)
    h = t0 / grid_n
    t = [t0 * i / grid_n for i in range(grid_n + 1)]
    p_half = [_link_weight(pars, x + 0.5 * h) for x in t[:-1]]

    def density(x):
        return _link_weight(pars, x) / (1.0 - x * x)

    def potential(x):
        return (P2 / (1.0 - x * x) + Q2 / (x * x)) * density(x)

    # half cells at both ends; the axis cell [0, h/2] integrates t^(k-1)
    # exactly, (h/2)^k / k, times the smooth rest of f at that weight's
    # centroid xc (f(xc) carries xc^(k-1)); for q > 0 node 0 is dropped
    k = pars.k
    xc = k / (k + 1.0) * 0.5 * h
    axis = 0.5 * h / k * ((k + 1.0) / k) ** (k - 1)
    mass = [density(xc) * axis] + [density(x) * h for x in t[1:-1]] + [density(t0) * 0.5 * h]
    pot = [potential(xc) * axis] + [potential(x) * h for x in t[1:-1]] + [potential(t0) * 0.5 * h]
    diag = ([p_half[0] / h] + [(a + b) / h for a, b in zip(p_half, p_half[1:])]
            + [p_half[-1] / h - rhs_bc * _link_weight(pars, t0)])
    diag = [d + v for d, v in zip(diag, pot)]
    off = [-p / h for p in p_half]
    if mode.q > 0:  # Dirichlet at the axis: drop node 0
        diag, off, mass = diag[1:], off[1:], mass[1:]
    inv_sqrt_m = [1.0 / math.sqrt(m) for m in mass]
    d_sym = [d * w * w for d, w in zip(diag, inv_sqrt_m)]
    e_sym = [e * w0 * w1 for e, w0, w1 in zip(off, inv_sqrt_m, inv_sqrt_m[1:])]
    return d_sym, e_sym


def _lowest_eigenvalue(d: List[float], e: List[float]) -> float:
    """Lowest eigenvalue of the symmetric tridiagonal matrix (d, e) by
    Sturm-count bisection (Barth, Martin & Wilkinson 1967).

    The number of negative pivots q_i = d_i - e_(i-1)^2 / q_(i-1) - x of
    T - x I counts the eigenvalues below x, so the first one (or one within
    pivmin of zero) shows that some eigenvalue lies below x.  The Gershgorin
    bound and the smallest diagonal entry bracket the eigenvalue, which is
    bisected until the bracket is four ulps, or pivmin, wide.  The pivot is
    rounded in LAPACK's order (dlaebz), so the result matches dstebz's.
    """
    e2 = [0.0] + [x * x for x in e]
    pivmin = 2.0 ** -1022 * max(1.0, max(e2))
    rows = list(zip(d, e2))

    def some_below(x: float) -> bool:
        q = 1.0
        for di, ei2 in rows:
            q = di - ei2 / q - x
            if q < pivmin:
                return True
        return False

    pad = [0.0] + [abs(x) for x in e] + [0.0]
    lo = min(di - pad[i] - pad[i + 1] for i, di in enumerate(d))
    hi = min(d)
    while hi - lo > max(4.0 * math.ulp(max(abs(lo), abs(hi))), pivmin):
        mid = 0.5 * (lo + hi)
        if some_below(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
