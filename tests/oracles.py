"""Reference oracles for the Robin link eigenvalue problem, used by the
tests only.  For a separated mode (p, q) the radial factor solves

    (1-t^2) Phi'' + ((k-1)/t - (n-1) t) Phi'
        + (lambda - p(p+n-k-2)/(1-t^2) - q(q+k-2)/t^2) Phi = 0

with the regular Frobenius branch Phi ~ t^q at the axis and the Robin
matching Phi'/Phi = ((n-2) t - (k-1)/t) / (1-t^2) at the free-boundary
root.  chained_shot integrates it for any mode, find_eigenvalue shoots for
any mode and index (the Pruefer angle at the free-boundary root), and
fd_oracle_lambda1 takes the lowest eigenvalue of a finite-difference
discretization.  Of the library they share only the robin_shoot kernel
(driven here with the mode potentials P2 and Q2) and cone.illinois (the
package's one root solver: regula falsi with Anderson & Bjoerck's weight,
BIT 13, 1973, which the eigenvalue bracket shares with the root in s and
lambda_1); the library takes lambda_1 from the margin root in
cone.verdict instead, and its Riccati cross-check shoots mode (0,0) only."""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from conelab._backend import robin_shoot
from conelab.cone import ConeParams, RootResult, illinois, indicial_roots
from conelab.errors import BracketFailure, IntegrationFailure, NonConvergenceError

BC_RESIDUAL_MAX = 1e-9  # largest accepted |Phi'/Phi - Robin side| at the root


T_LAUNCH = 1e-6  # axis offset of the Frobenius launch
ODE_TOL = 1e-11  # local error tolerance of the shooting integrator


@dataclass(frozen=True)
class Mode:
    """Spherical harmonic degrees on the two sphere factors."""

    p: int = 0
    q: int = 0

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("mode degrees must be nonnegative")


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
                 mode: Mode) -> List[Tuple[float, float, int]]:
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


@dataclass(frozen=True)
class EigenResult:
    lam: float
    zeros_interior: int
    gamma_minus: Optional[float]
    gamma_plus: Optional[float]
    bc_residual: float


def _eigen_result(n: int, lam: float, zeros: int, residual: float, what: str) -> EigenResult:
    """lam and its indicial roots, unless residual exceeds BC_RESIDUAL_MAX."""
    if not residual <= BC_RESIDUAL_MAX:
        raise NonConvergenceError(f"{what} leaves boundary residual {residual:.3e} above "
                                  f"{BC_RESIDUAL_MAX:g}", value=lam, err_estimate=residual)
    return EigenResult(lam, zeros, *(indicial_roots(lam, n) or (None, None)), residual)


def boundary_rhs(p: ConeParams, r: RootResult) -> Tuple[float, float]:
    """(rho H, criterion right side) at the free boundary.

    rho H = ((n-2) t - (k-1)/t) / sqrt(1-t^2), the link's mean curvature;
    the criterion side removes one square root: rhs = ((n-2) t - (k-1)/t)
    / (1-t^2), the Robin side of the link eigenvalue problem.
    """
    n, k = p.n, p.k
    t = r.t_nk
    num = (n - 2.0) * t - (k - 1.0) / t
    return num / math.sqrt(1.0 - r.s_nk), num / (1.0 - r.s_nk)


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
    solves for that crossing.  Raises BracketFailure when two widenings of
    the initial lambda bracket do not enclose it, and NonConvergenceError
    when the boundary residual |d - rhs| at the result exceeds
    BC_RESIDUAL_MAX.
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
            raise BracketFailure(
                f"no eigenvalue bracket below lambda={lo} for (n,k)=({pars.n},{pars.k})")
        lo -= 4.0 * (hi - lo) + 10.0
        h_lo = deficit(lo)
        widenings += 1
    h_hi = deficit(hi)
    widenings = 0
    while h_hi > 0.0:
        if widenings >= 2:
            raise BracketFailure(
                f"no eigenvalue bracket above lambda={hi} for (n,k)=({pars.n},{pars.k})")
        hi += 4.0 * (hi - lo) + 10.0 * (index + 1.0)
        h_hi = deficit(hi)
        widenings += 1

    lam = illinois(deficit, lo, h_lo, hi, h_hi)[0]
    d, zeros = shoot(pars, root, lam, mode)
    return _eigen_result(pars.n, lam, zeros, abs(d - rhs_bc), f"eigenvalue {index} of mode "
                         f"({mode.p},{mode.q}) at (n,k)=({pars.n},{pars.k})")


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
