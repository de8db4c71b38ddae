"""Reference oracles for the Robin link eigenvalue problem, used by the
tests only: find_eigenvalue shoots for any mode and index (the Pruefer
angle at the free-boundary root), fd_oracle_lambda1 takes the lowest
eigenvalue of a finite-difference discretization.  Of the library's
solvers they share only spectrum.chained_shot (the link-ODE integration)
and cone.illinois (the root solver); the library takes lambda_1 from the
margin root cone.lambda1_root instead."""

import math
from typing import List, Tuple

from conelab.cone import ConeParams, RootResult, boundary_rhs, illinois
from conelab.errors import BracketFailure
from conelab.spectrum import EigenResult, Mode, _eigen_result, _mode_potentials, chained_shot


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
    BracketFailure when two widenings of the initial lambda bracket do
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

    lam = illinois(deficit, lo, h_lo, hi, h_hi, rel_tol=1e-13)[0]
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
