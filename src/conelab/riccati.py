"""Riccati form of the stability criterion: the quadratic ODE of the
log-derivative function L(s) of cone.L_direct,

    2 s (1-s) L' + L^2 + (n s - k) L + P(s) = 0,
    P(s) = (n - 2k) s + ahat s (1-s) + (k-1),        ahat = alpha (alpha+n-2),

a cross-check of L against the link ODE along spectrum.chained_shot, the
mode-(0,0) shot of the link eigenvalue problem, and the two-piece comparison
barriers, ending at the terminal points of lemmas, that propagate
positivity of L up to the free-boundary root for alpha = 4 - n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Tuple

from conelab.cone import ConeParams, L_direct, RootResult
from conelab.errors import PoleEncounteredError, VariantUnavailableError
from conelab.lemmas import overshoot_terminal_point, refined_terminal_point
from conelab.spectrum import chained_shot

__all__ = [
    "RiccatiTrace",
    "BarrierVariant",
    "BarrierSpec",
    "BarrierReport",
    "L_cross_check",
    "P_poly",
    "barrier_phi",
    "linear_root_relation",
    "verify_barrier",
    "check_4_minus_n",
]

ODE_S_MAX = 1.0 - 1e-6  # the s = 1 end of the link ODE is singular again
CROSS_CHECK_POINTS = 33  # grid of the L_cross_check trace
BARRIER_GRID = 512  # Chebyshev points per smooth barrier piece


@dataclass(frozen=True)
class RiccatiTrace:
    alpha_hat: float
    grid: Tuple[float, ...]
    values_direct: Tuple[float, ...]
    values_ode: Tuple[float, ...]
    max_discrepancy: float


def alpha_hat(p: ConeParams, alpha: float) -> float:
    return alpha * (alpha + p.n - 2.0)


def P_poly(p: ConeParams, ahat: float, s: float) -> float:
    """P(s) = (n-2k) s + ahat s (1-s) + (k-1), evaluated exactly."""
    return (p.n - 2.0 * p.k) * s + ahat * s * (1.0 - s) + (p.k - 1.0)


def _L_ode_trace(p: ConeParams, alpha: float, grid) -> list:
    """L at the increasing points s of grid from the mode-(0,0) link ODE at
    lambda = ahat: the regular solution Phi(t), s = t^2, is the profile, so
    L = t (1-s) Phi'/Phi - (n-2) s + (k-1), along one chained shot."""
    ts = [math.sqrt(s) for s in grid]
    out = []
    for s, t, (u, v, _) in zip(grid, ts, chained_shot(p, alpha_hat(p, alpha), ts)):
        if u == 0.0:
            raise PoleEncounteredError(
                f"profile vanishes at s={s} for alpha={alpha}, (n,k)=({p.n},{p.k})")
        out.append(t * (1.0 - s) * v / u - (p.n - 2.0) * s + (p.k - 1.0))
    return out


def L_cross_check(p: ConeParams, alpha: float, s: float) -> RiccatiTrace:
    """L on a grid of [0, s] from the profile (values_direct) and from one
    chained shot of the link ODE (values_ode), with their largest
    difference; the grid stops at ODE_S_MAX."""
    if not s < 1.0:
        raise ValueError("s must be below 1")
    s_end = min(s, ODE_S_MAX)
    grid = [s_end * i / (CROSS_CHECK_POINTS - 1) for i in range(CROSS_CHECK_POINTS)]
    direct = [L_direct(p, alpha, g) for g in grid]
    ode = _L_ode_trace(p, alpha, grid)
    disc = max(abs(a - b) for a, b in zip(direct, ode))
    return RiccatiTrace(alpha_hat=alpha_hat(p, alpha), grid=tuple(grid),
                        values_direct=tuple(direct), values_ode=tuple(ode),
                        max_discrepancy=disc)


# ---------------------------------------------------------------------------
# barriers for alpha = 4 - n, where ahat = 2(4-n) and
# P(s) = (k-1) + (8-n-2k) s + 2(n-4) s^2


class BarrierVariant(Enum):
    LARGE_D = "LargeD"
    SMALL_D = "SmallD"


@dataclass(frozen=True)
class BarrierSpec:
    variant: BarrierVariant
    s_star: float
    roots: Optional[Tuple[float, float]]  # (r_minus, r_plus)
    delta: Optional[float]
    A: float


@dataclass(frozen=True)
class BarrierReport:
    spec: BarrierSpec
    max_residual_linear: float
    max_residual_curved: float
    jump_left: float
    jump_right: float
    jump_decreasing: bool
    min_L_minus_phi: float
    L_at_s_star: float
    comparison_passed: bool
    passed: bool


def barrier_phi(p: ConeParams) -> Tuple[BarrierSpec, Callable[[float], float]]:
    """Two-piece Riccati subsolution for alpha = 4-n.

    The linear piece (k-1) - (n-4) s lives on [0, k/n); on [k/n, s_star]
    the barrier solves the majorized terminal equation
    2s(1-s) phi' + phi^2 + B phi + C = 0 with phi(s_star) = 0, whose
    closed form through the roots r+- of r^2 + B r + C is

        phi = r+ r- (Q^(sqrt(D)/2) - 1) / (r+ Q^(sqrt(D)/2) - r-).

    The large-d variant (d >= 12) uses B = sqrt(2d+1)-1, C = B-1; the
    small-d variant (6 <= d <= 11) uses the refined terminal point, where
    B = n s_star - k = A + 1/2 exactly and C = P(s_star).
    """
    n, k, d = p.n, p.k, p.d
    A = math.sqrt(2.0 * d + 1.0) - 1.0
    if d >= 12:
        variant = BarrierVariant.LARGE_D
        s_star = overshoot_terminal_point(p)
        B = A
        C = A - 1.0
    elif d >= 6:
        variant = BarrierVariant.SMALL_D
        s_star = refined_terminal_point(p)
        B = n * s_star - k  # equals A + 1/2
        C = P_poly(p, 2.0 * (4.0 - n), s_star)
    else:
        raise VariantUnavailableError(
            f"only the linear barrier exists for d={d} (need d >= 6)")
    delta = B * B - 4.0 * C
    if variant is BarrierVariant.SMALL_D and delta <= 1.0:
        raise VariantUnavailableError(
            f"discriminant {delta} <= 1 at (n,k)=({n},{k}); construction inapplicable")
    sq = math.sqrt(delta)
    r_plus = 0.5 * (-B + sq)
    r_minus = 0.5 * (-B - sq)
    q0 = s_star / (1.0 - s_star)
    expo = 0.5 * sq

    def phi(s: float) -> float:
        if s < 0.0 or s > s_star + 1e-15:
            raise ValueError(f"barrier defined on [0, s_star={s_star}], got s={s}")
        if s < k / n:
            return (k - 1.0) - (n - 4.0) * s
        qs = (q0 * (1.0 - s) / s) ** expo
        return r_plus * r_minus * (qs - 1.0) / (r_plus * qs - r_minus)

    spec = BarrierSpec(variant=variant, s_star=s_star,
                       roots=(r_minus, r_plus), delta=delta, A=A)
    return spec, phi


def linear_root_relation(p: ConeParams) -> Tuple[float, float, bool]:
    """d in {4, 5}: the linear subsolution (k-1) - (n-4)s is positive up to
    its own zero; the refined terminal point must sit below that zero.

    Returns (s_star_refined, linear_zero, ok).
    """
    d = p.d
    if d not in (4, 5):
        raise VariantUnavailableError("linear root relation applies to d in {4, 5}")
    s_star = refined_terminal_point(p)
    linear_zero = (p.k - 1.0) / (p.n - 4.0)
    return s_star, linear_zero, s_star <= linear_zero


def verify_barrier(p: ConeParams) -> BarrierReport:
    """Machine verification of the barrier properties at alpha = 4-n.

    Checks, on Chebyshev grids per smooth piece: the subsolution residual
    R[phi] < 0, the comparison L - phi >= -1e-9 and the payoff
    L(s_star) > 0 (comparison_passed), and with them the decreasing jump
    at k/n (passed).
    """
    spec, phi = barrier_phi(p)
    n, k = float(p.n), float(p.k)
    s_star = spec.s_star
    B_const = -(spec.roots[0] + spec.roots[1])
    C_const = spec.roots[0] * spec.roots[1]

    def cheb(lo: float, hi: float, m: int) -> List[float]:
        return [lo + (hi - lo) * 0.5 * (1.0 - math.cos(math.pi * j / (m - 1)))
                for j in range(m)]

    alpha = 4.0 - p.n

    # The residual vanishes identically at s = 0, and at s = s_star in the
    # refined variant (terminal condition), so both grids stay strictly
    # inside those endpoints.
    # linear piece: R[phi] telescopes to 2 s (k - n + 4) exactly
    lin = cheb(k / n * 1e-9, k / n * (1.0 - 1e-12), BARRIER_GRID)
    res_lin = max(2.0 * s * (k - n + 4.0) for s in lin)
    # curved piece: R[phi] = (ns - k - B) phi + (P(s) - C)
    cur = cheb(k / n, s_star - (s_star - k / n) * 1e-9, BARRIER_GRID)
    res_cur = max((n * s - k - B_const) * phi(s) + P_poly(p, 2.0 * (4.0 - n), s) - C_const
                  for s in cur)

    jump_left = 4.0 * k / n - 1.0
    jump_right = phi(k / n)

    sample = lin[:: BARRIER_GRID // 64] + cur[:: BARRIER_GRID // 64]
    l_minus_phi = min(L_direct(p, alpha, s) - phi(s) for s in sample)
    L_star = L_direct(p, alpha, s_star)

    comparison_passed = (res_lin < 0.0 and res_cur < 0.0
                         and l_minus_phi >= -1e-9 and L_star > 0.0)
    return BarrierReport(spec=spec,
                         max_residual_linear=res_lin,
                         max_residual_curved=res_cur,
                         jump_left=jump_left, jump_right=jump_right,
                         jump_decreasing=jump_left > jump_right,
                         min_L_minus_phi=l_minus_phi,
                         L_at_s_star=L_star, comparison_passed=comparison_passed,
                         passed=comparison_passed and jump_left > jump_right)


def check_4_minus_n(p: ConeParams, r: RootResult) -> Tuple[bool, Optional[float]]:
    """Is 4-n an admissible exponent?  True iff L(s_{n,k}) > 0 at alpha = 4-n;
    the margin returned is that L value.  At n = 3 the degree-(4-n) profile
    is f itself, so L has a pole at the root: (False, None) is returned."""
    if p.n == 3:
        return False, None
    margin = L_direct(p, 4.0 - p.n, r.s_nk)
    return margin > 0.0, margin
