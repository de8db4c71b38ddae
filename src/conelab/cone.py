"""Cone geometry for the invariant one-phase family: profile functions
and their log-derivative L, free-boundary root, boundary mean curvature,
the strict stability criterion (read from L) and its root in lambda,
lambda_1, whose indicial roots bound the admissible homogeneity
interval.  Functions evaluated at the free boundary take the RootResult
of find_root.  The normalization c_{n,k} and the t-derivative of a
profile, which no command prints, live with their tests.

Profiles are hypergeometric in s = t^2: the degree-alpha harmonic profile
is 2F1((n+alpha-2)/2, -alpha/2; k/2; t^2), and the solution profile is its
alpha = 1 member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from conelab.errors import BracketFailure, PoleEncounteredError
from conelab.specfun import HypParams, hyp2f1, hyp2f1_pair, hyp2f1_sym

__all__ = [
    "ConeParams",
    "RootResult",
    "Verdict",
    "StabilityReport",
    "profile_params",
    "L_direct",
    "profile_g",
    "cubic_bound",
    "find_root",
    "boundary_rhs",
    "stability_margin",
    "verdict",
    "indicial_roots",
]

MARGIN_TOL = 1e-9  # borderline band on the criterion margin
ROOT_SCAN_POINTS = 64  # descending scan that brackets the root from below


@dataclass(frozen=True)
class ConeParams:
    """Dimension split (n, k) indexing an invariant cone; d = n - k."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n >= 3 required, got n={self.n}")
        if not 1 <= self.k <= self.n - 2:
            raise ValueError(f"k must lie in [1, n-2], got (n,k)=({self.n},{self.k})")

    @property
    def d(self) -> int:
        return self.n - self.k


@dataclass(frozen=True)
class RootResult:
    """Free-boundary root of the solution profile, with provenance."""

    t_nk: float
    s_nk: float
    s_bracket: Tuple[float, float]  # final s_lo < s_hi; f(s_lo) > 0 >= f(s_hi)
    residual: float  # |f| at s_nk


class Verdict(Enum):
    UNSTABLE = "unstable"
    BORDERLINE_STABLE = "borderline_stable"
    STRICTLY_STABLE = "strictly_stable"


@dataclass(frozen=True)
class StabilityReport:
    t_nk: float
    link_H: float
    lhs: float
    rhs: float
    margin: float
    verdict: Verdict


def profile_params(p: ConeParams, alpha: float) -> HypParams:
    """Hypergeometric parameters of the degree-alpha harmonic profile."""
    return HypParams((p.n + alpha - 2.0) / 2.0, -alpha / 2.0, p.k / 2.0)


def L_direct(p: ConeParams, alpha: float, s: float) -> float:
    """L(s) from the hypergeometric profile: 2s(1-s) F'/F - (n-2)s + (k-1),
    with F and F' from one hyp2f1_pair call."""
    if not s < 1.0:
        raise ValueError("s must be below 1")
    if s == 0.0:
        return float(p.k - 1)
    F, Fp = hyp2f1_pair(profile_params(p, alpha), s)
    if not F.value > 0.0:
        raise PoleEncounteredError(
            f"profile vanishes before s={s} for alpha={alpha}, (n,k)=({p.n},{p.k})")
    return _link_L(p, s, F.value, Fp.value)


def _link_L(p: ConeParams, s: float, F: float, Fp: float) -> float:
    """L(s) from the profile value F and its s-derivative Fp."""
    return 2.0 * s * (1.0 - s) * Fp / F - (p.n - 2.0) * s + (p.k - 1.0)


def profile_g(p: ConeParams, alpha: float, t: float) -> float:
    """g_{n,k,alpha}(t); equals 1 at t = 0 for every alpha."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    return hyp2f1(profile_params(p, alpha), t * t).value


def cubic_bound(p: ConeParams, t: float) -> float:
    """Cubic-in-s upper bound for f_{n,k}(t); fixes the root bracket."""
    n, k = p.n, p.k
    s = t * t
    return (1.0
            - (n - 1.0) / (2.0 * k) * s
            - (n * n - 1.0) / (8.0 * k * (k + 2.0)) * s * s
            - (n * n - 1.0) * (n + 3.0) / (16.0 * k * (k + 2.0) * (k + 4.0)) * s ** 3)


def illinois(f, lo: float, f_lo: float, hi: float, f_hi: float,
             rel_tol: float = 0.0) -> Tuple[float, float, float, float]:
    """Shrink a bracket lo < hi of a root of the scalar function f, where
    f_lo = f(lo) > 0 >= f_hi = f(hi); the one root solver of the package.

    Illinois steps (Dowell & Jarratt, BIT 11, 1971): regula falsi that
    halves the weight of the far end each time the same end moves twice in
    a row.  Stops at an exact zero, at a bracket of at most 4 ulps or
    rel_tol * max(1, |lo|, |hi|) (for an f noisier than an ulp), or when a
    finite secant step rounds onto an end (the root is then within an ulp
    of that end, however wide the bracket); a non-finite step falls back
    to the midpoint.  Returns (x, |f(x)|, lo, hi): the final end x with
    the smaller |f|, its unweighted |f|, and the final bracket.
    """
    w_lo = w_hi = 1.0
    moved = 0  # +1 when the last step moved lo, -1 when it moved hi
    while f_hi < 0.0 and hi - lo > max(4.0 * math.ulp(lo), 4.0 * math.ulp(hi),
                                       rel_tol * max(1.0, abs(lo), abs(hi))):
        g_lo, g_hi = w_lo * f_lo, w_hi * f_hi
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not math.isfinite(x):
            x = 0.5 * (lo + hi)
        elif not lo < x < hi:
            break
        f_x = f(x)
        if f_x > 0.0:
            lo, f_lo, w_lo = x, f_x, 1.0
            w_hi *= 0.5 if moved == 1 else 1.0
            moved = 1
        else:
            hi, f_hi, w_hi = x, f_x, 1.0
            w_lo *= 0.5 if moved == -1 else 1.0
            moved = -1
    return (lo, f_lo, lo, hi) if f_lo < -f_hi else (hi, -f_hi, lo, hi)


def _cubic_root_in_s(p: ConeParams) -> Optional[float]:
    """Root of the cubic bound in s on (0, 1], or None if the bound stays
    positive there."""
    f = lambda s: cubic_bound(p, math.sqrt(s))
    f_one = f(1.0)
    if f_one > 0.0:
        return None
    return illinois(f, 0.0, 1.0, 1.0, f_one)[0]


_S_CAP = 1.0 - 2e-9  # largest admitted s; t stays below 1 - 1e-9


def find_root(p: ConeParams) -> RootResult:
    """Locate the free-boundary root t_{n,k} of f_{n,k}.

    The upper bracket end comes from the quadratic truncation
    s <= 2k/(n-1), tightened by the cubic bound when that has a root below
    1; the lower end by a descending scan, which ends at f(0) = 1 at the
    latest.  Illinois steps shrink the scan bracket to a few ulps in s;
    the root is the final end with the smaller |f|, and the residual is
    that |f|.
    """
    n, k = p.n, p.k
    s_up = min(2.0 * k / (n - 1.0), _S_CAP)
    s_cubic = _cubic_root_in_s(p)
    if s_cubic is not None:
        s_up = min(s_up, s_cubic)
    hp = profile_params(p, 1.0)

    def F(s: float) -> float:
        v = hyp2f1(hp, s).value
        return v if math.isfinite(v) else -math.inf  # f -> -inf at s = 1

    s_hi, f_hi = s_up, F(s_up)
    if f_hi > 0.0:
        raise BracketFailure(
            f"profile positive at upper bracket s={s_up} for (n,k)=({n},{k})")
    for j in range(1, ROOT_SCAN_POINTS + 1):
        s_lo = s_up * (1.0 - j / ROOT_SCAN_POINTS)
        f_lo = F(s_lo)
        if f_lo > 0.0:
            break
        s_hi, f_hi = s_lo, f_lo

    s_nk, residual, s_lo, s_hi = illinois(F, s_lo, f_lo, s_hi, f_hi)
    return RootResult(t_nk=math.sqrt(s_nk), s_nk=s_nk,
                      s_bracket=(s_lo, s_hi), residual=residual)


def boundary_rhs(p: ConeParams, r: RootResult) -> Tuple[float, float]:
    """(rho H, criterion right side) at the free boundary.

    rho H = ((n-2) t - (k-1)/t) / sqrt(1-t^2); the criterion side removes
    one square root: rhs = ((n-2) t - (k-1)/t) / (1-t^2).
    """
    n, k = p.n, p.k
    t = r.t_nk
    num = (n - 2.0) * t - (k - 1.0) / t
    return num / math.sqrt(1.0 - r.s_nk), num / (1.0 - r.s_nk)


def stability_margin(p: ConeParams, alpha: float, r: RootResult) -> float:
    """g'_alpha/g_alpha - rhs at the root, which is L(s_nk) / (t (1 - t^2));
    positive exactly on the admissible interval."""
    return L_direct(p, alpha, r.s_nk) / (r.t_nk * (1.0 - r.s_nk))


def indicial_roots(lam: float, n: int) -> Optional[Tuple[float, float]]:
    """(gamma_-, gamma_+) solving gamma(gamma+n-2) = lam, or None for a
    complex pair (h^2 + lam < 0, h = (n-2)/2).  gamma_+ =
    lam / (h + sqrt(h^2 + lam)) does not cancel near lam = 0."""
    half = (n - 2.0) / 2.0
    rad = half * half + lam
    if rad < 0.0:
        return None
    gp = lam / (half + math.sqrt(rad))
    return (2.0 - n - gp, gp)


def lambda1_root(p: ConeParams, r: RootResult) -> Tuple[float, float]:
    """(lambda_1, |margin there|): the root in lambda of the margin of the
    mode-(0,0) profile 2F1(a, b; k/2; s), a + b = h = (n-2)/2, ab = -lambda/4:
    stability_margin at gamma_+ for lambda >= -h^2, and below, where a, b
    are a complex pair, from hyp2f1_sym's F >= 1 (no zero: the ground state).
    The margin decreases in lambda; the bracket is [-h^2, 0] when it is
    positive at -h^2 (verdict's margin), else [-(n-2)^2 - 1, -h^2]."""
    h = (p.n - 2.0) / 2.0

    def margin(lam: float) -> float:
        roots = indicial_roots(lam, p.n)
        if roots is not None:
            return stability_margin(p, roots[1], r)
        F, Fp = hyp2f1_sym(h, -lam / 4.0, p.k / 2.0, r.s_nk)
        return _link_L(p, r.s_nk, F.value, Fp.value) / (r.t_nk * (1.0 - r.s_nk))

    lo, hi = -h * h, 0.0
    f_lo = margin(lo)
    if f_lo > 0.0:
        f_hi = margin(hi)
    else:
        lo, hi, f_hi = -float((p.n - 2) ** 2) - 1.0, lo, f_lo
        f_lo = margin(lo)
    if not f_lo > 0.0 >= f_hi:
        raise BracketFailure(f"margin has no sign change on lambda in [{lo}, {hi}] "
                             f"for (n,k)=({p.n},{p.k})")
    return illinois(margin, lo, f_lo, hi, f_hi)[:2]


def verdict(p: ConeParams, r: RootResult) -> StabilityReport:
    """Stability report at the root r; the criterion is evaluated at alpha = (2-n)/2."""
    link_H, rhs = boundary_rhs(p, r)
    margin = stability_margin(p, (2.0 - p.n) / 2.0, r)
    if margin > MARGIN_TOL:
        v = Verdict.STRICTLY_STABLE
    elif margin < -MARGIN_TOL:
        v = Verdict.UNSTABLE
    else:
        v = Verdict.BORDERLINE_STABLE
    return StabilityReport(t_nk=r.t_nk, link_H=link_H,
                           lhs=margin + rhs, rhs=rhs, margin=margin, verdict=v)
