"""Cone geometry for the invariant one-phase family: profile functions and
their log-derivative L (from Gauss's continued fraction, so it never
overflows), the free-boundary root (one solve of illinois, the package's
root solver, on [0, s_up]), the strict stability criterion (read from L),
the sign of L at the root for the subsolution exponent alpha = 4-n
(check_4_minus_n), and verdict, the one stability step per cone.  verdict
evaluates the criterion margin at the threshold exponent (2-n)/2 once and
takes from it both the verdict and the bracket of the margin's root in
lambda, lambda_1, whose indicial roots gamma_+- bound the admissible
homogeneity interval.  Functions evaluated at the free boundary take the
RootResult of find_root.  The normalization c_{n,k}, the t-derivative of a
profile and the boundary mean curvature, which no command prints, live
with the tests.  The checks of L that only `verify` runs (its Riccati
equation, its cross-check against the link ODE, and the barriers that
carry L > 0 up to the root at alpha = 4-n) live in conelab.checks.

Profiles are hypergeometric in s = t^2: the degree-alpha harmonic profile
is 2F1((n+alpha-2)/2, -alpha/2; k/2; t^2), and the solution profile is its
alpha = 1 member.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, List, NamedTuple, Optional, Tuple

from conelab._backend import L_fraction, illinois
from conelab.errors import BracketFailure, DomainError, NonConvergenceError
from conelab.specfun import MAX_TERMS, HypParams, hyp2f1, series_span

__all__ = [
    "ConeParams",
    "RootResult",
    "Verdict",
    "StabilityReport",
    "profile_params",
    "L_direct",
    "profile_g",
    "refined_terminal_point",
    "find_root",
    "stability_margin",
    "check_4_minus_n",
    "verdict",
    "indicial_roots",
]

MARGIN_TOL = 1e-9  # borderline band on the criterion margin; largest |margin| at lambda_1
CF_TOL = 1e-13  # L_direct's bound on L's change from cutting the fraction at half depth


class ConeParams(NamedTuple("ConeParams", [("n", int), ("k", int)])):
    """Dimension split (n, k) indexing an invariant cone; d = n - k."""

    __slots__ = ()

    def __new__(cls, n: int, k: int):
        if n < 3:
            raise ValueError(f"n >= 3 required, got n={n}")
        if not 1 <= k <= n - 2:
            raise ValueError(f"k must lie in [1, n-2], got (n,k)=({n},{k})")
        return super().__new__(cls, n, k)

    @property
    def d(self) -> int:
        return self.n - self.k


class RootResult(NamedTuple):
    """Free-boundary root of the solution profile, with provenance."""

    t_nk: float
    s_nk: float
    s_bracket: Tuple[float, float]  # final s_lo < s_hi; f(s_lo) > 0 >= f(s_hi)
    residual: float  # |f| at s_nk


class Verdict(Enum):
    UNSTABLE = "unstable"
    BORDERLINE_STABLE = "borderline_stable"
    STRICTLY_STABLE = "strictly_stable"


class StabilityReport(NamedTuple):
    """A cone's stability step: the criterion margin at alpha = (2-n)/2 and
    its verdict, lambda_1 with |margin| there, and the indicial roots of
    lambda_1 (None for a complex pair)."""

    margin: float
    verdict: Verdict
    lambda1: float
    residual: float
    gamma_minus: Optional[float]
    gamma_plus: Optional[float]


def profile_params(p: ConeParams, alpha: float) -> HypParams:
    """Hypergeometric parameters of the degree-alpha harmonic profile."""
    return HypParams((p.n + alpha - 2.0) / 2.0, -alpha / 2.0, p.k / 2.0)


def L_direct(p: ConeParams, alpha: complex, ss: Iterable[float]) -> List[float]:
    """L(s) = 2s(1-s) F'/F - (n-2)s + (k-1) of the degree-alpha profile F at
    each s of the grid ss, for alpha in [2-n, 0] (a, b >= 0, so F >= 1) or
    alpha = (2-n)/2 + i w (a, b a conjugate pair, F >= 1 too; L is real).
    Euler's form F = (1-s)^(c-a-b) G, G = 2F1(A, B; c; s), A = c-b,
    B = c-a, gives L = (k-1) - ks + 2(1-s) sAB / (c/R - sB) with
    R = F(A+1, B+1; c+1; s) / F(A+1, B; c; s) = 1/(1 - k1 s/(1 - k2 s/...)),
    Gauss's continued fraction (DLMF 15.7.5): only ratios, so nothing
    overflows.  The kernel L_fraction takes (n, k, Re alpha, (Im alpha)^2/4)
    and runs one fraction for every exponent, R's odd contraction, whose
    levels are real for the pair too (AB + q = |A + i sqrt(q)|^2 there), in
    real arithmetic and backward, with c - A = -alpha/2 and c - B =
    (n-2+alpha)/2 formed from alpha rather than from the rounded A and B;
    deep enough that L's first-order change from cutting at half the depth
    is at most CF_TOL max(1, |L|).  Raises DomainError for any other
    alpha, ValueError for an s outside [0, 1) anywhere in the grid, and
    NonConvergenceError past MAX_TERMS levels (about 9/sqrt(1-s) are
    needed).

    Checked against 50-digit mpmath within 1e-12 max(1, |L|) for n <= 60
    and d >= 3 over that alpha range with w <= n and s <= 1 - 1e-6; for
    real alpha at 61 <= n <= 400 up to the root s_nk, and at alpha = 4-n
    on verify's barrier samples up to s*; within 1e-11 for d = 2; and
    within 1e-12 for the pair at w = sqrt(3)(n-2)/2, the largest w the
    lambda-solve reaches, up to n = 200 (tests/test_mpmath_oracle.py).
    Outside it the fraction can lose digits: at n in the hundreds with
    alpha near 0 and s far above the root every one, e.g. (397,134) at
    alpha = -0.1997 and s = 0.8996 gives -222.37 for -1.0904; and the pair
    rounds worse as w grows, 4.2e-10 relative at (8,5) with w = 6855."""
    n, k = p.n, p.k
    if not (2 - n <= alpha.real <= 0 and (alpha.imag == 0 or alpha.real == (2 - n) / 2)):
        raise DomainError(f"alpha={alpha} for (n,k)=({n},{k}) outside [2-n, 0] = [{2 - n}, 0] "
                          f"and off the line Re alpha = (2-n)/2")
    out, stall = L_fraction(n, k, alpha.real, 0.25 * alpha.imag * alpha.imag, ss, CF_TOL,
                            MAX_TERMS)
    if stall is not None:
        s, L, levels = stall
        raise NonConvergenceError(
            f"continued fraction of L needs more than {MAX_TERMS} levels at s={s} "
            f"for alpha={alpha}, (n,k)=({n},{k})", value=L, terms_used=levels)
    return out


def profile_g(p: ConeParams, alpha: float, t: float) -> float:
    """g_{n,k,alpha}(t); equals 1 at t = 0 for every alpha."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    return hyp2f1(profile_params(p, alpha), t * t).value


def refined_terminal_point(p: ConeParams) -> float:
    """The refined terminal point 1 - (2d+1-2 sqrt(2d+1))/(2n) of the
    overshoot bound."""
    d = p.d
    return 1.0 - (2.0 * d + 1.0 - 2.0 * math.sqrt(2.0 * d + 1.0)) / (2.0 * p.n)


def find_root(p: ConeParams) -> RootResult:
    """Locate the free-boundary root t_{n,k} of f_{n,k}.

    illinois solves on [0, s_up]: f(0) = 1, and s_up, where f <= 0 is
    checked (else BracketFailure), is the smaller of the quadratic
    truncation's root 2k/(n-1) and the refined terminal point of the
    paper's overshoot lemma, which proves s_{n,k} below it for
    n-11 <= k <= n-4, n >= 16 d, and lies 0.26/n or more below 1, where
    the series overflows.  f is concave (b = -1/2), so the first chord
    from (0, 1) lands where f >= 0 and no scan is needed.  The root is the
    final end with the smaller |f|, and the residual, that |f|, is at most
    the kernels' ROOT_F_TOL unless the bracket closed to a few ulps.
    f = -inf, the s -> 1 limit, counts as negative; NonConvergenceError
    where f is +inf or NaN.  The solver sums the profile's Gauss series
    itself wherever specfun's router would (series_span) and calls F at
    the other steps: the same values, and F's errors, as if it called F at
    every step.
    """
    n, k = p.n, p.k
    s_up = min(2.0 * k / (n - 1.0), refined_terminal_point(p))
    hp = profile_params(p, 1.0)

    def F(s: float) -> float:
        v, err, _, strategy = hyp2f1(hp, s)
        if math.isnan(v) or v == math.inf:  # -inf is the s -> 1 limit
            raise NonConvergenceError(
                f"profile not finite at s={s} for (n,k)=({n},{k}): f = {v!r} +- {err!r} "
                f"by {strategy.value} at (a,b,c)=({hp.a},{hp.b},{hp.c})", value=v)
        return v

    f_up = F(s_up)
    if f_up > 0.0:
        raise BracketFailure(
            f"profile positive at upper bracket s={s_up} for (n,k)=({n},{k})")
    s_nk, residual, s_lo, s_hi = illinois(F, 0.0, 1.0, s_up, f_up,
                                          series_span(hp.a, hp.b, hp.c))
    return RootResult(t_nk=math.sqrt(s_nk), s_nk=s_nk,
                      s_bracket=(s_lo, s_hi), residual=residual)


def stability_margin(p: ConeParams, alpha: complex, r: RootResult) -> float:
    """g'_alpha/g_alpha - rhs at the root, which is L(s_nk) / (t (1 - t^2));
    positive exactly on the admissible interval.  alpha is any exponent
    L_direct takes.  Raises NonConvergenceError when it is not finite."""
    margin = L_direct(p, alpha, (r.s_nk,))[0] / (r.t_nk * (1.0 - r.s_nk))
    if not math.isfinite(margin):
        raise NonConvergenceError(f"margin at alpha={alpha} for (n,k)=({p.n},{p.k}) is "
                                  f"{margin!r}, not finite", value=margin)
    return margin


def check_4_minus_n(p: ConeParams, r: RootResult) -> Tuple[bool, Optional[float]]:
    """Is 4-n an admissible exponent?  True iff L(s_{n,k}) > 0 at alpha = 4-n;
    the margin returned is that L value; NonConvergenceError when it is not
    finite.  At n = 3 the degree-(4-n) profile is f itself, so L has a pole
    at the root: (False, None) is returned."""
    if p.n == 3:
        return False, None
    margin = L_direct(p, 4.0 - p.n, (r.s_nk,))[0]
    if not math.isfinite(margin):
        raise NonConvergenceError(f"margin at alpha={4.0 - p.n} for (n,k)=({p.n},{p.k}) is "
                                  f"{margin!r}, not finite", value=margin)
    return margin > 0.0, margin


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


def verdict(p: ConeParams, r: RootResult) -> StabilityReport:
    """The stability step of the cone at the root r.

    The criterion margin at alpha = (2-n)/2 = -h, h = (n-2)/2, gives the
    verdict (MARGIN_TOL wide borderline band).  lambda_1 is the root in
    lambda of the margin of the mode-(0,0) profile 2F1(a, b; k/2; s),
    a + b = h, ab = -lambda/4: stability_margin at the exponent
    gamma_+ = lambda / (h + sqrt(h^2 + lambda)), which below lambda = -h^2
    is the complex -h + i sqrt(-h^2 - lambda), where a and b are a conjugate
    pair (F >= 1 there too: no zero, the ground state) and L_direct runs
    the same real contracted fraction as for real exponents.  The margin
    decreases in lambda, and at lambda = -h^2 it is the threshold margin
    (gamma_+ = -h exactly), so that one evaluation also picks the bracket:
    [-h^2, 0] when it is positive, else [-(n-2)^2 - 1, -h^2].  Raises BracketFailure
    when the margin does not change sign there, and NonConvergenceError
    when the threshold margin is not finite or |margin| at lambda_1 exceeds
    MARGIN_TOL.
    """
    h = (p.n - 2.0) / 2.0

    def margin_at(lam: float) -> float:
        rad = h * h + lam
        return stability_margin(p, lam / (h + math.sqrt(rad)) if rad >= 0.0
                                else complex(-h, math.sqrt(-rad)), r)

    margin = stability_margin(p, -h, r)
    if margin > MARGIN_TOL:
        v = Verdict.STRICTLY_STABLE
    elif margin < -MARGIN_TOL:
        v = Verdict.UNSTABLE
    else:
        v = Verdict.BORDERLINE_STABLE
    if margin > 0.0:
        lo, f_lo, hi = -h * h, margin, 0.0
        f_hi = margin_at(hi)
    else:
        lo, hi, f_hi = -float((p.n - 2) ** 2) - 1.0, -h * h, margin
        f_lo = margin_at(lo)
    if not f_lo > 0.0 >= f_hi:
        raise BracketFailure(f"margin has no sign change on lambda in [{lo}, {hi}] "
                             f"for (n,k)=({p.n},{p.k})")
    lam, residual = illinois(margin_at, lo, f_lo, hi, f_hi)[:2]
    if not residual <= MARGIN_TOL:
        raise NonConvergenceError(
            f"margin root lambda1={lam!r} at (n,k)=({p.n},{p.k}) leaves residual "
            f"{residual:.3e} above {MARGIN_TOL:g}", value=lam, err_estimate=residual)
    return StabilityReport(margin, v, lam, residual, *(indicial_roots(lam, p.n) or (None, None)))
