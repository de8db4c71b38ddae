"""Numerical kernel for the Gauss hypergeometric function, gamma-family
helpers, and the Laplace-type quadratures behind the barrier estimates.

Evaluation strategy for 2F1(a, b; c; s) on s in (-1, 1]:

* terminating series (a or b a nonpositive integer): summed directly;
* s at or below the switch point: direct series with compensated summation;
* beyond the switch point: a degree-at-most-2 Euler transform when the
  transformed series terminates that early, otherwise a capped direct
  attempt, then the 1-s connection formula when c-a-b is not an integer,
  and adaptive continuation of Euler's ODE from the switch point in the
  log case.

All routines are pure functions; the only process-wide state is a bounded
cache of ODE-continuation interpolants keyed by (a, b, c).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from scipy.integrate import quad, solve_ivp
from scipy.special import digamma as _digamma_ref
from scipy.special import gammaln, gammasgn

from conelab._backend import hyp2f1_series as _series_kernel
from conelab.errors import DomainError, NonConvergenceError, PoleError

__all__ = [
    "Strategy",
    "SeriesControl",
    "EvalResult",
    "HypParams",
    "DEFAULT_CONTROL",
    "pochhammer",
    "digamma",
    "hyp2f1",
    "hyp2f1_deriv",
    "hyp2f1_integral",
    "gaussian_tail",
    "laplace_quad",
]


class Strategy(Enum):
    DIRECT_SERIES = "DirectSeries"
    EULER_TRANSFORM = "EulerTransform"
    CONNECTION_AT_1 = "ConnectionAt1"
    INTEGRAL_REP = "IntegralRep"
    ODE_CONTINUATION = "OdeContinuation"


@dataclass(frozen=True)
class SeriesControl:
    """Tolerances and budgets for series evaluation; every field must be
    finite.  A rejected value raises ValueError with a message that begins
    with the field name."""

    rel_tol: float = 1e-15
    abs_tol: float = 1e-280
    max_terms: int = 40000
    switch_point: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1e-3:
            raise ValueError(f"rel_tol must lie in (0, 1e-3), got {self.rel_tol}")
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol}")
        if not (isinstance(self.max_terms, int) and self.max_terms >= 64):
            raise ValueError(f"max_terms must be an integer >= 64, got {self.max_terms}")
        if not 0.0 < self.switch_point < 1.0:
            raise ValueError(f"switch_point must lie in (0, 1), got {self.switch_point}")


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class EvalResult:
    value: float
    err_estimate: float
    terms_used: int
    strategy: Strategy


@dataclass(frozen=True)
class HypParams:
    """Parameter triple of 2F1(a, b; c; .); c must be strictly positive."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise DomainError(f"c must be positive, got c={self.c}")


def pochhammer(q: float, m: int) -> float:
    """Rising factorial (q)_m = q (q+1) ... (q+m-1); (q)_0 = 1 exactly.

    Large m is accumulated in log space with sign tracking, so the result
    saturates to +-inf only when the true value overflows binary64.
    """
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    if m == 0:
        return 1.0
    if m <= 150:
        out = 1.0
        for i in range(m):
            out *= q + i
        if math.isfinite(out):
            return out
    sign = 1.0
    log_abs = 0.0
    for i in range(m):
        f = q + i
        if f == 0.0:
            return 0.0
        if f < 0.0:
            sign = -sign
        log_abs += math.log(abs(f))
    if log_abs > 709.0:
        return sign * math.inf
    return sign * math.exp(log_abs)


def digamma(x: float) -> float:
    """Digamma psi(x); raises PoleError at the poles 0, -1, -2, ..."""
    if x <= 0.0 and x == round(x):
        raise PoleError(f"digamma pole at x={x}")
    return float(_digamma_ref(x))


def _nonpos_int(x: float) -> Optional[int]:
    """Return -x as int when x is a nonpositive integer, else None."""
    if x <= 0.0 and abs(x - round(x)) < 1e-12:
        return int(round(-x))
    return None


def _near_int(x: float, tol: float = 1e-9) -> bool:
    return abs(x - round(x)) < tol


def _safe_pow(base: float, expo: float) -> float:
    """base**expo for base > 0 without OverflowError (saturates to inf)."""
    if base == 0.0:
        return 0.0 if expo > 0 else math.inf
    lg = expo * math.log(base)
    if lg > 709.0:
        return math.inf
    if lg < -745.0:
        return 0.0
    return math.exp(lg)


def _run_series(a: float, b: float, c: float, s: float, ctrl: SeriesControl,
                max_terms: Optional[int] = None):
    budget = ctrl.max_terms if max_terms is None else max_terms
    value, err, terms, ok = _series_kernel(a, b, c, s, ctrl.rel_tol,
                                           ctrl.abs_tol, budget)
    return value, err, terms, ok


def _gauss_at_one(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))."""
    sign = (gammasgn(c) * gammasgn(c - a - b)
            * gammasgn(c - a) * gammasgn(c - b))
    lg = gammaln(c) + gammaln(c - a - b) - gammaln(c - a) - gammaln(c - b)
    if lg > 709.0:
        return float(sign) * math.inf
    return float(sign) * math.exp(lg)


def _connection_at_one(a: float, b: float, c: float, s: float,
                       ctrl: SeriesControl) -> EvalResult:
    """DLMF 15.8.4 evaluation through 1-s; requires c-a-b non-integer.

    Each term is assembled as sign * exp(log magnitude) * series so the
    (1-s)^(c-a-b) prefactor cannot overflow before it is compensated by
    the gamma ratio.
    """
    cab = c - a - b
    u = 1.0 - s
    v1, e1, t1, ok1 = _run_series(a, b, a + b - c + 1.0, u, ctrl)
    v2, e2, t2, ok2 = _run_series(c - a, c - b, cab + 1.0, u, ctrl)
    if not (ok1 and ok2):
        raise NonConvergenceError(
            f"connection series stalled for (a,b,c,s)=({a},{b},{c},{s})")
    sign_a = gammasgn(c) * gammasgn(cab) * gammasgn(c - a) * gammasgn(c - b)
    log_a = gammaln(c) + gammaln(cab) - gammaln(c - a) - gammaln(c - b)
    sign_b = gammasgn(c) * gammasgn(-cab) * gammasgn(a) * gammasgn(b)
    log_b = (gammaln(c) + gammaln(-cab) - gammaln(a) - gammaln(b)
             + cab * math.log(u))

    def _term(sign, lg, series):
        if lg > 709.0:
            return math.copysign(math.inf, sign * series) if series != 0 else 0.0
        return sign * math.exp(lg) * series

    term_a = _term(sign_a, log_a, v1)
    term_b = _term(sign_b, log_b, v2)
    value = term_a + term_b
    err = (abs(_term(sign_a, log_a, e1)) + abs(_term(sign_b, log_b, e2))
           + 2e-16 * (abs(term_a) + abs(term_b)))
    return EvalResult(value, err, t1 + t2, Strategy.CONNECTION_AT_1)


class _OdeCache:
    """Bounded cache of dense ODE continuations keyed by (a, b, c).

    Euler's equation is integrated in the stretched variable
    xi = log(1 - s), where the s = 1 endpoint is pushed to -infinity and
    the coefficients stay smooth, so reaching s = 1 - 2e-9 costs a few
    hundred steps instead of a crawl into the singularity.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._store: dict = {}

    def get(self, a, b, c, xi0, y0, yp0, xi_min):
        # the launch point is part of the key: a different switch point
        # changes the interpolant's valid span
        key = (a, b, c, xi0)
        hit = self._store.get(key)
        if hit is not None and hit[0] <= xi_min:
            return hit[1]
        sol = self._integrate(a, b, c, xi0, y0, yp0, xi_min)
        if len(self._store) >= self.capacity:
            self._store.pop(next(iter(self._store)))
        self._store[key] = (xi_min, sol)
        return sol

    @staticmethod
    def _integrate(a, b, c, xi0, y0, yp0, xi_min):
        apb1 = a + b + 1.0

        def rhs(xi, y):
            u = math.exp(xi)  # u = 1 - s <= 1 - switch_point
            f, fp = y
            return (fp, fp + ((c - apb1 * (1.0 - u)) * fp + a * b * u * f) / (1.0 - u))

        sol = solve_ivp(rhs, (xi0, xi_min), (y0, yp0), method="DOP853",
                        rtol=1e-12, atol=1e-140, dense_output=True)
        if not sol.success:
            raise NonConvergenceError(
                f"ODE continuation failed for (a,b,c)=({a},{b},{c}): {sol.message}")
        return sol.sol


_ODE_CACHE = _OdeCache()


def _ode_continuation(a: float, b: float, c: float, s: float,
                      ctrl: SeriesControl) -> EvalResult:
    s0 = ctrl.switch_point
    f0, e0, t0, ok0 = _run_series(a, b, c, s0, ctrl)
    d0, ed0, td0, okd = _run_series(a + 1.0, b + 1.0, c + 1.0, s0, ctrl)
    if not (ok0 and okd):
        raise NonConvergenceError("series launch for ODE continuation stalled")
    fp0 = a * b / c * d0
    xi0 = math.log(1.0 - s0)
    # y(xi) = F(s), s = 1 - exp(xi): dy/dxi = -(1-s) dF/ds
    yp0 = -(1.0 - s0) * fp0
    xi = math.log(max(1.0 - s, 1e-12))
    xi_min = min(xi, xi0 - 1e-3)
    interp = _ODE_CACHE.get(a, b, c, xi0, f0, yp0, xi_min)
    value = float(interp(xi)[0])
    err = 1e-11 * (abs(value) + abs(f0)) + e0
    return EvalResult(value, err, t0 + td0, Strategy.ODE_CONTINUATION)


def hyp2f1(p: HypParams, s: float, ctrl: SeriesControl = DEFAULT_CONTROL) -> EvalResult:
    """Evaluate 2F1(a, b; c; s) on (-1, 1] with strategy bookkeeping.

    At s = 1 the Gauss summation value is returned and requires
    c - a - b > 0.  Raises NonConvergenceError when every applicable
    strategy exhausts its budget.
    """
    a, b, c = p.a, p.b, p.c
    if not -1.0 < s <= 1.0:
        raise DomainError(f"s={s} outside (-1, 1]")
    if s == 0.0:
        return EvalResult(1.0, 0.0, 0, Strategy.DIRECT_SERIES)
    if s == 1.0:
        if c - a - b <= 0.0:
            raise DomainError(
                f"2F1 at s=1 requires c-a-b > 0, got {c - a - b}")
        return EvalResult(_gauss_at_one(a, b, c), 0.0, 0, Strategy.CONNECTION_AT_1)

    terminating = _nonpos_int(a) is not None or _nonpos_int(b) is not None
    if terminating or abs(s) <= ctrl.switch_point or s < 0.0:
        value, err, terms, ok = _run_series(a, b, c, s, ctrl)
        if not ok:
            raise NonConvergenceError(
                f"direct series exhausted {ctrl.max_terms} terms at s={s}",
                value=value, err_estimate=err, terms_used=terms)
        return EvalResult(value, err, terms, Strategy.DIRECT_SERIES)

    # s beyond the switch point
    deg_ca, deg_cb = _nonpos_int(c - a), _nonpos_int(c - b)
    euler_deg = min(d for d in (deg_ca, deg_cb) if d is not None) \
        if (deg_ca is not None or deg_cb is not None) else None
    if euler_deg is not None and euler_deg <= 2:
        v, err, terms, _ = _run_series(c - a, c - b, c, s, ctrl)
        pref = _safe_pow(1.0 - s, c - a - b)
        return EvalResult(pref * v, pref * err + 2e-16 * abs(pref * v),
                          terms, Strategy.EULER_TRANSFORM)

    if s <= 0.99:
        value, err, terms, ok = _run_series(a, b, c, s, ctrl,
                                            max_terms=min(ctrl.max_terms, 8000))
        if ok:
            return EvalResult(value, err, terms, Strategy.DIRECT_SERIES)

    if not _near_int(c - a - b):
        return _connection_at_one(a, b, c, s, ctrl)
    return _ode_continuation(a, b, c, s, ctrl)


def hyp2f1_deriv(p: HypParams, s: float, m: int,
                 ctrl: SeriesControl = DEFAULT_CONTROL) -> EvalResult:
    """m-th derivative of 2F1 via the parameter-shift identity
    d^m/ds^m F(a,b;c;s) = (a)_m (b)_m / (c)_m * F(a+m, b+m; c+m; s)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    pref = pochhammer(p.a, m) * pochhammer(p.b, m) / pochhammer(p.c, m)
    shifted = HypParams(p.a + m, p.b + m, p.c + m)
    if pref == 0.0:
        return EvalResult(0.0, 0.0, 0, Strategy.DIRECT_SERIES)
    inner = hyp2f1(shifted, s, ctrl)
    return EvalResult(pref * inner.value, abs(pref) * inner.err_estimate,
                      inner.terms_used, inner.strategy)


def hyp2f1_integral(p: HypParams, s: float, quad_tol: float = 1e-12) -> EvalResult:
    """Euler integral representation, valid for c > b > 0 and s < 1.

    Independent oracle for hyp2f1: adaptive Gauss-Kronrod quadrature of
    Gamma(c)/(Gamma(b) Gamma(c-b)) * int_0^1 u^(b-1) (1-u)^(c-b-1) (1-us)^(-a) du.
    """
    a, b, c = p.a, p.b, p.c
    if not c > b > 0.0:
        raise DomainError(f"integral representation needs c > b > 0, got b={b}, c={c}")
    if s >= 1.0:
        raise DomainError("integral representation needs s < 1")
    log_pref = gammaln(c) - gammaln(b) - gammaln(c - b)

    def integrand(u):
        return u ** (b - 1.0) * (1.0 - u) ** (c - b - 1.0) * (1.0 - u * s) ** (-a)

    with warnings.catch_warnings():
        # near-roundoff tolerances trip the extrapolation warning; the
        # returned error estimate is propagated to the caller regardless
        warnings.simplefilter("ignore")
        val, est = quad(integrand, 0.0, 1.0, epsabs=quad_tol, epsrel=quad_tol,
                        limit=500)
    pref = math.exp(log_pref)
    return EvalResult(pref * val, pref * est + 2e-16 * abs(pref * val),
                      0, Strategy.INTEGRAL_REP)


_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def gaussian_tail(c_upper: float, variance: float) -> float:
    """int_{-inf}^{c} exp(-r^2 / (2 variance)) dr.

    Evaluated through the C library erfc (rational minimax core), so the
    far tail keeps full relative accuracy.
    """
    if not variance > 0.0:
        raise DomainError("variance must be positive")
    if math.isinf(c_upper):
        if c_upper > 0:
            return math.sqrt(2.0 * math.pi * variance)
        return 0.0
    scaled = c_upper / math.sqrt(2.0 * variance)
    return _SQRT_HALF_PI * math.sqrt(variance) * math.erfc(-scaled)


def laplace_quad(rho: float, power: int, half_weight: bool) -> float:
    """int_0^inf exp(-tau/2) tau^(-1/2 if half_weight) (tau+rho)^(-power) dtau.

    Split at tau = 1; the head substitutes tau = w^2 when the half weight
    makes the origin singular, the tail substitutes tau = 1 + u/(1-u).
    """
    if not rho > 0.0:
        raise DomainError("rho must be positive")
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")

    if half_weight:
        def head(w):
            t = w * w
            return 2.0 * math.exp(-t / 2.0) * (t + rho) ** (-power)
        head_val, head_err = quad(head, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    else:
        def head(t):
            return math.exp(-t / 2.0) * (t + rho) ** (-power)
        head_val, head_err = quad(head, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)

    def tail(u):
        t = 1.0 + u / (1.0 - u)
        jac = 1.0 / (1.0 - u) ** 2
        w = t ** -0.5 if half_weight else 1.0
        return math.exp(-t / 2.0) * w * (t + rho) ** (-power) * jac

    tail_val, tail_err = quad(tail, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    return head_val + tail_val
