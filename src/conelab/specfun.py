"""Numerical kernel for the Gauss hypergeometric function, gamma-family
helpers, and the Laplace-type quadratures behind the barrier estimates.

Evaluation strategy for 2F1(a, b; c; s) on s in (-1, 1]:

* terminating series (a or b a nonpositive integer): summed directly;
* s at or below the switch point: direct series with compensated summation;
* beyond the switch point: a degree-at-most-2 Euler transform when the
  transformed series terminates that early, otherwise a capped direct
  attempt, then the 1-s connection formula: DLMF 15.8.4 when c-a-b is
  not an integer, and its logarithmic limit DLMF 15.8.10 (Abramowitz &
  Stegun 15.3.10-15.3.12) when it is.

Derivatives come from the parameter shift F' = ab/c F(a+1, b+1; c+1; s)
(hyp2f1_deriv).  hyp2f1_pair returns F and F' together, equal to the two
separate calls; where both are direct series it sums them without the
second call's wrapper, which is most of the cost of a profile's
log-derivative.

Every err_estimate is a first-order bound on the rounding, truncation
and parameter-rounding error of the value it comes with.  All routines
are pure functions: the module keeps no process-wide state.  Like the
rest of the library it needs nothing beyond the standard library: the
quadrature oracles are tanh-sinh quadrature and closed forms through
the scaled functions erfcx and e^x E1(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Tuple

from conelab._backend import hyp2f1_series as _series_kernel
from conelab.errors import DomainError, NonConvergenceError, PoleError

__all__ = [
    "Strategy",
    "EvalResult",
    "HypParams",
    "REL_TOL",
    "ABS_TOL",
    "MAX_TERMS",
    "SWITCH_POINT",
    "digamma",
    "hyp2f1",
    "hyp2f1_deriv",
    "hyp2f1_pair",
    "hyp2f1_sym",
    "hyp2f1_integral",
    "laplace_quad",
    "erfcx",
]


class Strategy(Enum):
    DIRECT_SERIES = "DirectSeries"
    EULER_TRANSFORM = "EulerTransform"
    CONNECTION_AT_1 = "ConnectionAt1"
    INTEGRAL_REP = "IntegralRep"


# series tolerances and budgets: relative and absolute stopping
# tolerances, the term budget of one series, and the |s| up to which the
# direct series is summed
REL_TOL = 1e-15
ABS_TOL = 1e-280
MAX_TERMS = 40000
SWITCH_POINT = 0.5


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


_U = 2.0 ** -53  # unit roundoff of binary64
# bound on the absolute rounding error of a subnormal product: half the
# subnormal spacing, 2^-1075, is no binary64, so the smallest subnormal
_ETA = 2.0 ** -1074


def _pochhammer(q: float, m: int) -> Tuple[float, float]:
    """Rising factorial (q)_m = q (q+1) ... (q+m-1), (q)_0 = 1 exactly, and
    a first-order bound on its error: each factor q+i and each product
    rounds by 2^-53 relative, and a subnormal product by up to _ETA more.
    The factors are multiplied in order, so the value saturates to +-inf
    once a partial product overflows binary64.  A zero factor returns
    (0, 0) before an overflowed partial product can turn it into inf * 0."""
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    out, err = 1.0, 0.0
    for i in range(m):
        f = q + i
        if f == 0.0:
            return 0.0, 0.0
        err = (err + _U * abs(out)) * abs(f) + _U * abs(out * f) + _ETA
        out *= f
    return out, err


_EULER_GAMMA = 0.57721566490153286061
# error models, in units of 2^-53, with about 3x margin over the worst
# error seen against 40-digit mpmath on 20k-40k draws (13 and 10):
# |math.lgamma(x) - log|Gamma(x)|| <= 32 (1 + |lgamma|) and
# |digamma(x) - psi(x)| <= 32 (1 + |psi| + |pi cot(pi x)| for x < 1/2)
_LGAMMA_ULPS = 32.0
_DIGAMMA_ULPS = 32.0


def digamma(x: float) -> float:
    """Digamma psi(x); raises PoleError at the poles 0, -1, -2, ...

    Reflection psi(x) = psi(1-x) - pi cot(pi x) below 1/2, the recurrence
    psi(x) = psi(x+1) - 1/x up to 10, then the asymptotic series through
    x^-14, whose truncation error is below 5e-17 from 10 on.
    """
    if _nonpos_int(x) is not None:
        raise PoleError(f"digamma pole at x={x}")
    if x < 0.5:
        # cot has period 1, and x - round(x) is exact and at most 1/2
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    tail = w * (1.0 / 12.0 - w * (1.0 / 120.0 - w * (1.0 / 252.0 - w * (
        1.0 / 240.0 - w * (1.0 / 132.0 - w * (691.0 / 32760.0 - w / 12.0))))))
    return acc + math.log(x) - 0.5 / x - tail


def _digamma_err(x: float, psi: float) -> float:
    """Bound on |digamma(x) - psi(x)| for the value psi it returned."""
    cot = abs(math.pi / math.tan(math.pi * (x - round(x)))) if x < 0.5 else 0.0
    return _DIGAMMA_ULPS * _U * (1.0 + abs(psi) + cot)


def _gamma_ratio(num: Iterable[float], den: Iterable[float]) -> Tuple[float, float, float]:
    """(sign, log magnitude, bound on the log's absolute error) of
    prod Gamma(num) / prod Gamma(den), from math.lgamma and the sign rule
    sign Gamma(x) = (-1)^floor(x) for x < 0.  A pole in den makes the ratio
    exactly zero: (0.0, -inf, 0.0)."""
    sign, log, err = 1.0, 0.0, 0.0
    for x, weight in [(x, 1.0) for x in num] + [(x, -1.0) for x in den]:
        if _nonpos_int(x) is not None:
            if weight < 0.0:
                return 0.0, -math.inf, 0.0
            raise PoleError(f"Gamma pole at x={x}")
        if x < 0.0 and math.floor(x) % 2 == 1:
            sign = -sign
        lg = math.lgamma(x)
        log += weight * lg
        err += _LGAMMA_ULPS * _U * (1.0 + abs(lg)) + _U * abs(log)
    return sign, log, err


def _scaled(sign: float, log: float, x: float) -> float:
    """sign * exp(log) * x, saturating to +-inf instead of overflowing
    before x can compensate."""
    if log > 709.0:
        return math.copysign(math.inf, sign * x) if x != 0.0 else 0.0
    return sign * math.exp(log) * x


def _nonpos_int(x: float) -> Optional[int]:
    """Return -x as int when x is a nonpositive integer, else None.  Only
    an exact integer counts: near s = 1 a parameter 1e-16 off an integer
    can move 2F1 by orders of magnitude."""
    if x <= 0.0 and x == math.floor(x):
        return int(-x)
    return None


def _near_int(x: float) -> bool:
    return abs(x - round(x)) < 1e-9


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


def _run_series(a: float, b: float, c: float, s: float,
                dp=(0.0, 0.0, 0.0), max_terms: Optional[int] = None):
    """hyp2f1_series, its error bound grown for parameters p = a, b, c
    that lie up to dp from the intended ones: a term of index m moves by at
    most m |term| max_j dp / |p + j|, and the kernel's bound already
    exceeds 8 * 2^-53 * sum m |term|."""
    budget = MAX_TERMS if max_terms is None else max_terms
    value, err, terms, ok = _series_kernel(a, b, c, s, REL_TOL, ABS_TOL, budget)
    grow = 0.0
    for p, d in zip((a, b, c), dp):
        if d > 0.0:
            gap = p if p > 0.0 else abs(p - round(p))
            grow += d / gap if gap > 0.0 else math.inf
    return value, err * (1.0 + grow / (8.0 * _U)), terms, ok


def _gauss_at_one(a: float, b: float, c: float, dp) -> Tuple[float, float]:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)),
    with an error bound for inputs within dp of the intended (a, b, c)."""
    (ca, d_ca), (cb, d_cb), (cab, d_cab) = _complements(a, b, c, dp)
    sign, log, lerr = _gamma_ratio((c, cab), (ca, cb))
    value = _scaled(sign, log, 1.0)
    if value == 0.0:
        return value, 0.0
    lerr += (_psi_shift(c, dp[2]) + _psi_shift(cab, d_cab)
             + _psi_shift(ca, d_ca) + _psi_shift(cb, d_cb))
    return value, (lerr + 2.0 * _U) * abs(value)


def _rounding(parts: Iterable[float], rounded: float) -> float:
    """Exact |sum(parts) - rounded|: the rounding error of a parameter
    derived from the inputs (math.fsum rounds the exact sum once, and the
    error of a sum of two floats is itself a float)."""
    return abs(math.fsum((*parts, -rounded)))


def _complements(a: float, b: float, c: float, dp):
    """(c-a, error), (c-b, error), (c-a-b, error): each as rounded, with a
    bound on its distance from the intended value when (a, b, c) lie within
    dp of the intended parameters."""
    da, db, dc = dp
    ca, cb = c - a, c - b
    cab = ca - b
    return ((ca, _rounding((c, -a), ca) + da + dc), (cb, _rounding((c, -b), cb) + db + dc),
            (cab, _rounding((c, -a, -b), cab) + da + db + dc))


def _euler_terminating(a: float, b: float, c: float, s: float, dp) -> EvalResult:
    """Euler's transformation F(a,b;c;s) = (1-s)^(c-a-b) F(c-a,c-b;c;s)
    (DLMF 15.8.1), for c-a or c-b a nonpositive integer, where the
    transformed series terminates.  The bound adds the rounding of the
    prefactor and its first-order change with the error of c-a-b."""
    (ca, d_ca), (cb, d_cb), (cab, d_cab) = _complements(a, b, c, dp)
    v, err, terms, _ = _run_series(ca, cb, c, s, (d_ca, d_cb, dp[2]))
    lu = math.log(1.0 - s)
    pref = _safe_pow(1.0 - s, cab)
    rel = _U * (4.0 + 2.0 * abs(cab * lu)) + d_cab * abs(lu)
    return EvalResult(pref * v, pref * err + rel * abs(pref * v),
                      terms, Strategy.EULER_TRANSFORM)


def _psi_shift(x: float, dx: float) -> float:
    """First-order change of log|Gamma(x)| when x moves by dx."""
    if dx == 0.0:
        return 0.0
    if _nonpos_int(x) is not None:
        return math.inf
    return dx * abs(digamma(x))


def _connection_at_one(a: float, b: float, c: float, s: float, dp) -> EvalResult:
    """DLMF 15.8.4 evaluation through 1-s; requires c-a-b non-integer.

    Each term is assembled as sign * exp(log magnitude) * series so the
    (1-s)^(c-a-b) prefactor cannot overflow before it is compensated by
    the gamma ratio.  The error bound covers the two series, the gamma
    ratios and the rounding of c-a, c-b, c-a-b and, up to dp, of (a, b, c),
    whose effect near an integer c-a-b grows like psi(c-a-b).
    """
    (ca, d_ca), (cb, d_cb), (cab, d_cab) = _complements(a, b, c, dp)
    c1, cab1 = a + b - c + 1.0, cab + 1.0
    u = 1.0 - s
    lu = math.log(u)
    da, db, dc = dp
    v1, e1, t1, ok1 = _run_series(a, b, c1, u,
                                  (da, db, _rounding((a, b, -c, 1.0), c1) + da + db + dc))
    v2, e2, t2, ok2 = _run_series(ca, cb, cab1, u,
                                  (d_ca, d_cb, _rounding((c, -a, -b, 1.0), cab1) + da + db + dc))
    if not (ok1 and ok2):
        raise NonConvergenceError(
            f"connection series stalled for (a,b,c,s)=({a},{b},{c},{s})")
    gauss, gauss_err = _gauss_at_one(a, b, c, dp)  # the first coefficient
    sign_b, log_b, lerr_b = _gamma_ratio((c, -cab), (a, b))
    log_b += cab * lu
    # the log prefactor moves with the rounding of its arguments
    lerr_b += (_U * (2.0 * abs(cab * lu) + abs(log_b)) + _psi_shift(c, dc) + _psi_shift(a, da)
               + _psi_shift(b, db) + _psi_shift(-cab, d_cab) + d_cab * abs(lu))
    term_a = gauss * v1
    term_b = _scaled(sign_b, log_b, v2)
    value = term_a + term_b
    err = (abs(gauss * e1) + gauss_err * abs(v1) + abs(_scaled(sign_b, log_b, e2))
           + (lerr_b + 2.0 * _U) * abs(term_b) + _U * (abs(term_a) + abs(value)))
    return EvalResult(value, err, t1 + t2, Strategy.CONNECTION_AT_1)


def _log_case(a: float, b: float, c: float, s: float, dp) -> EvalResult:
    """2F1 when c-a-b is an integer m, beyond the direct window.

    For m < 0, Euler's transformation F(a,b;c;s) = u^m F(c-a,c-b;c;s),
    u = 1-s, leads to c-a-b = -m > 0 (_euler_terminating when the new
    series terminates).  For m >= 0, DLMF 15.8.10 gives

        F = Gamma(c) Gamma(m) / (Gamma(a+m) Gamma(b+m))
              sum_{k<m} (a)_k (b)_k (m-k-1)! / ((m-1)! k!) (-u)^k
          - (-u)^m Gamma(c) / (Gamma(a) Gamma(b) m!)
              sum_{k>=0} (a+m)_k (b+m)_k m! / (k! (k+m)!) u^k
                  [log u - psi(k+1) - psi(k+m+1) + psi(a+k+m) + psi(b+k+m)],

    with psi advanced by psi(x+1) = psi(x) + 1/x.  The series stops once a
    geometric bound on its tail clears the tolerance.  The error bound
    adds the rounding of every term, psi value and gamma ratio, and the
    first-order effect of the distance from the intended (a, b, c), up to dp
    away, to a triple with c-a-b exactly an integer, growing like log(u)^2.
    """
    u = 1.0 - s
    lu = math.log(u)
    m = int(round(c - a - b))
    da, db, dc = dp
    euler = 1.0
    shift = da + db + dc  # distance from the intended (a, b, c) to the one summed
    if m < 0:
        if _nonpos_int(c - a) is not None or _nonpos_int(c - b) is not None:
            return _euler_terminating(a, b, c, s, dp)
        (ca, d_ca), (cb, d_cb), _ = _complements(a, b, c, dp)
        a, b, m, euler, shift = ca, cb, -m, _safe_pow(u, m), d_ca + d_cb + dc
    am, bm = a + m, b + m
    shift += (_rounding((c, -a, -b), m) + _rounding((a, m), am)
              + _rounding((b, m), bm))

    # finite part, sum_{k<m}
    sign1, log1, lerr1 = _gamma_ratio((c, m), (am, bm)) if m else (0.0, -math.inf, 0.0)
    e = 1.0
    s1 = s1_abs = s1_err = 0.0
    for k in range(m):
        if k:
            e *= (a + k - 1.0) * (b + k - 1.0) / (k * (m - k)) * -u
        s1 += e
        s1_abs += abs(e)
        s1_err += 8.0 * k * _U * abs(e) + _U * abs(s1)

    # logarithmic series
    sign2, log2, lerr2 = _gamma_ratio((c,), (a, b, m + 1.0))
    sign2 = -sign2 if m % 2 == 0 else sign2
    log2 += m * lu
    lerr2 += _U * (2.0 * m * abs(lu) + abs(log2))
    psi1 = -_EULER_GAMMA
    psi2 = psi1 + math.fsum(1.0 / j for j in range(1, m + 1))
    psi3, psi4 = psi_am, psi_bm = digamma(am), digamma(bm)
    psi_err = (_digamma_err(am, psi3) + _digamma_err(bm, psi4)
               + _U * (1.0 + (m + 2.0) * abs(psi2)))
    scale2 = _scaled(1.0, log2, 1.0)
    t1 = _scaled(sign1, log1, s1)
    d = 1.0
    s2 = s2_err = sens = 0.0
    k = 0
    while True:
        br = lu - psi1 - psi2 + psi3 + psi4
        t = d * br
        s2 += t
        mag = abs(lu) + abs(psi1) + abs(psi2) + abs(psi3) + abs(psi4)
        s2_err += (abs(t) * (8.0 * k + 2.0) * _U
                   + abs(d) * (psi_err + 5.0 * _U * mag) + _U * abs(s2))
        sens += abs(d) * (br * br + abs(br) + 1.0)
        x3, x4 = am + k, bm + k
        d *= x3 * x4 / ((k + 1.0) * (k + m + 1.0)) * u
        psi1 += 1.0 / (k + 1.0)
        psi2 += 1.0 / (k + m + 1.0)
        psi3 += 1.0 / x3
        psi4 += 1.0 / x4
        k += 1
        psi_err += 4.0 * _U * (abs(psi1) + abs(psi2) + abs(psi3) + abs(psi4)
                               + 1.0 / abs(x3) + 1.0 / abs(x4) + 2.0 / k)
        if am + k > 0.0 and bm + k > 0.0:
            q = u * min((1.0 + max(a - 1.0, 0.0) / (k + m + 1.0))
                        * (1.0 + max(bm - 1.0, 0.0) / (k + 1.0)),
                        (1.0 + max(am - 1.0, 0.0) / (k + 1.0))
                        * (1.0 + max(b - 1.0, 0.0) / (k + m + 1.0)))
            if q < 1.0:
                tail = abs(d) * (abs(lu) + abs(psi3 - psi2) + abs(psi4 - psi1)) / (1.0 - q)
                target = REL_TOL * (abs(t1) + scale2 * abs(s2))
                if scale2 * tail <= max(ABS_TOL, target):
                    break
        if k >= MAX_TERMS:
            raise NonConvergenceError(
                f"log-case series exhausted {MAX_TERMS} terms at s={s}",
                terms_used=k)
    t2 = _scaled(sign2, log2, s2)
    value = euler * (t1 + t2)
    # first-order effect of the parameter shift: the log(u)^2 part of
    # d/dc, plus psi-weighted terms for the gamma ratios
    psi_c = abs(digamma(c)) + abs(psi_am) + abs(psi_bm) + abs(lu) + 1.0
    shift_err = shift * (scale2 * sens + psi_c * (abs(_scaled(1.0, log1, s1_abs)) + abs(t2)))
    err = abs(euler) * (abs(_scaled(1.0, log1, s1_err)) + (lerr1 + 2.0 * _U) * abs(t1)
                        + scale2 * (s2_err + tail) + (lerr2 + 2.0 * _U) * abs(t2)
                        + _U * abs(t1 + t2) + shift_err) + 2.0 * _U * abs(value)
    return EvalResult(value, err, m + k, Strategy.CONNECTION_AT_1)


def _euler_block(a: float, b: float, c: float) -> bool:
    """c-a or c-b a nonpositive integer down to -2: the Euler-transformed
    series is a polynomial of degree at most 2."""
    return (c - a) in (0.0, -1.0, -2.0) or (c - b) in (0.0, -1.0, -2.0)


def _direct_budget(a: float, b: float, c: float, s: float) -> Optional[int]:
    """Term budget of the direct series for 2F1(a, b; c; s), 0 < |s| < 1:
    MAX_TERMS for a terminating series and up to the switch point, 8000 for
    the capped attempt beyond it, and None where that attempt is skipped
    (an Euler block, or s above 0.99)."""
    if (abs(s) <= SWITCH_POINT or s < 0.0
            or _nonpos_int(a) is not None or _nonpos_int(b) is not None):  # terminating
        return MAX_TERMS
    if s > 0.99 or _euler_block(a, b, c):
        return None
    return 8000


def hyp2f1(p: HypParams, s: float,
           dp: Tuple[float, float, float] = (0.0, 0.0, 0.0)) -> EvalResult:
    """Evaluate 2F1(a, b; c; s) on (-1, 1] with strategy bookkeeping.

    At s = 1 the Gauss summation value is returned and requires
    c - a - b > 0.  Raises NonConvergenceError when every applicable
    strategy exhausts its budget.  The err_estimate also covers (a, b, c)
    lying up to dp from the intended parameters, e.g. by rounding.
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
        value, err = _gauss_at_one(a, b, c, dp)
        return EvalResult(value, err, 0, Strategy.CONNECTION_AT_1)

    budget = _direct_budget(a, b, c, s)
    if budget is not None:
        value, err, terms, ok = _run_series(a, b, c, s, dp, budget)
        if ok:
            return EvalResult(value, err, terms, Strategy.DIRECT_SERIES)
        if budget == MAX_TERMS:
            raise NonConvergenceError(
                f"direct series exhausted {MAX_TERMS} terms at s={s}",
                value=value, err_estimate=err, terms_used=terms)
    elif _euler_block(a, b, c):
        return _euler_terminating(a, b, c, s, dp)

    if not _near_int(c - a - b):
        return _connection_at_one(a, b, c, s, dp)
    return _log_case(a, b, c, s, dp)


def hyp2f1_deriv(p: HypParams, s: float, m: int) -> EvalResult:
    """m-th derivative of 2F1 via the parameter-shift identity
    d^m/ds^m F(a,b;c;s) = (a)_m (b)_m / (c)_m * F(a+m, b+m; c+m; s).

    The error bound adds to that of the shifted 2F1 the rounding of the
    shifted parameters and of the prefactor, which may be subnormal."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if any(d is not None and d < m for d in (_nonpos_int(p.a), _nonpos_int(p.b))):
        return EvalResult(0.0, 0.0, 0, Strategy.DIRECT_SERIES)  # degree below m
    pref, pref_err, dp = _shift_prefactor(p.a, p.b, p.c, m)
    inner = hyp2f1(HypParams(p.a + m, p.b + m, p.c + m), s, dp)
    return _times_prefactor(pref, pref_err, inner.value, inner.err_estimate,
                            inner.terms_used, inner.strategy)


def _shift_prefactor(a: float, b: float, c: float, m: int):
    """(a)_m (b)_m / (c)_m, a bound on its error, which covers a subnormal
    prefactor, and the rounding dp of the shifted parameters a+m, b+m, c+m."""
    (pa, ea), (pb, eb), (pc, ec) = _pochhammer(a, m), _pochhammer(b, m), _pochhammer(c, m)
    ab = pa * pb
    pref = ab / pc
    pref_err = ((ea * abs(pb) + abs(pa) * eb + _U * abs(ab) + _ETA + abs(pref) * ec) / pc
                + _U * abs(pref) + _ETA)
    return pref, pref_err, (_rounding((a, m), a + m), _rounding((b, m), b + m),
                            _rounding((c, m), c + m))


def _times_prefactor(pref: float, pref_err: float, value: float, err: float,
                     terms: int, strategy: Strategy) -> EvalResult:
    """The derivative pref * F(a+m, b+m; c+m; s) from the shifted 2F1's
    value and error bound."""
    out = pref * value
    return EvalResult(out, abs(pref) * err + pref_err * abs(value) + _U * abs(out) + _ETA,
                      terms, strategy)


def hyp2f1_pair(p: HypParams, s: float) -> Tuple[EvalResult, EvalResult]:
    """(hyp2f1(p, s), hyp2f1_deriv(p, s, 1)), equal field for field.

    When both F and the shifted series of F' are direct series, their two
    kernel calls are made here, without the wrappers' second routing,
    shifted HypParams or intermediate results; any other route, and a
    series that exhausts its budget, is left to the two functions."""
    a, b, c = p.a, p.b, p.c
    # a or b zero is hyp2f1_deriv's F' = 0 shortcut
    if 0.0 < abs(s) < 1.0 and a != 0.0 and b != 0.0:
        budget = _direct_budget(a, b, c, s)
        budget1 = _direct_budget(a + 1.0, b + 1.0, c + 1.0, s)
        if budget is not None and budget1 is not None:
            value, err, terms, ok = _run_series(a, b, c, s, max_terms=budget)
            pref, pref_err, dp = _shift_prefactor(a, b, c, 1)
            value1, err1, terms1, ok1 = _run_series(a + 1.0, b + 1.0, c + 1.0, s, dp, budget1)
            if ok and ok1:
                return (EvalResult(value, err, terms, Strategy.DIRECT_SERIES),
                        _times_prefactor(pref, pref_err, value1, err1, terms1,
                                         Strategy.DIRECT_SERIES))
    return hyp2f1(p, s), hyp2f1_deriv(p, s, 1)


def hyp2f1_sym(sigma: float, prod: float, c: float, s: float) -> Tuple[EvalResult, EvalResult]:
    """2F1(a, b; c; s) and its s-derivative from a + b = sigma >= 0 and
    ab = prod >= 0 (a and b may be a complex pair), c > 0, 0 <= s < 1.

    F' = d0 sum e_m and F = 1 + d0 sum t_m for d0 = prod/c, e_0 = 1,
    t_m = e_m s/(m+1) and e_(m+1) = t_m (j^2 + j sigma + prod)/(j + c), j = m+1:
    positive terms that do not underflow, 8 roundings per step as in the
    series kernel, and geometric tails, since e_i / e_(i-1) <= q =
    s (1 + max(sigma - c, 0)/(i + c) + prod/((i + c) i)) for every i >= m+2."""
    if not (sigma >= 0.0 and prod >= 0.0 and c > 0.0 and 0.0 <= s < 1.0):
        raise DomainError(f"hyp2f1_sym outside its domain: ({sigma}, {prod}, {c}, {s})")
    es, ts, e = [], [], 1.0
    for m in range(MAX_TERMS):
        es.append(e)
        ts.append(e * s / (m + 1.0))
        j, i = m + 1.0, m + 2.0
        e = ts[-1] * ((j * j + j * sigma + prod) / (j + c))
        q = s * (1.0 + max(sigma - c, 0.0) / (i + c) + prod / ((i + c) * i))
        tail_e = e / (1.0 - q) if q < 1.0 else math.inf  # bounds sum_(k>m) e_k
        if tail_e <= REL_TOL:  # sum e >= 1 and sum t >= s: both tails are relative
            break
    else:
        raise NonConvergenceError(f"hyp2f1_sym exhausted {MAX_TERMS} terms at s={s}",
                                  terms_used=MAX_TERMS)
    d0, sum_e, sum_t = prod / c, math.fsum(es), math.fsum(ts)
    f, fp = 1.0 + d0 * sum_t, d0 * sum_e
    # e_k, t_k round 8k, 8k+2 times, then fsum, d0 and the product once each;
    # a subnormal d0 or F' errs by _ETA (sum_e + 1) instead
    rounds_e = math.fsum((8.0 * k + 3.0) * x for k, x in enumerate(es))
    rounds_t = math.fsum((8.0 * k + 5.0) * x for k, x in enumerate(ts))
    f_err = 1.12e-16 * (d0 * rounds_t + f) + d0 * tail_e * s / i
    fp_err = 1.12e-16 * d0 * rounds_e + d0 * tail_e + _ETA * (sum_e + 1.0)
    return (EvalResult(f, f_err, m + 1, Strategy.DIRECT_SERIES),
            EvalResult(fp, fp_err, m + 1, Strategy.DIRECT_SERIES))


# tanh-sinh window and finest level: at |x| = 6.5 the endpoint factor
# w^b, w = min(u, 1-u), is exp(-b pi sinh 6.5) = 1e-91 for b = 0.2, while
# with a window of 4 the oracle misses 2F1(1, 0.2; 0.4; 0.9) by 4.7e-8
TS_X_MAX = 6.5
TS_MAX_LEVEL = 7


def hyp2f1_integral(p: HypParams, s: float) -> EvalResult:
    """Euler integral representation, valid for c > b > 0 and s < 1.

    Independent oracle for hyp2f1: Gamma(c)/(Gamma(b) Gamma(c-b)) times
    int_0^1 u^(b-1) (1-u)^(c-b-1) (1-us)^(-a) du by tanh-sinh quadrature
    (Takahasi & Mori 1974).  u = (1 + tanh(pi/2 sinh x))/2 turns the
    integrand into pi cosh x u^b (1-u)^(c-b) (1-us)^(-a); its endpoint
    factors are taken through w = min(u, 1-u) = 1/(1 + exp(pi sinh|x|)),
    so neither end cancels.  The step h = 2^-L halves per level on nodes
    |x| <= TS_X_MAX until two levels agree to 1e-13; the error estimate is
    their difference plus the outermost terms, which bound the truncation.
    """
    a, b, c = p.a, p.b, p.c
    if not c > b > 0.0:
        raise DomainError(f"integral representation needs c > b > 0, got b={b}, c={c}")
    if s >= 1.0:
        raise DomainError("integral representation needs s < 1")
    cb, one_ms = c - b, 1.0 - s

    def pair(x: float) -> Tuple[float, float]:
        # the nodes -x and +x, x >= 0, where u is w and 1 - w; returns the
        # sum of both terms and of |term| (|log term| + 8), which bounds
        # their rounding in units of 2^-53
        q = math.pi * math.sinh(x)
        e = math.exp(-q)
        log_1mw = -math.log1p(e)
        log_w = log_1mw - q
        w = e / (1.0 + e)
        jac = math.log(math.pi * math.cosh(x))
        left = jac + b * log_w + cb * log_1mw - a * math.log1p(-s * w)
        right = jac + b * log_1mw + cb * log_w - a * math.log(one_ms + s * w)
        v_left, v_right = math.exp(left), math.exp(right)
        return v_left + v_right, v_left * (abs(left) + 8.0) + v_right * (abs(right) + 8.0)

    def level_sum(xs) -> Tuple[float, float]:
        terms = [pair(x) for x in xs]
        return math.fsum(t[0] for t in terms), math.fsum(t[1] for t in terms)

    # level 0: h = 1 on the integers; every later level adds the odd
    # multiples of the halved step, so the last node is TS_X_MAX
    v0, r0 = pair(0.0)
    total, rounds = level_sum(float(j) for j in range(1, int(TS_X_MAX) + 1))
    total, rounds = total + 0.5 * v0, rounds + 0.5 * r0
    h, val = 1.0, total
    for _ in range(TS_MAX_LEVEL):
        h *= 0.5
        odd = [j * h for j in range(1, int(TS_X_MAX / h) + 1, 2)]
        add, add_r = level_sum(odd)
        total, rounds = total + add, rounds + add_r
        edge = pair(odd[-1])[0]
        diff, val = abs(h * total - val), h * total
        if diff <= 1e-13 * val:
            break
    _, log_pref, lerr = _gamma_ratio((c,), (b, cb))
    pref = math.exp(log_pref)
    err = pref * (diff + h * edge + _U * h * rounds) + (lerr + 4.0 * _U) * pref * val
    return EvalResult(pref * val, err, 0, Strategy.INTEGRAL_REP)


_SQRT_PI = math.sqrt(math.pi)


def _continued_fraction(b0: float, a, b) -> float:
    """b0 + a(1)/(b(1) + a(2)/(b(2) + ...)) by the modified Lentz method,
    stopped once a step changes the value by less than 2^-53 relative."""
    tiny = 1e-300
    f, c_, d = b0, b0, 0.0
    for i in range(1, MAX_TERMS):
        ai, bi = a(i), b(i)
        d = bi + ai * d
        c_ = bi + ai / c_
        d = 1.0 / (d if d != 0.0 else tiny)
        c_ = c_ if c_ != 0.0 else tiny
        delta = c_ * d
        f *= delta
        if abs(delta - 1.0) <= _U:
            return f
    raise NonConvergenceError(f"continued fraction stalled after {MAX_TERMS} terms")


CF_SWITCH = 1.0  # erfcx and e^x E1(x) take their continued fractions from here on


def _erfc_tail(y: float) -> float:
    """T in sqrt(pi) erfcx(y) = 2y / (2y^2 + 1 - T), the even contraction
    of the Laplace continued fraction (Abramowitz & Stegun 7.1.14):
    T = 1*2 / (2y^2 + 5 - 3*4 / (2y^2 + 9 - ...)), with 0 < T < 2."""
    z = 2.0 * y * y
    return 2.0 / _continued_fraction(z + 5.0, lambda i: -(2.0 * i + 1.0) * (2.0 * i + 2.0),
                                     lambda i: z + 5.0 + 4.0 * i)


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x).

    math.erfc(x) exp(x^2) below CF_SWITCH (+inf once 2 exp(x^2) overflows,
    from x = -26.64 down); beyond it, the continued fraction of _erfc_tail,
    which needs neither exp(x^2), whose rounding grows like x^2, nor erfc,
    which underflows from x = 26.6 on."""
    if x < CF_SWITCH:
        return math.inf if x < -26.64 else math.erfc(x) * math.exp(x * x)
    return 2.0 * x / (_SQRT_PI * (2.0 * x * x + 1.0 - _erfc_tail(x)))


def _expint_scaled(x: float) -> Tuple[float, float]:
    """(g, 1 - x g) for g = e^x E1(x), x > 0.

    Below CF_SWITCH, the series E1 = -gamma - log x - sum_k (-x)^k/(k k!);
    from there on, the even contraction of the continued fraction
    (Abramowitz & Stegun 5.1.22) g = 1 / (x + 1 - T),
    T = 1 / (x + 3 - 2^2 / (x + 5 - 3^2 / ...)), which also gives
    1 - x g = (1 - T) / (x + 1 - T) without cancellation for large x."""
    if x < CF_SWITCH:
        term = total = x
        k = 1
        while abs(term) > _U * abs(total):
            term *= -x * k / ((k + 1.0) * (k + 1.0))
            total += term
            k += 1
        g = math.exp(x) * (-_EULER_GAMMA - math.log(x) + total)
        return g, 1.0 - x * g
    t = 1.0 / _continued_fraction(x + 3.0, lambda i: -(i + 1.0) * (i + 1.0),
                                  lambda i: x + 3.0 + 2.0 * i)
    return 1.0 / (x + 1.0 - t), (1.0 - t) / (x + 1.0 - t)


def laplace_quad(rho: float, power: int, half_weight: bool) -> float:
    """int_0^inf exp(-tau/2) tau^(-1/2 if half_weight) (tau+rho)^(-power) dtau.

    In closed form, with x = rho/2 and y = sqrt(x):
      power 1: e^x E1(x);                  power 2: (1 - x e^x E1(x)) / rho;
      half weight, power 1: pi erfcx(y) / sqrt(rho);
      half weight, power 2, minus the rho-derivative of the power-1 form:
        sqrt(pi) (y - sqrt(pi) erfcx(y) (2x - 1)/2) / (2 sqrt(2) y x).
    Written through the scaled functions, so no factor over- or
    underflows; the differences are taken in cancellation-free form once
    the continued fractions apply.
    """
    if not rho > 0.0:
        raise DomainError("rho must be positive")
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    x = 0.5 * rho
    if not half_weight:
        g, one_m_xg = _expint_scaled(x)
        return g if power == 1 else one_m_xg / rho
    y = math.sqrt(x)
    if power == 1:
        return math.pi * erfcx(y) / math.sqrt(rho)
    if y < CF_SWITCH:
        bracket = y - _SQRT_PI * erfcx(y) * (2.0 * x - 1.0) / 2.0
    else:
        t = _erfc_tail(y)
        bracket = y * (2.0 - t) / (2.0 * x + 1.0 - t)
    return _SQRT_PI * bracket / (2.0 * math.sqrt(2.0) * y) / x  # +inf once it overflows
