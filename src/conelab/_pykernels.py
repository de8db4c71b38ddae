"""Pure-Python fallback for the compiled kernels (conelab._kernels): the
hypergeometric series, the Robin shooting integrator, the continued
fraction of the log-derivative L, the tanh-sinh terms of the Euler
integral, the curved residual of the comparison barrier and the
package's root solver.

Mirrors the C source (_kernels.c) statement for statement so the two
backends produce the same floating-point results; keep the two in sync.
Squares are written as products: Python's x ** 2 calls pow(), which can
differ from x * x in the last bit.
"""

from math import cos, cosh, exp, fabs, inf, isfinite, log, log1p, pi, sinh, sqrt, ulp

BACKEND = "python"


def _ratio_sup(x, y, i):
    """Supremum of |x + j| / (y + j) over j >= i, for y + i > 0."""
    d = x - y
    if d < 0.0 and x + i >= 0.0:
        d = 0.0
    return 1.0 + fabs(d) / (y + i)


def _tail_bound(a, b, c, s, i, nxt):
    """Bound nxt / (1 - q) on the series tail whose first term, of size nxt,
    has index i; q bounds the term ratio |s| (a+j)(b+j) / ((c+j)(j+1)) over
    j >= i, by the smaller of two products of factor suprema and the joint
    ratio 1 + ((a+b-c-1) j + ab - c) / ((c+j)(1+j)).  Infinite when no such
    q below 1 is found."""
    if c + i <= 0.0:
        return inf
    q = fabs(s) * min(_ratio_sup(a, c, i) * _ratio_sup(b, 1.0, i),
                      _ratio_sup(a, 1.0, i) * _ratio_sup(b, c, i),
                      1.0 + fabs(a + b - c - 1.0) / (c + i)
                      + fabs(a * b - c) / ((c + i) * (1.0 + i)))
    if q >= 1.0:
        return inf
    return nxt / (1.0 - q)


def hyp2f1_series(a, b, c, s, rel_tol, abs_tol, max_terms):
    """Sum the Gauss series sum_m (a)_m (b)_m / ((c)_m m!) s^m.

    Compensated (Kahan) accumulation; stops once the current term and the
    predicted next term both clear the tolerance, which avoids premature
    exits when a Pochhammer factor passes near zero.

    The error estimate is a first-order bound: the m-th term has been
    through 8m roundings and the compensated sum adds two per term, so
    `rounds` sums |term| times its rounding count, in units of 2^-53
    (1.12e-16 leaves 1% for higher orders); the truncated tail adds a
    geometric bound, infinite when the term ratio cannot be bounded below 1.
    An overflowed total clears every tolerance, so a total that is not
    finite is never converged.

    Returns (value, err_estimate, terms_used, converged).
    """
    term = 1.0
    total = 1.0
    comp = 0.0
    rounds = 2.0
    if s == 0.0:
        return (1.0, 0.0, 0, True)
    for m in range(max_terms):
        term = term * ((a + m) * (b + m) / ((c + m) * (m + 1.0)) * s)
        y = term - comp
        tnew = total + y
        comp = (tnew - total) - y
        total = tnew
        rounds += (8.0 * m + 10.0) * fabs(term)
        if term == 0.0:
            return (total, 1.12e-16 * rounds, m + 1, isfinite(total))
        tol = max(abs_tol, rel_tol * fabs(total))
        if fabs(term) <= tol:
            ratio_next = (a + m + 1.0) * (b + m + 1.0) / ((c + m + 1.0) * (m + 2.0)) * s
            nxt = fabs(term * ratio_next)
            if nxt <= tol:
                return (total, _tail_bound(a, b, c, s, m + 2.0, nxt) + 1.12e-16 * rounds,
                        m + 1, isfinite(total))
    return (total, fabs(term) + 1.12e-16 * rounds, max_terms, False)


# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63 = 9017 / 3168, -355 / 33, 46732 / 5247
_A64, _A65 = 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4 = 71 / 57600, -71 / 16695, 71 / 1920
_E5, _E6, _E7 = -17253 / 339200, 22 / 525, -1 / 40


def _rhs(t, u, v, n, k, lam, p2, q2):
    omt2 = 1.0 - t * t
    du = v
    dv = -(((k - 1.0) / t - (n - 1.0) * t) * v
           + (lam - p2 / omt2 - q2 / (t * t)) * u) / omt2
    return du, dv


def robin_shoot(u0, v0, t_start, t_end, n, k, lam, p2, q2,
                rtol, atol, max_step, max_steps):
    """Integrate the link eigenvalue ODE from the series launch point to the
    free boundary, counting interior sign changes of the solution.

    State is renormalized whenever it grows large; only the projective class
    of (u, v) matters for the log-derivative and the zero count, so this is
    a phase-type representation with no overflow poles.

    Returns (u_end, v_end, zeros, ok).
    """
    t, u, v = t_start, u0, v0
    h = min(max_step, (t_end - t_start) * 0.01)
    zeros = 0
    steps = 0
    last = False
    if h <= 0.0:
        return (u, v, 0, True)
    k1u, k1v = _rhs(t, u, v, n, k, lam, p2, q2)
    while steps < max_steps:
        steps += 1
        if t + h >= t_end:
            h = t_end - t
            last = True
        k2u, k2v = _rhs(t + _C2 * h, u + h * _A21 * k1u, v + h * _A21 * k1v,
                        n, k, lam, p2, q2)
        k3u, k3v = _rhs(t + _C3 * h, u + h * (_A31 * k1u + _A32 * k2u),
                        v + h * (_A31 * k1v + _A32 * k2v), n, k, lam, p2, q2)
        k4u, k4v = _rhs(t + _C4 * h, u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u),
                        v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v),
                        n, k, lam, p2, q2)
        k5u, k5v = _rhs(t + _C5 * h,
                        u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u),
                        v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v),
                        n, k, lam, p2, q2)
        k6u, k6v = _rhs(t + h,
                        u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u
                                 + _A64 * k4u + _A65 * k5u),
                        v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v
                                 + _A64 * k4v + _A65 * k5v),
                        n, k, lam, p2, q2)
        un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        k7u, k7v = _rhs(t + h, un, vn, n, k, lam, p2, q2)
        eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u
                  + _E6 * k6u + _E7 * k7u)
        ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v
                  + _E6 * k6v + _E7 * k7v)
        sc_u = atol + rtol * max(fabs(u), fabs(un))
        sc_v = atol + rtol * max(fabs(v), fabs(vn))
        err = sqrt(0.5 * ((eu / sc_u) * (eu / sc_u) + (ev / sc_v) * (ev / sc_v)))
        if err <= 1.0:
            u_prev = u
            t += h
            u = un
            v = vn
            k1u, k1v = k7u, k7v
            if ((u_prev > 0.0 and u < 0.0) or (u_prev < 0.0 and u > 0.0)
                    or (u == 0.0 and u_prev != 0.0)):
                zeros += 1
            if last or t >= t_end:
                return (u, v, zeros, True)
            scale = max(fabs(u), fabs(v))
            if scale > 1e50:
                u /= scale
                v /= scale
                k1u /= scale
                k1v /= scale
        else:
            last = False
        fac = 0.9 * max(err, 1e-10) ** -0.2
        if fac < 0.2:
            fac = 0.2
        elif fac > 5.0:
            fac = 5.0
        h *= fac
        if h > max_step:
            h = max_step
        if h < 1e-14 * (t_end - t_start):
            return (u, v, zeros, False)
    return (u, v, zeros, False)


_TINY = 1e-300  # stands in for a level's exact zero denominator (Lentz's device)


def L_fraction(A, B, c, k, ss, cf_tol, max_terms):
    """L = (k-1) - ks + 2(1-s) sAB / (c/R - sB) at each s of the grid ss,
    with R = 1/(1 - k1 s/(1 - k2 s/...)) Gauss's continued fraction for
    F(A+1, B+1; c+1; s) / F(A+1, B; c; s) (DLMF 15.7.5).  A and B are both
    floats or both complex (the conjugate pair; the real part of L is
    returned); the levels k_j are shared by the grid.

    Evaluated backward from a depth 2N, with the fixed point of the
    levels' limit u = 1/(1 - su/4) as tail; the same pass gives L's
    first-order change from a cut at N, and L at 2N is taken once that is
    at most cf_tol max(1, |L|), else N grows as the limit contraction
    rho = (1-sqrt(1-s))/(1+sqrt(1-s)) asks, by half at least.  s = 0 gives
    L = k-1 exactly.  Needs c > 0, cf_tol > 0 and every s in [0, 1), as
    cone.L_direct ensures.

    Returns (Ls, None), or (Ls so far, (s, L, levels)) at the first point
    whose fraction would need more than max_terms levels.
    """
    a1, b1 = c - B - 1.0, c - A - 1.0  # a - 1 and b - 1
    ks = []  # k_1, k_2, ... of R, shared by the grid

    def cut(s, half):
        """(L cut at depth 2 half, |its first-order change if cut at half|)."""
        for i in range(len(ks) // 2 + 1, half + 1):
            x = c + 2.0 * i
            ks.append((A + i) * (a1 + i) / ((x - 2.0) * (x - 1.0)))
            ks.append((B + i) * (b1 + i) / ((x - 1.0) * x))
        u = w = 2.0 * (1.0 - sqrt(1.0 - s)) / s
        for kj in ks[2 * half - 1:half - 1:-1]:
            u = 1.0 / ((1.0 - s * kj * u) or _TINY)
        gap, slope = u - w, 1.0  # slope: du / du(level half + 1), down to level 2
        for kj in ks[half - 1:0:-1]:
            kz = s * kj
            u = 1.0 / ((1.0 - kz * u) or _TINY)
            slope *= kz * u * u
        den = c * (1.0 - s * ks[0] * u) - s * B
        x = 2.0 * (1.0 - s) * s * A * B / den
        return (k - 1.0) - k * s + x, abs(gap * slope * x * c * s * ks[0] / den)

    out = []
    for s in ss:
        L, half = k - 1.0, 4
        q = sqrt(1.0 - s)
        while s > 0.0:  # L(0) = k-1 exactly
            L, change = cut(s, half)
            target = cf_tol * max(1.0, abs(L))
            if change <= target:
                break
            more = log(change / target) / -log(max((1.0 - q) / (1.0 + q), _TINY))
            half = max(half + half // 2, half + 1 + int(more if more < max_terms else max_terms))
            if 2 * half > max_terms:
                return out, (s, L.real, 2 * half)
        out.append(L.real)
    return out, None


def ts_terms(a, b, cb, s, xs):
    """Tanh-sinh terms of the Euler integral of 2F1(a, b; b + cb; s) at the
    nodes -x and +x of each x >= 0 in xs, where u = (1 + tanh(pi/2 sinh x))/2
    is w and 1 - w, w = 1/(1 + exp(pi sinh x)): the integrand
    pi cosh x u^b (1-u)^cb (1-us)^(-a) at both, taken through logarithms so
    neither end cancels.

    Returns (values, weights): per x the sum of both terms, and the sum of
    |term| (|log term| + 8), which bounds their rounding in units of 2^-53.
    Raises as the math module does where a libm call leaves its range.
    """
    one_ms = 1.0 - s
    values, weights = [], []
    for x in xs:
        q = pi * sinh(x)
        e = exp(-q)
        log_1mw = -log1p(e)
        log_w = log_1mw - q
        w = e / (1.0 + e)
        jac = log(pi * cosh(x))
        left = jac + b * log_w + cb * log_1mw - a * log1p(-s * w)
        right = jac + b * log_1mw + cb * log_w - a * log(one_ms + s * w)
        v_left, v_right = exp(left), exp(right)
        values.append(v_left + v_right)
        weights.append(v_left * (abs(left) + 8.0) + v_right * (abs(right) + 8.0))
    return values, weights


def barrier_residual(n, k, s_star, r_minus, r_plus, delta, s_end, grid):
    """Largest R[phi] = (ns - k - B) phi(s) + P(s) - C over the grid-point
    Chebyshev grid of [k/n, s_end], for the curved piece of the comparison
    barrier at alpha = 4 - n: B = -(r- + r+) and C = r- r+, the
    P(s) = (n-2k) s + ahat s (1-s) + (k-1) of ahat = 2(4-n), and
    phi = r+ r- (Q - 1) / (r+ Q - r-), Q = (q0 (1-s)/s)^(sqrt(delta)/2),
    q0 = s_star / (1 - s_star).  Needs 0 < k/n <= s_end < s_star < 1, as
    checks.verify_barrier ensures, and grid >= 2 (else ValueError).
    """
    if grid < 2:
        raise ValueError(f"barrier grid needs 2 points or more, got {grid}")
    B = -(r_minus + r_plus)
    C = r_minus * r_plus
    q0 = s_star / (1.0 - s_star)
    expo = 0.5 * sqrt(delta)
    ahat = 2.0 * (4.0 - n)
    lo = k / n
    best = 0.0
    for j in range(grid):
        s = lo + (s_end - lo) * 0.5 * (1.0 - cos(pi * j / (grid - 1)))
        qs = (q0 * (1.0 - s) / s) ** expo
        phi = r_plus * r_minus * (qs - 1.0) / (r_plus * qs - r_minus)
        res = (n * s - k - B) * phi + ((n - 2.0 * k) * s + ahat * s * (1.0 - s) + (k - 1.0)) - C
        if j == 0 or res > best:
            best = res
    return best


ROOT_F_TOL = 1e-12  # end |f| at which illinois stops instead of bisecting


def illinois(f, lo, f_lo, hi, f_hi, series=None):
    """Shrink a bracket lo < hi of a root of the scalar function f, where
    f_lo = f(lo) > 0 >= f_hi = f(hi); the one root solver of the package,
    for cone.find_root's root in s and cone.verdict's lambda_1.

    Regula falsi of Illinois type (Dowell & Jarratt, BIT 11, 1971) with
    Anderson & Bjoerck's weight (BIT 13, 1973): an end kept twice in a row
    has its weight multiplied by m = 1 - f(x)/f(prev), f(prev) the value at
    the end the step replaces, or by 1/2 if m <= 0.  A step not strictly
    inside (lo, hi), non-finite or rounded onto an end, bisects unless an
    end's |f| is at most ROOT_F_TOL: on a steep bracket the rounded step
    says nothing of the root.  So does the fifth step since the bracket
    last halved its width, Brent's guaranteed shrink (Algorithms for
    Minimization without Derivatives, 1973, ch. 4): a bracket flat on one
    side and steep on the other cannot stall the weighted chord.  Stops at
    that ROOT_F_TOL end, at an exact zero or at a bracket of at most 4
    ulps, and returns (x, |f(x)|, lo, hi): the final end x with the smaller
    |f|, its unweighted |f|, and the final bracket.

    series, when given, is specfun.series_span(a, b, c) of
    f = 2F1(a, b; c; .), the tuple (a, b, c, s_full, s_cut, rel_tol,
    abs_tol, full_terms, cut_terms): at a step x with -1 < x <= s_cut the
    kernel sums the Gauss series itself, with full_terms terms up to s_full
    and cut_terms beyond, and calls f only where that sum does not
    converge.  So f = 2F1 is summed in the kernel wherever specfun's router
    would sum it, with the router's values, and f's other routes and
    errors stay f's.  f is called at every step outside the span, and at
    every step when series is None.  What f raises passes through.
    """
    if series is not None:
        a, b, c, s_full, s_cut, rel_tol, abs_tol, full_terms, cut_terms = series
    w_lo = w_hi = 1.0
    f_prev = 0.0  # f at the previous step's point, an end; 0.0 before the first step
    width, slow = hi - lo, 0  # the width when the bracket last halved; steps since
    while f_hi < 0.0 and hi - lo > 4.0 * max(ulp(lo), ulp(hi)):
        g_lo, g_hi = w_lo * f_lo, w_hi * f_hi
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < x < hi:
            if min(f_lo, -f_hi) <= ROOT_F_TOL:
                break
            x = 0.5 * (lo + hi)
        elif slow == 4:
            x = 0.5 * (lo + hi)
        ok = False
        if series is not None and -1.0 < x <= s_cut:
            f_x, _, _, ok = hyp2f1_series(a, b, c, x, rel_tol, abs_tol,
                                          full_terms if x <= s_full else cut_terms)
        if not ok:
            f_x = f(x)
        m = 1.0
        if f_prev != 0.0 and (f_x > 0.0) == (f_prev > 0.0):  # the same end replaced again
            m = 1.0 - f_x / f_prev
            m = m if m > 0.0 else 0.5
        if f_x > 0.0:
            lo, f_lo, w_lo, w_hi = x, f_x, 1.0, w_hi * m
        else:
            hi, f_hi, w_hi, w_lo = x, f_x, 1.0, w_lo * m
        f_prev = f_x
        slow += 1
        if hi - lo <= 0.5 * width:
            width, slow = hi - lo, 0
    return (lo, f_lo, lo, hi) if f_lo < -f_hi else (hi, -f_hi, lo, hi)
