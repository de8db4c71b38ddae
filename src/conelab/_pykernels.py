"""Pure-Python fallback for the compiled kernels (conelab._kernels).

Mirrors the C source (_kernels.c) statement for statement so the two
backends produce the same floating-point results; keep the two in sync.
Squares are written as products: Python's x ** 2 calls pow(), which can
differ from x * x in the last bit.
"""

from math import fabs, inf, sqrt

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
    j >= i.  Infinite when no such q below 1 is found."""
    if c + i <= 0.0:
        return inf
    q = fabs(s) * min(_ratio_sup(a, c, i) * _ratio_sup(b, 1.0, i),
                      _ratio_sup(a, 1.0, i) * _ratio_sup(b, c, i))
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
            return (total, 1.12e-16 * rounds, m + 1, True)
        tol = max(abs_tol, rel_tol * fabs(total))
        if fabs(term) <= tol:
            ratio_next = (a + m + 1.0) * (b + m + 1.0) / ((c + m + 1.0) * (m + 2.0)) * s
            nxt = fabs(term * ratio_next)
            if nxt <= tol:
                return (total, _tail_bound(a, b, c, s, m + 2.0, nxt) + 1.12e-16 * rounds,
                        m + 1, True)
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
