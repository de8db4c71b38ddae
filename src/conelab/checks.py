"""Invariant batteries behind the `verify` command, and what they
check: the Riccati form of the stability criterion, cross-checked against
one shot of the link ODE; the asymptotic bounds of the large-n lemmas
(the root bounds, the boundary-layer limit profile, the threshold
function phi_c and the overshoot bound); and the two-piece comparison
barriers that carry positivity of L up to the free-boundary root for
alpha = 4 - n.  Of the commands only `verify` loads this module.

Each suite returns CheckRecord entries, and a failed check is a record
with passed False, so one pass reports every failed check; a suite that
raises a library error instead ends `verify` with exit 2 and no report.
Randomized draws use a fixed seed: identical invocations produce
identical reports.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from conelab._backend import barrier_residual, robin_shoot
from conelab.cone import (ConeParams, L_direct, check_4_minus_n, find_root, profile_g,
                          profile_params, refined_terminal_point, stability_margin)
from conelab.errors import (IntegrationFailure, PoleEncounteredError, RangeUnsupported,
                            VariantUnavailableError)
from conelab.specfun import (
    HypParams,
    digamma,
    erfcx,
    hyp2f1,
    hyp2f1_deriv,
    hyp2f1_integral,
    laplace_quad,
)

__all__ = ["CheckRecord", "SUITES", "run_suites", "alpha_hat", "P_poly", "L_cross_check",
           "root_bound_check", "limit_profile_u", "estimate_z0", "phi_c_eval",
           "overshoot_forms", "overshoot_check", "overshoot_terminal_point",
           "BarrierReport", "barrier_phi", "linear_root_relation", "verify_barrier"]

SEED = 20260214


class CheckRecord(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str


def _rec(suite: str, name: str, passed: bool, detail: str) -> CheckRecord:
    return CheckRecord(suite=suite, name=name, passed=bool(passed), detail=detail)


def _linspace(lo: float, hi: float, m: int) -> List[float]:
    return [lo + (hi - lo) * i / (m - 1) for i in range(m)]


def _digamma_log_margins(x0: float) -> Tuple[float, float]:
    """Smallest margins of log(x - 1/2) < psi(x) < log(x) on 100 points
    from x0 to 1e3, clustered toward x0."""
    xs = [x0 + (1000.0 - x0) * (i / 99.0) ** 2 for i in range(100)]
    return (min(digamma(x) - math.log(x - 0.5) for x in xs),
            min(math.log(x) - digamma(x) for x in xs))


# ---------------------------------------------------------------------- specfun

def specfun_suite() -> List[CheckRecord]:
    out: List[CheckRecord] = []
    rng = random.Random(SEED)

    # series vs Euler-integral oracle on 200 admissible draws
    worst = 0.0
    for _ in range(200):
        b = rng.uniform(0.2, 4.0)
        c = b + rng.uniform(0.2, 4.0)
        a = rng.uniform(-2.0, 5.0)
        s = rng.uniform(0.0, 0.95)
        hp = HypParams(a, b, c)
        f = hyp2f1(hp, s).value
        g = hyp2f1_integral(hp, s).value
        worst = max(worst, abs(f - g) / max(1.0, abs(f)))
    out.append(_rec("specfun", "series_vs_integral_200",
                    worst <= 1e-9, f"max rel dev {worst:.3e} (tol 1e-9)"))

    # defining-equation residual on the same kind of draws
    worst = 0.0
    for _ in range(60):
        b = rng.uniform(-1.0, 4.0)
        c = rng.uniform(0.3, 5.0)
        a = rng.uniform(-2.0, 5.0)
        s = rng.uniform(0.02, 0.93)
        hp = HypParams(a, b, c)
        F = hyp2f1(hp, s).value
        F1 = hyp2f1_deriv(hp, s, 1).value
        F2 = hyp2f1_deriv(hp, s, 2).value
        t1 = s * (1.0 - s) * F2
        t2 = (c - (a + b + 1.0) * s) * F1
        t3 = a * b * F
        scale = max(1.0, abs(t1), abs(t2), abs(t3))
        worst = max(worst, abs(t1 + t2 - t3) / scale)
    out.append(_rec("specfun", "euler_ode_residual_60",
                    worst <= 1e-8, f"max scaled residual {worst:.3e} (tol 1e-8)"))

    # analytic derivative vs central difference at 50 points
    worst = 0.0
    for _ in range(50):
        b = rng.uniform(-1.0, 3.0)
        c = rng.uniform(0.4, 4.0)
        a = rng.uniform(-1.0, 4.0)
        s = rng.uniform(0.02, 0.9)
        hp = HypParams(a, b, c)
        h = 1e-6 * max(1.0, abs(s))
        fd = (hyp2f1(hp, s + h).value - hyp2f1(hp, s - h).value) / (2.0 * h)
        an = hyp2f1_deriv(hp, s, 1).value
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    out.append(_rec("specfun", "derivative_vs_central_difference_50",
                    worst <= 1e-6, f"max rel dev {worst:.3e} (tol 1e-6)"))

    # with b = -1/2 every derivative is negative on (0, 1)
    ok = True
    worst_val = -math.inf
    for _ in range(25):
        a = rng.uniform(0.3, 8.0)
        c = rng.uniform(0.4, 6.0)
        s = rng.uniform(0.02, 0.97)
        for m in (1, 2, 3):
            v = hyp2f1_deriv(HypParams(a, -0.5, c), s, m).value
            worst_val = max(worst_val, v)
            ok = ok and v < 0.0
    out.append(_rec("specfun", "all_derivatives_negative_for_b_mhalf",
                    ok, f"max derivative {worst_val:.3e} (must be < 0)"))

    # digamma bracketed by logs on (1/2, 1e3]
    lo, hi = _digamma_log_margins(0.55)
    out.append(_rec("specfun", "digamma_log_bounds_100",
                    lo > 0.0 and hi > 0.0,
                    f"min margins {lo:.3e}, {hi:.3e} (must be > 0)"))
    return out


# ---------------------------------------------------------------------- riccati

# The log-derivative L(s) of cone.L_direct solves the quadratic ODE
#
#     2 s (1-s) L' + L^2 + (n s - k) L + P(s) = 0,
#     P(s) = (n - 2k) s + ahat s (1-s) + (k-1),        ahat = alpha (alpha+n-2);
#
# L_cross_check compares L with one shot of the mode-(0,0) link ODE (the
# radial equation of the link eigenvalue problem, whose regular solution at
# lambda = ahat is the profile).

ODE_S_MAX = 1.0 - 1e-6  # the s = 1 end of the link ODE is singular again
T_LAUNCH = 1e-6  # axis offset of the series launch of the link ODE
ODE_TOL = 1e-11  # local error tolerance of the link-ODE integrator
CROSS_CHECK_POINTS = 33  # grid of the L_cross_check trace


def alpha_hat(p: ConeParams, alpha: float) -> float:
    return alpha * (alpha + p.n - 2.0)


def P_poly(p: ConeParams, ahat: float, s: float) -> float:
    """P(s) = (n-2k) s + ahat s (1-s) + (k-1), evaluated exactly."""
    return (p.n - 2.0 * p.k) * s + ahat * s * (1.0 - s) + (p.k - 1.0)


def _L_ode_trace(p: ConeParams, alpha: float, grid) -> list:
    """L at the increasing points s of grid from the mode-(0,0) link ODE

        (1-t^2) Phi'' + ((k-1)/t - (n-1) t) Phi' + lambda Phi = 0

    at lambda = ahat: the regular solution Phi(t), s = t^2, is the profile,
    so L = t (1-s) Phi'/Phi - (n-2) s + (k-1).  One integration, carried
    from point to point, starts at T_LAUNCH from the series
    Phi = 1 + c2 t^2 + c4 t^4, which also gives the points at or below
    T_LAUNCH.  Raises PoleEncounteredError when Phi vanishes by a grid
    point, IntegrationFailure on a step collapse."""
    n, k, lam = float(p.n), float(p.k), alpha_hat(p, alpha)
    c2 = -lam / (2.0 * k)
    c4 = c2 * (2.0 * n - lam) / (4.0 * (k + 2.0))

    def launch(t: float) -> Tuple[float, float]:
        return 1.0 + c2 * t * t + c4 * t ** 4, 2.0 * c2 * t + 4.0 * c4 * t ** 3

    t0, zeros, out = T_LAUNCH, 0, []
    u, v = launch(t0)
    # resolve the local oscillation scale so step-wise sign counting is exact
    max_step = min(0.25 / math.sqrt(1.0 + abs(lam)), (math.sqrt(grid[-1]) - T_LAUNCH) / 16.0)
    for s in grid:
        t = math.sqrt(s)
        if t <= T_LAUNCH:
            phi, dphi = launch(t)
        else:
            u, v, z, ok = robin_shoot(u, v, t0, t, n, k, lam, 0.0, 0.0,
                                      ODE_TOL, 1e-300, max_step, 2_000_000)
            if not ok:
                raise IntegrationFailure(f"shooting step collapse before t={t} at "
                                         f"(n,k)=({p.n},{p.k}), lambda={lam}")
            t0, zeros, phi, dphi = t, zeros + z, u, v
        if zeros or phi == 0.0:
            raise PoleEncounteredError(f"profile vanishes {'before' if zeros else 'at'} s={s} "
                                       f"for alpha={alpha}, (n,k)=({p.n},{p.k})")
        out.append(t * (1.0 - s) * dphi / phi - (n - 2.0) * s + (k - 1.0))
    return out


def L_cross_check(p: ConeParams, alpha: float,
                  s: float) -> Tuple[List[float], List[float], List[float], float]:
    """(grid, direct, ode, discrepancy): L on a grid of [0, s] from the
    profile (cone.L_direct) and from one chained shot of the link ODE, with
    their largest difference; the grid stops at ODE_S_MAX."""
    if not s < 1.0:
        raise ValueError("s must be below 1")
    s_end = min(s, ODE_S_MAX)
    grid = [s_end * i / (CROSS_CHECK_POINTS - 1) for i in range(CROSS_CHECK_POINTS)]
    direct = L_direct(p, alpha, grid)
    ode = _L_ode_trace(p, alpha, grid)
    return grid, direct, ode, max(abs(a - b) for a, b in zip(direct, ode))


def riccati_suite() -> List[CheckRecord]:
    out: List[CheckRecord] = []
    rng = random.Random(SEED + 1)

    # Direct vs integrated log-derivative on 30 random cones
    worst = 0.0
    exact0 = True
    for _ in range(30):
        n = rng.randrange(5, 21)
        k = rng.randrange(1, n - 1)
        alpha = rng.uniform(2.0 - n + 0.2, -0.2)
        pars = ConeParams(n, k)
        s_end = find_root(pars).s_nk
        _, direct, _, disc = L_cross_check(pars, alpha, s_end)
        scale = 1.0 + max(abs(v) for v in direct)
        worst = max(worst, disc / scale)
        exact0 = exact0 and direct[0] == float(k - 1)
    out.append(_rec("riccati", "direct_vs_ode_30",
                    worst <= 1e-7, f"max scaled discrepancy {worst:.3e} (tol 1e-7)"))
    out.append(_rec("riccati", "initial_value_exact",
                    exact0, "L(0) = k-1 exactly on all draws"))

    # boundary limit L -> -1 at s -> 1; the approach rate is (1-s)^((d-2)/2)
    # (logarithmic at d = 2), so the 1e-3 window needs d >= 4
    worst = 0.0
    for (n, k, alpha) in [(7, 3, -2.5), (10, 5, -4.0), (13, 9, -6.0), (9, 1, -3.5)]:
        val = L_direct(ConeParams(n, k), alpha, (1.0 - 1e-6,))[0]
        worst = max(worst, abs(val + 1.0))
    out.append(_rec("riccati", "limit_at_one",
                    worst <= 1e-3, f"max |L(1-1e-6) + 1| = {worst:.3e} (tol 1e-3)"))

    # at most one sign change of L on (0, 1)
    ok = True
    for _ in range(12):
        n = rng.randrange(5, 18)
        k = rng.randrange(1, n - 1)
        alpha = rng.uniform(2.0 - n + 0.3, -0.3)
        pars = ConeParams(n, k)
        vals = L_direct(pars, alpha, _linspace(1e-4, 0.999, 250))
        changes = sum((a < 0.0 < b) or (b < 0.0 < a) for a, b in zip(vals, vals[1:]))
        ok = ok and changes <= 1
    out.append(_rec("riccati", "at_most_one_sign_change",
                    ok, "grid sign count <= 1 on 12 draws"))

    # quadratic ODE residual of Direct values with finite-difference L'
    worst = 0.0
    h = 1e-5
    for (n, k, alpha) in [(8, 4, -3.0), (11, 6, -5.0), (15, 13, -7.5)]:
        pars = ConeParams(n, k)
        ah = alpha_hat(pars, alpha)
        grid = _linspace(0.05, 0.85, 20)
        vals = L_direct(pars, alpha, [x for s in grid for x in (s + h, s - h, s)])
        for s, L_plus, L_minus, L in zip(grid, vals[::3], vals[1::3], vals[2::3]):
            lp = (L_plus - L_minus) / (2 * h)
            res = (2.0 * s * (1.0 - s) * lp + L * L + (n * s - k) * L
                   + P_poly(pars, ah, s))
            scale = max(1.0, abs(L * L), abs((n * s - k) * L))
            worst = max(worst, abs(res) / scale)
    out.append(_rec("riccati", "riccati_residual_fd",
                    worst <= 1e-6, f"max scaled residual {worst:.3e} (tol 1e-6)"))

    # subsolution exponent margins
    margins7 = []
    all_ok = True
    for n in range(7, 21):
        for k in range(1, n - 1):
            pars = ConeParams(n, k)
            ok_nk, margin = check_4_minus_n(pars, find_root(pars))
            all_ok = all_ok and ok_nk
            if n == 7:
                margins7.append(margin)
    out.append(_rec("riccati", "l7k_margin_above_3em2",
                    min(margins7) > 3e-2,
                    f"min L_(7,k)(s_(7,k)) = {min(margins7):.5f} (must exceed 0.03)"))
    out.append(_rec("riccati", "exponent_4mn_admissible_n7_20",
                    all_ok, "L(s_(n,k)) > 0 at the subsolution exponent, n = 7..20"))
    return out


# ----------------------------------------------------------------------- lemmas

def root_bound_check(pars: ConeParams) -> bool:
    """s_{n,k} < k/n + c/sqrt(n) with c in {3/5, 2/5, 9/25} on the three
    ratio sub-intervals; requires n >= 60 and k/n in [1/3, 15/16]."""
    n, k = pars.n, pars.k
    ratio = k / n
    if n < 60 or not (1.0 / 3.0 - 1e-12 <= ratio <= 15.0 / 16.0 + 1e-12):
        raise RangeUnsupported(
            f"root bound needs n >= 60 and k/n in [1/3, 15/16], got (n,k)=({n},{k})")
    c = 3.0 / 5.0 if ratio <= 7.0 / 8.0 else 2.0 / 5.0 if ratio <= 9.0 / 10.0 else 9.0 / 25.0
    return find_root(pars).s_nk < ratio + c / math.sqrt(n)


def limit_profile_u(xi: float) -> float:
    """Boundary-layer limit profile u(xi) = exp(-xi^2/2) / int_{-inf}^{xi}
    exp(-r^2/2) dr; solves u' + u^2 + xi u = 0 with u ~ -xi at -inf.

    Written through the scaled complement erfcx so numerator and
    denominator never underflow together in the far left tail."""
    return 1.0 / (math.sqrt(math.pi / 2.0) * erfcx(-xi / math.sqrt(2.0)))


def estimate_z0(n_large: int, lam: float) -> float:
    """Finite-n estimator of the universal first zero of the rescaled limit
    equation: (s_{n,k} - k/n) sqrt(n) / sqrt(2 (k/n)(1 - k/n)) at
    k = round(lam n)."""
    if n_large < 500:
        raise RangeUnsupported("estimator needs n >= 500")
    if not 1.0 / 3.0 - 1e-12 <= lam <= 15.0 / 16.0 + 1e-12:
        raise RangeUnsupported("lam must lie in [1/3, 15/16]")
    k = round(lam * n_large)
    pars = ConeParams(n_large, k)
    s = find_root(pars).s_nk
    ratio = k / n_large
    return (s - ratio) * math.sqrt(n_large) / math.sqrt(2.0 * ratio * (1.0 - ratio))


def phi_c_eval(lam: float, c: float) -> float:
    """Threshold function phi_c(lam) = 2 lam (1-lam)
    exp(-c^2/(4 lam (1-lam))) / int_{-inf}^{c} exp(-r^2/(4 lam (1-lam))) dr,
    which is sd u(c/sd) for sd = sqrt(2 lam (1-lam)) (substitute r = sd x)."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    sd = math.sqrt(2.0 * lam * (1.0 - lam))
    return sd * limit_profile_u(c / sd)


def overshoot_forms(pars: ConeParams, s: float) -> Tuple[bool, bool]:
    """The overshoot bound at s in its two equivalent forms: s < k/n or
    (n s - k)^2 < 2 n (1 - s), and s < k/n or s < overshoot_terminal_point.
    Both are strict, so at the terminal point itself both fail."""
    n, k = pars.n, pars.k
    return (s < k / n or (n * s - k) ** 2 < 2.0 * n * (1.0 - s),
            s < k / n or s < overshoot_terminal_point(pars))


def overshoot_check(pars: ConeParams) -> bool:
    """The quadratic form of overshoot_forms at s_{n,k}, for
    n/2 <= k <= n-12.  For the band n-11 <= k <= n-4 (and n >= 16 d),
    s_{n,k} < refined_terminal_point, read as f < 0 there outside its
    err_estimate: find_root's root lies below that point by construction."""
    n, k = pars.n, pars.k
    if n / 2.0 <= k <= n - 12:
        return overshoot_forms(pars, find_root(pars).s_nk)[0]
    if n - 11 <= k <= n - 4 and n >= 16 * pars.d:
        F = hyp2f1(profile_params(pars, 1.0), refined_terminal_point(pars))
        return F.value < -F.err_estimate
    raise RangeUnsupported(
        f"overshoot bound needs n/2 <= k <= n-12, or n-11 <= k <= n-4 with "
        f"n >= 16 d; got (n,k)=({n},{k})")


def lemmas_suite() -> List[CheckRecord]:
    out: List[CheckRecord] = []

    def constant(name: str, computed: float, relation: str, claimed: float) -> None:
        passed = computed > claimed if relation == ">" else computed < claimed
        out.append(_rec("lemmas", f"constants.{name}", passed,
                        f"{computed:.6g} {relation} {claimed:.6g}"))

    # displayed constants of the proofs: log(x - 1/2) < psi(x) < log(x),
    # sampled on (1/2, 1e3], and special values of psi
    lower_margin, upper_margin = _digamma_log_margins(0.6)
    constant("digamma_lower_bound", lower_margin, ">", 0.0)
    constant("digamma_upper_bound", upper_margin, ">", 0.0)
    constant("digamma_at_3_lower", digamma(3.0), ">", math.log(2.5))
    constant("digamma_at_3_upper", digamma(3.0), "<", math.log(3.0))
    euler_gamma = 0.5772156649015328606
    constant("digamma_at_1", abs(digamma(1.0) + euler_gamma), "<", 1e-14)
    constant("digamma_at_half",
             abs(digamma(0.5) + euler_gamma + 2.0 * math.log(2.0)), "<", 1e-13)
    constant("digamma_reflection_mhalf",
             abs(digamma(-0.5) - digamma(0.5) - 2.0), "<", 1e-13)

    # profile positivity g_{n,k,alpha} > 0 on [0, t_{n,k}] for alpha in (1-n, 1)
    g_min = math.inf
    for (n, k) in [(5, 2), (7, 1), (9, 4), (12, 10), (15, 7)]:
        pars = ConeParams(n, k)
        t_nk = find_root(pars).t_nk
        for frac_a in (0.05, 0.3, 0.5, 0.7, 0.95):
            alpha = (1.0 - n) + frac_a * (1.0 - (1.0 - n))
            for j in range(21):
                g_min = min(g_min, profile_g(pars, alpha, t_nk * j / 21.0))
    constant("profile_positive_on_root_interval", g_min, ">", 0.0)

    # axisymmetric edge case: margin at alpha = 4-n exceeds 5e-2 for n = 7..10
    m_min = math.inf
    for n in range(7, 11):
        pars = ConeParams(n, 1)
        m_min = min(m_min, stability_margin(pars, 4.0 - n, find_root(pars)))
    constant("axisymmetric_edge_margin", m_min, ">", 5e-2)

    # the exponential bound of the jump comparison, and u(0) = sqrt(2/pi)
    constant("exp_105_bound", math.exp(1.05), "<", 2.9)
    constant("u_at_zero", abs(limit_profile_u(0.0) - math.sqrt(2.0 / math.pi)), "<", 1e-12)

    # root estimates on a 19-cell sample across the three ratio bands
    sample = []
    for n in (60, 100, 200):
        for frac in (0.34, 0.5, 0.7, 0.86, 0.89, 0.92, 0.9375):
            k = round(frac * n)
            if 1.0 / 3.0 <= k / n <= 15.0 / 16.0:
                sample.append((n, k))
    fails = [f"({n},{k})" for (n, k) in sample if not root_bound_check(ConeParams(n, k))]
    out.append(_rec("lemmas", "root_sqrt_bounds_sample",
                    not fails, f"{len(sample)} cells; failures: {fails or 'none'}"))

    # overshoot disjunction over the full admissible band
    fails = []
    total = 0
    for n in (60, 80, 100):
        for k in range(int(math.ceil(n / 2)), n - 11):
            total += 1
            if not overshoot_check(ConeParams(n, k)):
                fails.append(f"({n},{k})")
    out.append(_rec("lemmas", "overshoot_disjunction",
                    not fails, f"{total} cells; failures: {fails or 'none'}"))

    # the refined band n-11 <= k <= n-4, where n >= 16 d holds for every d
    cells = [(n, n - d) for n in (200, 400) for d in range(11, 3, -1)]
    fails = [f"({n},{k})" for (n, k) in cells if not overshoot_check(ConeParams(n, k))]
    out.append(_rec("lemmas", "overshoot_refined_band",
                    not fails, f"{len(cells)} cells; failures: {fails or 'none'}"))

    # quadratic and terminal-point forms agree
    rng = random.Random(SEED + 2)
    ok = True
    for _ in range(20):
        n = rng.randrange(60, 140)
        k = rng.randrange(n // 2 + 1, n - 11)
        pars = ConeParams(n, k)
        quad_ok, star_ok = overshoot_forms(pars, find_root(pars).s_nk)
        ok = ok and (quad_ok == star_ok)
    out.append(_rec("lemmas", "overshoot_form_equivalence",
                    ok, "quadratic and terminal-point forms agree on 20 draws"))

    # boundary-layer first-zero estimator
    z0 = estimate_z0(2000, 0.5)
    out.append(_rec("lemmas", "z0_estimate_window",
                    0.74 <= z0 <= 0.80, f"z0(2000, 1/2) = {z0:.5f} (window [0.74, 0.80])"))
    za, zb = estimate_z0(2000, 1.0 / 3.0), estimate_z0(2000, 2.0 / 3.0)
    out.append(_rec("lemmas", "z0_ratio_independence",
                    abs(za - zb) <= 0.02, f"|{za:.4f} - {zb:.4f}| <= 0.02"))
    ladder = [estimate_z0(m, 0.5) for m in (500, 1000)] + [z0]
    drift = max(abs(a - b) for a, b in zip(ladder, ladder[1:]))
    out.append(_rec("lemmas", "z0_ladder_convergence",
                    drift <= 0.02, f"ladder {['%.4f' % z for z in ladder]}, drift {drift:.4f}"))

    # threshold battery
    thr = [
        ("phi_35_at_78", phi_c_eval(7 / 8, 3 / 5), 91 / 1090),
        ("phi_25_at_910", phi_c_eval(9 / 10, 2 / 5), 1 / 10),
        ("phi_925_at_1516", phi_c_eval(15 / 16, 9 / 25), 91 / 1000),
    ]
    for name, got, bound in thr:
        out.append(_rec("lemmas", f"threshold.{name}", got > bound,
                        f"{got:.6f} > {bound:.6f}"))
    case3 = (laplace_quad(0.25, 2, False) / laplace_quad(0.25, 1, False)
             - (1.0 - 0.25) / (2.0 * 0.25))
    out.append(_rec("lemmas", "threshold.case3_ratio", case3 > 3 / 20,
                    f"{case3:.6f} > 0.15"))
    case4 = 2.0 * laplace_quad(1.1, 2, True) / laplace_quad(1.1, 1, True)
    out.append(_rec("lemmas", "threshold.case4_ratio", case4 > 7 / 5,
                    f"{case4:.6f} > 1.4"))

    # positivity and sampled continuity of the threshold function
    rng = random.Random(SEED + 3)
    pos = True
    lip = 0.0
    for _ in range(60):
        lam = rng.uniform(0.05, 0.95)
        c = rng.uniform(-1.0, 1.5)
        v = phi_c_eval(lam, c)
        pos = pos and v > 0.0
        h = 1e-5
        v2 = phi_c_eval(lam + h, c + h)
        lip = max(lip, abs(v2 - v) / (2 * h))
    out.append(_rec("lemmas", "phi_c_positive_and_lipschitz",
                    pos and lip < 1e3, f"positive on 60 draws; max slope {lip:.3g}"))
    return out


# --------------------------------------------------------------------- barriers
# for alpha = 4 - n, where ahat = 2(4-n) and
# P(s) = (k-1) + (8-n-2k) s + 2(n-4) s^2; the sign of L at the root itself
# is cone.check_4_minus_n

BARRIER_GRID = 512  # Chebyshev points per smooth barrier piece


class BarrierReport(NamedTuple):
    s_star: float
    delta: float
    max_residual_linear: float
    max_residual_curved: float
    jump_left: float
    jump_right: float
    min_L_minus_phi: float
    L_at_s_star: float
    comparison_passed: bool
    passed: bool


def overshoot_terminal_point(pars: ConeParams) -> float:
    """The equivalent terminal-point form 1 - (d+1-sqrt(2d+1))/n of the
    overshoot bound."""
    d = pars.d
    return 1.0 - (d + 1.0 - math.sqrt(2.0 * d + 1.0)) / pars.n


def barrier_phi(p: ConeParams) -> Tuple[float, Tuple[float, float], float,
                                        Callable[[float], float]]:
    """Two-piece Riccati subsolution for alpha = 4-n, as
    (s_star, (r_minus, r_plus), Delta, phi).

    The linear piece (k-1) - (n-4) s lives on [0, k/n); on [k/n, s_star]
    the barrier solves the majorized terminal equation
    2s(1-s) phi' + phi^2 + B phi + C = 0 with phi(s_star) = 0, whose
    closed form through the roots r+- of r^2 + B r + C, of discriminant
    Delta = B^2 - 4C, is

        phi = r+ r- (Q^(sqrt(Delta)/2) - 1) / (r+ Q^(sqrt(Delta)/2) - r-).

    The large-d variant (d >= 12) ends at overshoot_terminal_point and
    uses B = sqrt(2d+1)-1, C = B-1; the small-d variant (6 <= d <= 11)
    ends at the refined terminal point, where B = n s_star - k = A + 1/2
    exactly and C = P(s_star), and needs Delta > 1.
    """
    n, k, d = p.n, p.k, p.d
    A = math.sqrt(2.0 * d + 1.0) - 1.0
    if d >= 12:
        s_star = overshoot_terminal_point(p)
        B = A
        C = A - 1.0
    elif d >= 6:
        s_star = refined_terminal_point(p)
        B = n * s_star - k  # equals A + 1/2
        C = P_poly(p, 2.0 * (4.0 - n), s_star)
    else:
        raise VariantUnavailableError(
            f"only the linear barrier exists for d={d} (need d >= 6)")
    delta = B * B - 4.0 * C
    if d < 12 and delta <= 1.0:
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

    return s_star, (r_minus, r_plus), delta, phi


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
    at k/n, jump_left > jump_right (passed).  The curved piece's residual
    over its BARRIER_GRID points runs in the barrier_residual kernel; the
    linear piece, the jump, the L - phi sample and the payoff stay here.
    """
    s_star, roots, delta, phi = barrier_phi(p)
    n, k = float(p.n), float(p.k)

    def cheb(lo: float, hi: float, js) -> List[float]:
        """Points j of the BARRIER_GRID-point Chebyshev grid of [lo, hi]."""
        return [lo + (hi - lo) * 0.5 * (1.0 - math.cos(math.pi * j / (BARRIER_GRID - 1)))
                for j in js]

    alpha = 4.0 - p.n

    # The residual vanishes identically at s = 0, and at s = s_star in the
    # refined variant (terminal condition), so both grids stay strictly
    # inside those endpoints.
    # linear piece: R[phi] telescopes to 2 s (k - n + 4) exactly, which is
    # monotone in s, so its largest value on the grid is at an end
    lin_lo, lin_hi = k / n * 1e-9, k / n * (1.0 - 1e-12)
    res_lin = max(2.0 * s * (k - n + 4.0) for s in cheb(lin_lo, lin_hi, (0, BARRIER_GRID - 1)))
    # curved piece: R[phi] = (ns - k - B) phi + (P(s) - C), by the kernel
    s_end = s_star - (s_star - k / n) * 1e-9
    res_cur = barrier_residual(n, k, s_star, roots[0], roots[1], delta, s_end, BARRIER_GRID)

    jump_left = 4.0 * k / n - 1.0
    jump_right = phi(k / n)

    every = range(0, BARRIER_GRID, BARRIER_GRID // 64)
    sample = cheb(lin_lo, lin_hi, every) + cheb(k / n, s_end, every)
    *L_sample, L_star = L_direct(p, alpha, sample + [s_star])
    l_minus_phi = min(L - phi(s) for s, L in zip(sample, L_sample))

    comparison_passed = (res_lin < 0.0 and res_cur < 0.0
                         and l_minus_phi >= -1e-9 and L_star > 0.0)
    return BarrierReport(s_star=s_star, delta=delta,
                         max_residual_linear=res_lin,
                         max_residual_curved=res_cur,
                         jump_left=jump_left, jump_right=jump_right,
                         min_L_minus_phi=l_minus_phi,
                         L_at_s_star=L_star, comparison_passed=comparison_passed,
                         passed=comparison_passed and jump_left > jump_right)


BARRIER_D = (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 40)
BARRIER_N = (96, 200, 400)


def barriers_suite() -> List[CheckRecord]:
    out: List[CheckRecord] = []
    skipped = []
    gaps = []  # (s* - s_nk, n, k): positivity reaches the root only below s*
    for n in BARRIER_N:
        for d in BARRIER_D:
            pars = ConeParams(n, n - d)
            rep = verify_barrier(pars)
            gaps.append((rep.s_star - find_root(pars).s_nk, n, n - d))
            applicable = n >= 5 * d
            name = f"barrier_n{n}_d{d}"
            if applicable:
                out.append(_rec("barriers", name, rep.passed,
                                f"res<0: ({rep.max_residual_linear:.2e},"
                                f"{rep.max_residual_curved:.2e}); jump "
                                f"{rep.jump_left:.3f}->{rep.jump_right:.3f}; "
                                f"min L-phi {rep.min_L_minus_phi:.2e}; "
                                f"L(s*) = {rep.L_at_s_star:.4f}"))
            else:
                # outside the jump comparison range; require the pieces that
                # remain meaningful there
                jump = "ok" if rep.jump_left > rep.jump_right else "reversed"
                skipped.append(f"{name}(jump={jump})")
                out.append(_rec("barriers", name + "_partial", rep.comparison_passed,
                                "n < 5d: residuals, comparison and payoff only; "
                                f"L(s*) = {rep.L_at_s_star:.4f}"))
            if d < 12:  # the small-d barrier, which needs Delta > 1
                out.append(_rec("barriers", f"delta_n{n}_d{d}", rep.delta > 101.0 / 100.0,
                                f"Delta = {rep.delta:.4f} > 1.01"))
    if skipped:
        out.append(_rec("barriers", "jump_range_note", True,
                        "pairs outside the n >= 5d jump range: " + ", ".join(skipped)))
    gap, n, k = min(gaps)
    out.append(_rec("barriers", "root_below_terminal_point", gap > 0.0,
                    f"s_nk < s* at {len(gaps)} cells; smallest gap {gap:.3e} at ({n},{k})"))

    for n in (12, 20, 64, 200):
        s_star, lin_zero, ok = linear_root_relation(ConeParams(n, n - 4))
        out.append(_rec("barriers", f"linear_d4_n{n}", ok,
                        f"s* = {s_star:.5f} <= linear zero {lin_zero:.5f}"))
    for n in (64, 100, 200):
        s_star, lin_zero, ok = linear_root_relation(ConeParams(n, n - 5))
        out.append(_rec("barriers", f"linear_d5_n{n}", ok,
                        f"s* = {s_star:.5f} <= linear zero {lin_zero:.5f}"))
    return out


SUITES: Dict[str, Callable[[], List[CheckRecord]]] = {
    "specfun": specfun_suite,
    "riccati": riccati_suite,
    "lemmas": lemmas_suite,
    "barriers": barriers_suite,
}


def run_suites(names: Sequence[str]) -> List[CheckRecord]:
    records: List[CheckRecord] = []
    for name in names:
        records.extend(SUITES[name]())
    return records
