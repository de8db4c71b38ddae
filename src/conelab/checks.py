"""Invariant batteries behind the `verify` command.

Each suite returns CheckRecord entries; a record never raises, so a
broken build reports every failure in one pass.  Randomized draws use a
fixed seed: identical invocations produce identical reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from conelab import lemmas, riccati
from conelab.cone import ConeParams, L_direct, find_root
from conelab.riccati import (
    BarrierVariant,
    L_cross_check,
    check_4_minus_n,
    linear_root_relation,
    verify_barrier,
)
from conelab.specfun import (
    HypParams,
    digamma,
    hyp2f1,
    hyp2f1_deriv,
    hyp2f1_integral,
    laplace_quad,
)

__all__ = ["CheckRecord", "SUITES", "run_suites"]

SEED = 20260214


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    name: str
    passed: bool
    detail: str


def _rec(suite: str, name: str, passed: bool, detail: str) -> CheckRecord:
    return CheckRecord(suite=suite, name=name, passed=bool(passed), detail=detail)


def _linspace(lo: float, hi: float, m: int) -> List[float]:
    return [lo + (hi - lo) * i / (m - 1) for i in range(m)]


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
    xs = [0.55 + (1000.0 - 0.55) * (i / 99.0) ** 2 for i in range(100)]
    lo = min(digamma(x) - math.log(x - 0.5) for x in xs)
    hi = min(math.log(x) - digamma(x) for x in xs)
    out.append(_rec("specfun", "digamma_log_bounds_100",
                    lo > 0.0 and hi > 0.0,
                    f"min margins {lo:.3e}, {hi:.3e} (must be > 0)"))
    return out


# ---------------------------------------------------------------------- riccati

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
        tr = L_cross_check(pars, alpha, s_end)
        scale = 1.0 + max(abs(v) for v in tr.values_direct)
        worst = max(worst, tr.max_discrepancy / scale)
        exact0 = exact0 and tr.values_direct[0] == float(k - 1)
    out.append(_rec("riccati", "direct_vs_ode_30",
                    worst <= 1e-7, f"max scaled discrepancy {worst:.3e} (tol 1e-7)"))
    out.append(_rec("riccati", "initial_value_exact",
                    exact0, "L(0) = k-1 exactly on all draws"))

    # boundary limit L -> -1 at s -> 1; the approach rate is (1-s)^((d-2)/2)
    # (logarithmic at d = 2), so the 1e-3 window needs d >= 4
    worst = 0.0
    for (n, k, alpha) in [(7, 3, -2.5), (10, 5, -4.0), (13, 9, -6.0), (9, 1, -3.5)]:
        val = L_direct(ConeParams(n, k), alpha, 1.0 - 1e-6)
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
        vals = [L_direct(pars, alpha, s) for s in _linspace(1e-4, 0.999, 250)]
        changes = sum((a < 0.0 < b) or (b < 0.0 < a) for a, b in zip(vals, vals[1:]))
        ok = ok and changes <= 1
    out.append(_rec("riccati", "at_most_one_sign_change",
                    ok, "grid sign count <= 1 on 12 draws"))

    # quadratic ODE residual of Direct values with finite-difference L'
    worst = 0.0
    for (n, k, alpha) in [(8, 4, -3.0), (11, 6, -5.0), (15, 13, -7.5)]:
        pars = ConeParams(n, k)
        ah = riccati.alpha_hat(pars, alpha)
        for s in _linspace(0.05, 0.85, 20):
            h = 1e-5
            lp = (L_direct(pars, alpha, s + h) - L_direct(pars, alpha, s - h)) / (2 * h)
            L = L_direct(pars, alpha, s)
            res = (2.0 * s * (1.0 - s) * lp + L * L + (n * s - k) * L
                   + riccati.P_poly(pars, ah, s))
            scale = max(1.0, abs(L * L), abs((n * s - k) * L))
            worst = max(worst, abs(res) / scale)
    out.append(_rec("riccati", "riccati_residual_fd",
                    worst <= 1e-6, f"max scaled residual {worst:.3e} (tol 1e-6)"))

    # subsolution exponent margins
    margins7 = []
    for k in range(1, 6):
        pars = ConeParams(7, k)
        margins7.append(check_4_minus_n(pars, find_root(pars))[1])
    out.append(_rec("riccati", "l7k_margin_above_3em2",
                    min(margins7) > 3e-2,
                    f"min L_(7,k)(s_(7,k)) = {min(margins7):.5f} (must exceed 0.03)"))
    all_ok = True
    for n in range(7, 21):
        for k in range(1, n - 1):
            pars = ConeParams(n, k)
            ok_nk, _ = check_4_minus_n(pars, find_root(pars))
            all_ok = all_ok and ok_nk
    out.append(_rec("riccati", "exponent_4mn_admissible_n7_20",
                    all_ok, "L(s_(n,k)) > 0 at the subsolution exponent, n = 7..20"))
    return out


# ----------------------------------------------------------------------- lemmas

def lemmas_suite() -> List[CheckRecord]:
    out: List[CheckRecord] = []

    for chk in lemmas.proof_constants_check():
        out.append(_rec("lemmas", f"constants.{chk.name}", chk.passed,
                        f"{chk.computed:.6g} {chk.relation} {chk.claimed:.6g}"))

    # root estimates on a 20-point sample across the three ratio bands
    sample = []
    for n in (60, 100, 200):
        for frac in (0.34, 0.5, 0.7, 0.86, 0.89, 0.92, 0.9375):
            k = round(frac * n)
            if 1.0 / 3.0 <= k / n <= 15.0 / 16.0:
                sample.append((n, k))
    sample = sample[:20]
    fails = [f"({n},{k})" for (n, k) in sample
             if not lemmas.root_bound_check(ConeParams(n, k)).passed]
    out.append(_rec("lemmas", "root_sqrt_bounds_sample",
                    not fails, f"{len(sample)} cells; failures: {fails or 'none'}"))

    # overshoot disjunction over the full admissible band
    fails = []
    total = 0
    for n in (60, 80, 100):
        for k in range(int(math.ceil(n / 2)), n - 11):
            total += 1
            if not lemmas.overshoot_check(ConeParams(n, k)).passed:
                fails.append(f"({n},{k})")
    out.append(_rec("lemmas", "overshoot_disjunction",
                    not fails, f"{total} cells; failures: {fails or 'none'}"))

    # quadratic and terminal-point forms agree
    rng = random.Random(SEED + 2)
    ok = True
    for _ in range(20):
        n = rng.randrange(60, 140)
        k = rng.randrange(n // 2 + 1, n - 11)
        pars = ConeParams(n, k)
        s = find_root(pars).s_nk
        quad_ok = (n * s - k) ** 2 <= 2.0 * n * (1.0 - s) or s < k / n
        star_ok = s < lemmas.overshoot_terminal_point(pars) or s < k / n
        ok = ok and (quad_ok == star_ok)
    out.append(_rec("lemmas", "overshoot_form_equivalence",
                    ok, "quadratic and terminal-point forms agree on 20 draws"))

    # boundary-layer first-zero estimator
    z0 = lemmas.estimate_z0(2000, 0.5)
    out.append(_rec("lemmas", "z0_estimate_window",
                    0.74 <= z0 <= 0.80, f"z0(2000, 1/2) = {z0:.5f} (window [0.74, 0.80])"))
    za, zb = lemmas.estimate_z0(2000, 1.0 / 3.0), lemmas.estimate_z0(2000, 2.0 / 3.0)
    out.append(_rec("lemmas", "z0_ratio_independence",
                    abs(za - zb) <= 0.02, f"|{za:.4f} - {zb:.4f}| <= 0.02"))
    ladder = [lemmas.estimate_z0(m, 0.5) for m in (500, 1000, 2000)]
    drift = max(abs(a - b) for a, b in zip(ladder, ladder[1:]))
    out.append(_rec("lemmas", "z0_ladder_convergence",
                    drift <= 0.02, f"ladder {['%.4f' % z for z in ladder]}, drift {drift:.4f}"))

    # threshold battery
    thr = [
        ("phi_35_at_78", lemmas.phi_c_eval(7 / 8, 3 / 5), 91 / 1090),
        ("phi_25_at_910", lemmas.phi_c_eval(9 / 10, 2 / 5), 1 / 10),
        ("phi_925_at_1516", lemmas.phi_c_eval(15 / 16, 9 / 25), 91 / 1000),
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
        v = lemmas.phi_c_eval(lam, c)
        pos = pos and v > 0.0
        h = 1e-5
        v2 = lemmas.phi_c_eval(lam + h, c + h)
        lip = max(lip, abs(v2 - v) / (2 * h))
    out.append(_rec("lemmas", "phi_c_positive_and_lipschitz",
                    pos and lip < 1e3, f"positive on 60 draws; max slope {lip:.3g}"))
    return out


# --------------------------------------------------------------------- barriers

BARRIER_D = (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 40)
BARRIER_N = (96, 200, 400)


def barriers_suite() -> List[CheckRecord]:
    out: List[CheckRecord] = []
    skipped = []
    for n in BARRIER_N:
        for d in BARRIER_D:
            pars = ConeParams(n, n - d)
            rep = verify_barrier(pars)
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
                skipped.append(f"{name}(jump={'ok' if rep.jump_decreasing else 'reversed'})")
                out.append(_rec("barriers", name + "_partial", rep.comparison_passed,
                                "n < 5d: residuals, comparison and payoff only; "
                                f"L(s*) = {rep.L_at_s_star:.4f}"))
            if rep.spec.variant is BarrierVariant.SMALL_D:
                out.append(_rec("barriers", f"delta_n{n}_d{d}",
                                rep.spec.delta > 101.0 / 100.0,
                                f"Delta = {rep.spec.delta:.4f} > 1.01"))
    if skipped:
        out.append(_rec("barriers", "jump_range_note", True,
                        "pairs outside the n >= 5d jump range: " + ", ".join(skipped)))

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
