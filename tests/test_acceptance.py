"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The reference-table t-column check is expected to fail on five unflagged
cells: the printed reference values there disagree with recomputation
(confirmed independently at 40-digit precision, and by the fact that the
reference's own lambda1 column is reproduced only from the recomputed
roots).  The assertion is kept at its stated tolerance regardless; see
test_c01_table_t_column.
"""

import math
import time

import numpy as np
import pytest

from conelab import reference
from conelab.checks import (
    estimate_z0,
    limit_profile_u,
    overshoot_check,
    phi_c_eval,
    root_bound_check,
    run_suites,
    verify_barrier,
)
from conelab.cone import (
    ConeParams,
    Verdict,
    check_4_minus_n,
    find_root,
    indicial_roots,
    verdict,
)
from conelab.specfun import laplace_quad
from oracles import fd_oracle_lambda1, find_eigenvalue


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# shared eigen table for n = 7..20, all k, computed once
_EIGEN_CACHE = {}


def eigen_row(n: int, k: int):
    key = (n, k)
    if key not in _EIGEN_CACHE:
        pars = ConeParams(n, k)
        root = find_root(pars)
        _EIGEN_CACHE[key] = (root, find_eigenvalue(pars, root))
    return _EIGEN_CACHE[key]


class TestC01Table1:
    def test_c01_runtime_and_lambda_gamma_columns(self):
        tic = time.time()
        bad = []
        for (n, k, t_ref, nl_ref, ng_ref) in reference.reference_rows():
            root, eig = eigen_row(n, k)
            if ("neg_lambda1", n, k) not in reference.FLAGGED_ENTRIES:
                if abs(-eig.lam - nl_ref) > reference.TOL_LAMBDA:
                    bad.append(f"lambda1({n},{k}): {-eig.lam:.4f} vs {nl_ref}")
            if ("neg_gamma_plus", n, k) not in reference.FLAGGED_ENTRIES:
                if abs(-eig.gamma_plus - ng_ref) > reference.TOL_GAMMA:
                    bad.append(f"gamma_plus({n},{k}): {-eig.gamma_plus:.4f} vs {ng_ref}")
        elapsed = time.time() - tic
        ok = not bad and elapsed <= 60.0
        report("1 (lambda/gamma columns, runtime)", ok,
               f"45 cells in {elapsed:.1f}s; deviations: {bad or 'none'}")
        assert ok, bad

    def test_c01_flagged_entries_self_consistent(self):
        r96 = find_root(ConeParams(9, 6))
        ok_t = abs(r96.t_nk - math.sqrt(6.0 / 7.0)) <= 1e-10
        _, eig = eigen_row(10, 8)
        want = -(10 - 2) / 2.0 + math.sqrt(((10 - 2) / 2.0) ** 2 + eig.lam)
        ok_g = abs(eig.gamma_plus - want) <= 1e-10
        report("1 (flagged entries)", ok_t and ok_g,
               f"t(9,6) = {r96.t_nk:.10f} vs sqrt(6/7); "
               f"gamma_plus(10,8) self-consistency dev {abs(eig.gamma_plus - want):.2e}")
        assert ok_t and ok_g

    def test_c01_table_t_column(self):
        # stated tolerance +-0.01 on every unflagged t cell; the printed
        # reference is wrong on five of them (see module docstring), so
        # this check reports FAIL by design of the reference data
        bad = []
        for (n, k, t_ref, _, _) in reference.reference_rows():
            if ("t", n, k) in reference.FLAGGED_ENTRIES:
                continue
            root, _ = eigen_row(n, k)
            if abs(root.t_nk - t_ref) > reference.TOL_T:
                bad.append(f"t({n},{k}): computed {root.t_nk:.4f} vs printed {t_ref}")
        report("1 (t column)", not bad,
               f"unflagged t deviations beyond 0.01: {bad or 'none'}")
        assert not bad, ("printed reference t column disagrees with "
                         "recomputation on unflagged cells: " + "; ".join(bad))


class TestC02ClosedFormRoots:
    def test_c02(self):
        worst = 0.0
        for n in range(7, 31):
            r = find_root(ConeParams(n, n - 3))
            worst = max(worst, abs(r.t_nk - math.sqrt((n - 3.0) / (n - 2.0))))
        ok = worst <= 1e-10
        report("2 (closed-form roots)", ok, f"max |t - sqrt((n-3)/(n-2))| = {worst:.2e}")
        assert ok


class TestC03Verdicts:
    def test_c03(self):
        unstable = [(n, k) for n in range(3, 7) for k in range(1, n - 1)]
        assert len(unstable) == 10
        bad = []
        for (n, k) in unstable:
            p = ConeParams(n, k)
            if verdict(p, find_root(p)).verdict is not Verdict.UNSTABLE:
                bad.append((n, k))
        for n in range(7, 13):
            for k in range(1, n - 1):
                p = ConeParams(n, k)
                if verdict(p, find_root(p)).verdict is not Verdict.STRICTLY_STABLE:
                    bad.append((n, k))
        report("3 (verdicts)", not bad, f"10 unstable + 45 stable cones; wrong: {bad or 'none'}")
        assert not bad


class TestC04SubsolutionMargin:
    def test_c04(self):
        pars = [ConeParams(7, k) for k in range(1, 6)]
        margins = [check_4_minus_n(p, find_root(p))[1] for p in pars]
        ok7 = min(margins) > 3e-2
        bad = []
        for n in range(7, 21):
            for k in range(1, n - 1):
                p = ConeParams(n, k)
                ok, _ = check_4_minus_n(p, find_root(p))
                if not ok:
                    bad.append((n, k))
        ok_all = ok7 and not bad
        report("4 (subsolution margin)", ok_all,
               f"min margin at n=7: {min(margins):.5f} > 0.03; inadmissible cells: {bad or 'none'}")
        assert ok_all


class TestC05IntervalDuality:
    def test_c05(self):
        worst_endpoint = 0.0
        worst_mid = 0.0
        for n in range(7, 16):
            for k in range(1, n - 1):
                pars = ConeParams(n, k)
                root, eig = eigen_row(n, k)
                lo, hi = indicial_roots(verdict(pars, root).lambda1, n)
                worst_endpoint = max(worst_endpoint,
                                     abs(lo - eig.gamma_minus),
                                     abs(hi - eig.gamma_plus))
                worst_mid = max(worst_mid, abs(lo + hi - (2.0 - n)))
        ok = worst_endpoint <= 1e-6 and worst_mid <= 1e-8
        report("5 (interval/spectrum duality)", ok,
               f"max endpoint dev {worst_endpoint:.2e} (tol 1e-6), "
               f"max midpoint dev {worst_mid:.2e} (tol 1e-8)")
        assert ok


class TestC06FirstEigenvalueBounds:
    def test_c06(self):
        bad = []
        for n in range(7, 21):
            for k in range(1, n - 1):
                _, eig = eigen_row(n, k)
                if not (eig.lam > 8.0 - 2.0 * n):
                    bad.append(f"lambda1({n},{k})")
                if not (2.0 - n < eig.gamma_minus < 4.0 - n):
                    bad.append(f"gamma_minus({n},{k})")
                if not (-2.0 < eig.gamma_plus < 0.0):
                    bad.append(f"gamma_plus({n},{k})")
        report("6 (eigenvalue and decay bounds)", not bad,
               f"n = 7..20, all k; violations: {bad or 'none'}")
        assert not bad


class TestC07ConjectureEvidence:
    def test_c07(self):
        bad = []
        gbar, lbar = [], []
        for n in range(7, 16):
            lams = []
            for k in range(1, n - 1):
                _, eig = eigen_row(n, k)
                lams.append(eig.lam)
            if not all(b > a for a, b in zip(lams, lams[1:])):
                bad.append(f"lambda1 not increasing in k at n={n}")
            _, eig_top = eigen_row(n, n - 2)
            lbar.append(eig_top.lam)
            gbar.append(eig_top.gamma_plus)
        if not all(b < a for a, b in zip(lbar, lbar[1:])):
            bad.append("family maximum eigenvalue not strictly decreasing in n")
        if not all(b > a for a, b in zip(gbar, gbar[1:])):
            bad.append("family slow decay rate not strictly increasing in n")
        if not all(-2.0 < g < -1.0 for g in gbar):
            bad.append("family slow decay rate leaves (-2, -1)")
        report("7 (conjecture evidence)", not bad,
               f"n = 7..15; violations: {bad or 'none'}; "
               f"gamma_bar(7) = {gbar[0]:.4f}")
        assert not bad


class TestC08OracleEquivalence:
    def test_c08(self):
        worst = 0.0
        for (n, k) in [(7, 1), (7, 5), (9, 4), (12, 6), (15, 13)]:
            pars = ConeParams(n, k)
            root, eig = eigen_row(n, k)
            l1 = fd_oracle_lambda1(pars, root, grid_n=2000)
            l2 = fd_oracle_lambda1(pars, root, grid_n=4000)
            rich = (4.0 * l2 - l1) / 3.0
            worst = max(worst, abs(rich - eig.lam) / abs(eig.lam))
        ok = worst <= 1e-4
        report("8 (shooting vs finite-difference oracle)", ok,
               f"max Richardson relative deviation {worst:.2e} (tol 1e-4)")
        assert ok


class TestC09SpecialFunctionCrossValidation:
    def test_c09(self):
        records = {r.name: r for r in run_suites(["specfun"])}
        r_int = records["series_vs_integral_200"]
        r_ode = records["euler_ode_residual_60"]
        ok = r_int.passed and r_ode.passed
        report("9 (special-function cross-validation)", ok,
               f"{r_int.detail}; {r_ode.detail}")
        assert ok


class TestC10ThresholdBattery:
    def test_c10(self):
        checks = [
            ("phi_{3/5}(7/8) > 91/1090", phi_c_eval(7 / 8, 3 / 5) > 91 / 1090),
            ("phi_{2/5}(9/10) > 1/10", phi_c_eval(9 / 10, 2 / 5) > 1 / 10),
            ("phi_{9/25}(15/16) > 91/1000", phi_c_eval(15 / 16, 9 / 25) > 91 / 1000),
            ("case III > 3/20",
             laplace_quad(0.25, 2, False) / laplace_quad(0.25, 1, False)
             - 0.75 / 0.5 > 3 / 20),
            ("case IV > 7/5",
             2 * laplace_quad(1.1, 2, True) / laplace_quad(1.1, 1, True) > 7 / 5),
            ("u(0) = sqrt(2/pi) +- 1e-12",
             abs(limit_profile_u(0.0) - math.sqrt(2 / math.pi)) <= 1e-12),
        ]
        bad = [name for name, ok in checks if not ok]
        report("10 (threshold battery)", not bad, f"violations: {bad or 'none'}")
        assert not bad


class TestC11AsymptoticRoots:
    def test_c11(self):
        sample = []
        for n in (60, 100, 200):
            for frac in (0.34, 0.45, 0.55, 0.7, 0.8, 0.87, 0.89, 0.91, 0.93):
                k = round(frac * n)
                if 1.0 / 3.0 <= k / n <= 15.0 / 16.0 and (n, k) not in sample:
                    sample.append((n, k))
        sample = sample[:27]
        assert len(sample) >= 20
        bad = [f"({n},{k})" for (n, k) in sample
               if not root_bound_check(ConeParams(n, k))]
        for n in (60, 80, 100):
            for k in range(int(math.ceil(n / 2)), n - 11):
                if not overshoot_check(ConeParams(n, k)):
                    bad.append(f"overshoot({n},{k})")
        z0 = estimate_z0(2000, 0.5)
        if not 0.74 <= z0 <= 0.80:
            bad.append(f"z0 = {z0}")
        report("11 (asymptotic root estimates)", not bad,
               f"{len(sample)} bound cells + overshoot band + z0 = {z0:.4f}; "
               f"violations: {bad or 'none'}")
        assert not bad


class TestC12BarrierVerification:
    def test_c12(self):
        bad = []
        deltas = []
        for n in (96, 200, 400):
            for d in (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 40):
                pars = ConeParams(n, n - d)
                rep = verify_barrier(pars)
                if d < 12:  # the small-d barrier
                    deltas.append(rep.delta)
                    if not rep.delta > 101.0 / 100.0:
                        bad.append(f"Delta({n},{d})")
                if n >= 5 * d:
                    if not rep.passed:
                        bad.append(f"barrier({n},{d})")
                else:
                    # outside the jump-comparison range the remaining
                    # certificates must still hold
                    if not (rep.max_residual_linear < 0.0
                            and rep.max_residual_curved < 0.0
                            and rep.min_L_minus_phi >= -1e-9
                            and rep.L_at_s_star > 0.0):
                        bad.append(f"barrier_partial({n},{d})")
        report("12 (barrier verification)", not bad,
               f"36 cells; min Delta = {min(deltas):.4f} > 1.01; "
               f"violations: {bad or 'none'}")
        assert not bad
