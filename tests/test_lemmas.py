"""Asymptotic bound harness tests."""

import math

import numpy as np
import pytest

from conelab.cone import ConeParams, find_root
from conelab.errors import RangeUnsupported
from conelab.lemmas import (
    BoundCheck,
    estimate_z0,
    limit_profile_u,
    overshoot_check,
    overshoot_terminal_point,
    phi_c_eval,
    proof_constants_check,
    root_bound_check,
)


class TestBoundCheck:
    def test_relation_semantics(self):
        assert BoundCheck("a", {}, 1.0, 2.0, ">").passed
        assert not BoundCheck("a", {}, 1.0, 0.5, ">").passed
        assert BoundCheck("a", {}, 1.0, 0.5, "<").passed
        with pytest.raises(ValueError):
            BoundCheck("a", {}, 1.0, 0.5, ">=")


class TestRootBound:
    def test_half_ratio(self):
        chk = root_bound_check(ConeParams(60, 30))
        assert chk.passed
        assert chk.claimed == 0.5 + 3.0 / (5.0 * math.sqrt(60))

    def test_high_ratio_band(self):
        chk = root_bound_check(ConeParams(64, 57))
        assert chk.passed and chk.parameters["c"] == 2.0 / 5.0

    def test_top_band(self):
        chk = root_bound_check(ConeParams(96, 88))
        assert chk.passed and chk.parameters["c"] == 9.0 / 25.0

    def test_range_guard(self):
        with pytest.raises(RangeUnsupported):
            root_bound_check(ConeParams(50, 25))
        with pytest.raises(RangeUnsupported):
            root_bound_check(ConeParams(60, 10))


class TestLimitProfile:
    def test_value_at_zero(self):
        assert abs(limit_profile_u(0.0) - math.sqrt(2.0 / math.pi)) < 1e-12

    def test_riccati_identity_at_zero(self):
        # u' = -u^2 - xi u, so u'(0) = -u(0)^2 = -2/pi
        h = 1e-6
        up = (limit_profile_u(h) - limit_profile_u(-h)) / (2.0 * h)
        assert math.isclose(up, -2.0 / math.pi, rel_tol=1e-8)

    def test_left_asymptote(self):
        # u(xi) + xi = -1/xi + O(xi^-3): the deviation at xi = -8 is 0.121,
        # shrinking like 1/|xi| along the ladder
        for xi in (-8.0, -16.0, -64.0, -1024.0):
            dev = limit_profile_u(xi) + xi
            assert abs(dev) <= 1.05 / abs(xi)
            assert abs(dev + 1.0 / xi) <= 3.0 / abs(xi) ** 3

    def test_against_scipy_erfcx(self):
        # xi in [-40, 40] puts -xi/sqrt(2) on both sides of the switch from
        # erfc(x) exp(x^2) to the continued fraction, and past the overflow
        # of exp(x^2), where u is 0 (or subnormal)
        from scipy.special import erfcx
        for i in range(-4000, 4001, 7):
            xi = i / 100.0
            want = 1.0 / (math.sqrt(math.pi / 2.0) * float(erfcx(-xi / math.sqrt(2.0))))
            assert math.isclose(limit_profile_u(xi), want, rel_tol=1e-14, abs_tol=1e-300)

    def test_solves_limit_riccati(self):
        for xi in (-2.0, -0.5, 0.0, 0.7, 2.5):
            h = 1e-5
            up = (limit_profile_u(xi + h) - limit_profile_u(xi - h)) / (2 * h)
            u = limit_profile_u(xi)
            assert abs(up + u * u + xi * u) < 1e-8


class TestEstimateZ0:
    def test_window_at_half(self):
        z0 = estimate_z0(2000, 0.5)
        assert 0.74 <= z0 <= 0.80
        # the limit equation's universal first zero lies in [0.76, 0.78]
        assert 0.74 <= z0 <= 0.79

    def test_ratio_independence(self):
        za = estimate_z0(2000, 1.0 / 3.0)
        zb = estimate_z0(2000, 2.0 / 3.0)
        assert abs(za - zb) <= 0.02

    def test_ladder_convergence(self):
        vals = [estimate_z0(m, 0.5) for m in (500, 1000, 2000)]
        assert abs(vals[0] - vals[1]) <= 0.02
        assert abs(vals[1] - vals[2]) <= 0.02
        # drift shrinks with n
        assert abs(vals[1] - vals[2]) <= abs(vals[0] - vals[1]) + 1e-12

    def test_guards(self):
        with pytest.raises(RangeUnsupported):
            estimate_z0(400, 0.5)
        with pytest.raises(RangeUnsupported):
            estimate_z0(1000, 0.2)


class TestPhiC:
    def test_paper_thresholds(self):
        assert phi_c_eval(7.0 / 8.0, 3.0 / 5.0) > 91.0 / 1090.0
        assert phi_c_eval(9.0 / 10.0, 2.0 / 5.0) > 1.0 / 10.0
        assert phi_c_eval(15.0 / 16.0, 9.0 / 25.0) > 91.0 / 1000.0

    def test_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert phi_c_eval(rng.uniform(0.02, 0.98), rng.uniform(-2, 2)) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_c_eval(0.0, 0.5)

    @pytest.mark.parametrize("lam, c", [
        (0.02, -8.0), (0.5, -30.0), (0.5, -40.0),  # exp and erfc both underflow
        (7 / 8, 3 / 5), (9 / 10, 2 / 5), (15 / 16, 9 / 25),  # paper thresholds
    ])
    def test_against_mpmath(self, lam, c):
        # the erfc form var exp(-c^2/(2 var)) / (sqrt(pi var/2) erfc(-c/sqrt(2 var)))
        # at 40 digits, var = 2 lam (1-lam)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            lam_, c_ = mpmath.mpf(lam), mpmath.mpf(c)
            var = 2 * lam_ * (1 - lam_)
            want = (var * mpmath.exp(-c_ ** 2 / (2 * var))
                    / (mpmath.sqrt(mpmath.pi * var / 2) * mpmath.erfc(-c_ / mpmath.sqrt(2 * var))))
        assert math.isclose(phi_c_eval(lam, c), float(want), rel_tol=1e-14)


class TestOvershoot:
    def test_basic_band(self):
        assert overshoot_check(ConeParams(60, 40)).passed

    def test_full_bands(self):
        for n in (60, 80, 100):
            for k in range(int(math.ceil(n / 2)), n - 11):
                assert overshoot_check(ConeParams(n, k)).passed

    def test_refined_band(self):
        chk = overshoot_check(ConeParams(200, 192))
        assert chk.passed and chk.name == "overshoot_bound_refined"

    def test_form_equivalence(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(60, 140))
            k = int(rng.integers(n // 2 + 1, n - 11))
            pars = ConeParams(n, k)
            s = find_root(pars).s_nk
            quad_ok = s < k / n or (n * s - k) ** 2 <= 2.0 * n * (1.0 - s)
            star_ok = s < k / n or s < overshoot_terminal_point(pars)
            assert quad_ok == star_ok

    def test_range_guard(self):
        with pytest.raises(RangeUnsupported):
            overshoot_check(ConeParams(100, 30))
        with pytest.raises(RangeUnsupported):
            overshoot_check(ConeParams(100, 92))  # refined band needs n >= 16 d


class TestProofConstants:
    def test_battery_passes(self):
        battery = proof_constants_check()
        assert len(battery) >= 10
        for chk in battery:
            assert chk.passed, f"{chk.name}: {chk.computed} vs {chk.claimed}"

    def test_exp_bound_present(self):
        names = {c.name for c in proof_constants_check()}
        assert "exp_105_bound" in names
        assert "axisymmetric_edge_margin" in names
