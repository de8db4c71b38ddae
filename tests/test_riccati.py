"""Riccati log-derivative, polynomial classifier and barrier tests."""

import math

import numpy as np
import pytest

from conelab import checks
from conelab.checks import (
    L_cross_check,
    P_poly,
    alpha_hat,
    barrier_phi,
    linear_root_relation,
    overshoot_terminal_point,
    verify_barrier,
)
from conelab.cone import ConeParams, L_direct, check_4_minus_n, find_root, refined_terminal_point
from conelab.errors import PoleEncounteredError, VariantUnavailableError
from oracles import Mode, chained_shot


def p_poly_roots_in_unit(p, ahat):
    """Roots of P in the open interval (0, 1), sorted; 0, 1 or 2 of them."""
    # -ahat s^2 + (n - 2k + ahat) s + (k-1) = 0
    a2 = -ahat
    a1 = p.n - 2.0 * p.k + ahat
    a0 = p.k - 1.0
    if a2 == 0.0:
        roots = [] if a1 == 0.0 else [-a0 / a1]
    else:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            roots = []
        else:
            sq = math.sqrt(disc)
            # numerically stable pairing of the quadratic roots
            qq = -0.5 * (a1 + math.copysign(sq, a1))
            roots = sorted({qq / a2 if qq != 0.0 else 0.0,
                            a0 / qq if qq != 0.0 else 0.0})
    return tuple(r for r in roots if 0.0 < r < 1.0)


class TestLEval:
    def test_initial_value(self):
        for (n, k) in [(7, 1), (9, 4), (12, 10)]:
            assert L_direct(ConeParams(n, k), -3.0, (0.0,)) == [float(k - 1)]

    def test_limit_at_one(self):
        # approach rate is (1-s)^((d-2)/2); d >= 4 here
        for (n, k, alpha) in [(9, 4, -3.0), (12, 5, -6.0)]:
            v = L_direct(ConeParams(n, k), alpha, (1.0 - 1e-6,))[0]
            assert abs(v + 1.0) < 1e-3

    def test_subsolution_margins_seven(self):
        pars = [ConeParams(7, k) for k in range(1, 6)]
        vals = [check_4_minus_n(p, find_root(p))[1] for p in pars]
        assert min(vals) > 3e-2

    def test_modes_agree(self):
        _, direct, ode, _ = L_cross_check(ConeParams(9, 4), -3.5, 0.6)
        for d, o in zip(direct, ode):
            assert math.isclose(d, o, rel_tol=1e-8, abs_tol=1e-9)

    def test_crosscheck_trace(self):
        p = ConeParams(8, 3)
        grid, direct, ode, disc = L_cross_check(p, -3.0, find_root(p).s_nk)
        assert len(grid) == len(direct) == len(ode) == checks.CROSS_CHECK_POINTS
        assert direct[0] == float(p.k - 1)
        assert disc == max(abs(a - b) for a, b in zip(direct, ode))
        assert disc <= 1e-7 * (1.0 + max(abs(v) for v in direct))
        assert alpha_hat(p, -3.0) == -3.0 * (-3.0 + 8.0 - 2.0)

    def test_crosscheck_is_one_chained_shot(self, monkeypatch):
        # one robin_shoot call per grid point past s = 0, each starting
        # where the previous one ended
        calls = []
        real = checks.robin_shoot

        def spy(*args):
            calls.append(args[2:4])
            return real(*args)

        monkeypatch.setattr(checks, "robin_shoot", spy)
        p = ConeParams(10, 4)
        grid = L_cross_check(p, -4.0, find_root(p).s_nk)[0]
        assert len(calls) == len(grid) - 1
        assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
        assert calls[-1][1] == math.sqrt(grid[-1])

    def test_sign_change_between_points_is_a_pole(self, monkeypatch):
        # a zero of the profile strictly between two grid points leaves u
        # nonzero at both; the shot's zero count still reports it
        real = checks.robin_shoot

        def one_zero(*args):
            u, v, _, ok = real(*args)
            return u, v, 1, ok

        monkeypatch.setattr(checks, "robin_shoot", one_zero)
        with pytest.raises(PoleEncounteredError,
                           match=r"profile vanishes before s=0\.01875 for alpha=-3\.5, "
                                 r"\(n,k\)=\(9,4\)"):
            L_cross_check(ConeParams(9, 4), -3.5, 0.6)

    def test_launch_matches_oracle_bit_for_bit(self, monkeypatch):
        # the mode-(0,0) series launch behind L_cross_check against the
        # oracle's Frobenius launch for any mode, on the same grid: the same
        # floats at the launch, after every shot and in L, s = 0 included
        shots = []
        real = checks.robin_shoot

        def spy(*args):
            res = real(*args)
            shots.append((args[:2], res[:2]))
            return res

        monkeypatch.setattr(checks, "robin_shoot", spy)
        for n, k, alpha in [(7, 1, -2.5), (9, 4, -3.5), (8, 6, -4.0), (20, 3, -9.0),
                            (40, 38, -19.0)]:
            p = ConeParams(n, k)
            shots.clear()
            grid, _, ode, _ = L_cross_check(p, alpha, find_root(p).s_nk)
            lam = alpha_hat(p, alpha)
            ref = chained_shot(p, lam, [math.sqrt(s) for s in grid], Mode())
            launch = chained_shot(p, lam, [checks.T_LAUNCH], Mode())[0][:2]
            L_ref = [math.sqrt(s) * (1.0 - s) * v / u - (n - 2.0) * s + (k - 1.0)
                     for s, (u, v, _) in zip(grid, ref)]
            assert lam != 0.0 and grid[0] == 0.0 and len(shots) == len(grid) - 1
            assert [x.hex() for x in shots[0][0]] == [x.hex() for x in launch]
            assert ([[x.hex() for x in uv] for _, uv in shots]
                    == [[x.hex() for x in r[:2]] for r in ref[1:]])
            assert [x.hex() for x in ode] == [x.hex() for x in L_ref]

    def test_s_domain(self):
        with pytest.raises(ValueError):
            L_cross_check(ConeParams(7, 2), -2.0, 1.0)
        with pytest.raises(ValueError):
            L_direct(ConeParams(7, 2), -2.0, (0.5, 1.0))

    def test_cross_mode_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(5, 21))
            k = int(rng.integers(1, n - 1))
            alpha = rng.uniform(2.0 - n + 0.2, -0.2)
            pars = ConeParams(n, k)
            _, direct, _, disc = L_cross_check(pars, alpha, find_root(pars).s_nk)
            scale = 1.0 + max(abs(v) for v in direct)
            assert disc <= 1e-7 * scale

    def test_single_sign_change(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(5, 16))
            k = int(rng.integers(1, n - 1))
            alpha = rng.uniform(2.0 - n + 0.3, -0.3)
            pars = ConeParams(n, k)
            vals = L_direct(pars, alpha, [float(s) for s in np.linspace(1e-4, 0.999, 220)])
            signs = np.sign(vals)
            assert int(np.sum(signs[1:] * signs[:-1] < 0)) <= 1

    def test_riccati_residual_fd(self):
        p = ConeParams(11, 6)
        alpha = -5.0
        ah = alpha * (alpha + 11 - 2)
        for s in np.linspace(0.05, 0.85, 20):
            h = 1e-5
            L_plus, L_minus, L = L_direct(p, alpha, (s + h, s - h, s))
            lp = (L_plus - L_minus) / (2 * h)
            res = 2 * s * (1 - s) * lp + L * L + (11 * s - 6) * L + P_poly(p, ah, s)
            assert abs(res) <= 1e-6 * max(1.0, L * L)


class TestPPoly:
    def test_endpoint_values(self):
        p = ConeParams(9, 4)
        assert P_poly(p, -7.3, 0.0) == 3.0
        assert P_poly(p, -7.3, 1.0) == 4.0

    def test_two_root_condition(self):
        # two interior roots iff |ahat + n - 2| > 2 sqrt((n-k-1)(k-1))
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(5, 20))
            k = int(rng.integers(2, n - 1))
            p = ConeParams(n, k)
            ahat = -rng.uniform(0.01, ((n - 2.0) / 2.0) ** 2 - 1e-6)
            roots = p_poly_roots_in_unit(p, ahat)
            crit = abs(ahat + n - 2.0) > 2.0 * math.sqrt((n - k - 1.0) * (k - 1.0))
            # vertex must also lie inside (0, 1) for both roots to count
            if len(roots) == 2:
                assert crit
            if crit and 0.0 < (n - 2.0 * k + ahat) / (2.0 * ahat) < 1.0:
                assert len(roots) == 2
            for r in roots:
                assert abs(P_poly(p, ahat, r)) < 1e-9

    def test_k1_single_root(self):
        p = ConeParams(9, 1)
        roots = p_poly_roots_in_unit(p, -12.0)
        assert len(roots) <= 1


class TestBarriers:
    def test_terminal_value_zero(self):
        for (n, d) in [(200, 40), (96, 12), (96, 6), (400, 11)]:
            s_star, _, _, phi = barrier_phi(ConeParams(n, n - d))
            assert abs(phi(s_star)) < 1e-12

    def test_jump_left_limit(self):
        n, d = 200, 40
        p = ConeParams(n, n - d)
        phi = barrier_phi(p)[3]
        kn = (n - d) / n
        left = phi(kn * (1.0 - 1e-13))
        assert math.isclose(left, 4.0 * kn - 1.0, rel_tol=1e-9)

    def test_large_d_bound_at_junction(self):
        # phi(k/n) <= 2 on the large-d branch for k/n >= 15/16
        for (n, d) in [(200, 12), (400, 20), (640, 40)]:
            p = ConeParams(n, n - d)
            s_star, _, _, phi = barrier_phi(p)
            assert s_star == overshoot_terminal_point(p)  # the large-d barrier
            assert phi(p.k / p.n) <= 2.0 + 1e-12

    def test_closed_form_solves_terminal_ode(self):
        # 2s(1-s) phi' + phi^2 + B phi + C = 0 against an independent
        # integration of the same terminal-value problem
        from scipy.integrate import solve_ivp
        for (n, d) in [(96, 7), (200, 40), (400, 9)]:
            p = ConeParams(n, n - d)
            s_star, (r_minus, r_plus), _, phi = barrier_phi(p)
            B = -(r_minus + r_plus)
            C = r_minus * r_plus
            sol = solve_ivp(
                lambda s, y: [-(y[0] ** 2 + B * y[0] + C) / (2 * s * (1 - s))],
                (s_star, p.k / p.n), [0.0], rtol=1e-12, atol=1e-14,
                dense_output=True)
            for s in np.linspace(p.k / p.n, s_star, 7):
                assert math.isclose(phi(float(s)), float(sol.sol(s)[0]),
                                    rel_tol=1e-8, abs_tol=1e-9)

    def test_small_d_discriminant(self):
        for d in range(6, 12):
            p = ConeParams(96, 96 - d)
            s_star, _, delta, _ = barrier_phi(p)
            assert s_star == refined_terminal_point(p)  # the small-d barrier
            assert delta > 101.0 / 100.0

    def test_strictly_decreasing_on_curved_piece(self):
        for (n, d) in [(96, 8), (200, 40), (400, 12)]:
            p = ConeParams(n, n - d)
            s_star, _, _, phi = barrier_phi(p)
            grid = np.linspace(p.k / p.n, s_star, 200)
            vals = [phi(float(s)) for s in grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert all(v >= 0.0 for v in vals)

    def test_small_d_terminal_linear_coefficient(self):
        # n s_star - k equals A + 1/2 exactly at the refined terminal point
        for (n, d) in [(96, 6), (200, 11), (400, 8)]:
            p = ConeParams(n, n - d)
            s_star = barrier_phi(p)[0]
            A = math.sqrt(2.0 * d + 1.0) - 1.0
            assert math.isclose(n * s_star - p.k, A + 0.5, rel_tol=1e-12)

    def test_variant_unavailable(self):
        with pytest.raises(VariantUnavailableError):
            barrier_phi(ConeParams(96, 92))  # d = 4: linear barrier only

    def test_verify_reports(self):
        rep = verify_barrier(ConeParams(200, 160))
        assert rep.passed
        assert rep.L_at_s_star > 0.0
        assert rep.max_residual_linear < 0.0
        assert rep.max_residual_curved < 0.0
        assert rep.jump_left > rep.jump_right
        assert rep.min_L_minus_phi >= -1e-9

    def test_linear_relation_d4(self):
        for n in (12, 30, 100):
            s_star, zero, ok = linear_root_relation(ConeParams(n, n - 4))
            assert ok
            assert math.isclose(s_star, 1.0 - 1.5 / n, rel_tol=1e-13)


class TestCheck4MinusN:
    def test_true_for_stable_range(self):
        for n in range(7, 21):
            for k in (1, n // 2, n - 2):
                p = ConeParams(n, k)
                ok, margin = check_4_minus_n(p, find_root(p))
                assert ok and margin > 0.0

    def test_false_below_seven(self):
        for n in (5, 6):
            for k in range(1, n - 1):
                p = ConeParams(n, k)
                ok, margin = check_4_minus_n(p, find_root(p))
                assert not ok and margin < 0.0
