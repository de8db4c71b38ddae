"""Cone geometry tests: roots against closed forms, the normalization and
boundary quantities, criterion margins, admissible intervals, and the
profile-function regressions."""

import math
import sys

import numpy as np
import pytest

import conelab._backend
import conelab.cone
from conelab import specfun
from conelab.cone import (
    ConeParams,
    L_direct,
    Verdict,
    _cubic_root_in_s,
    boundary_rhs,
    cubic_bound,
    find_root,
    indicial_roots,
    lambda1_root,
    profile_g,
    profile_params,
    stability_margin,
    verdict,
)
from conelab.errors import PoleEncounteredError
from conelab.specfun import Strategy, _run_series, hyp2f1, hyp2f1_deriv


def profile_g_dt(p, alpha, t):
    """d/dt of the degree-alpha profile: 2 t F'(t^2)."""
    return 2.0 * t * hyp2f1_deriv(profile_params(p, alpha), t * t, 1).value


def normalization_c(p, r):
    """Gradient normalization c_{n,k} = 1 / (sqrt(1-t^2) |f'(t)|) at the root."""
    return 1.0 / (math.sqrt(1.0 - r.s_nk) * abs(profile_g_dt(p, 1.0, r.t_nk)))


class TestConeParams:
    def test_valid(self):
        p = ConeParams(7, 4)
        assert p.d == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            ConeParams(2, 1)
        with pytest.raises(ValueError):
            ConeParams(7, 6)
        with pytest.raises(ValueError):
            ConeParams(7, 0)


class TestProfiles:
    def test_value_at_axis(self):
        for alpha in (-3.2, 1.0, -0.5):
            assert profile_g(ConeParams(9, 4), alpha, 0.0) == 1.0

    def test_case_iv_closed_form(self):
        # f_{7,4}(1/2) = (4 - 5/4) / (4 sqrt(3/4))
        got = profile_g(ConeParams(7, 4), 1.0, 0.5)
        want = (4.0 - 5.0 * 0.25) / (4.0 * math.sqrt(0.75))
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_degree_zero_profiles_constant(self):
        p = ConeParams(8, 3)
        for t in (0.1, 0.4, 0.77):
            assert profile_g(p, 0.0, t) == 1.0
            assert profile_g(p, 2.0 - 8.0, t) == 1.0

    def test_knm3_family_closed_form(self):
        # f_{n,n-3}(t) = ((n-3) - (n-2) t^2) / ((n-3) sqrt(1-t^2))
        for n in range(7, 31):
            p = ConeParams(n, n - 3)
            for t in np.linspace(0.0, 0.9, 10):
                want = ((n - 3) - (n - 2) * t * t) / ((n - 3) * math.sqrt(1 - t * t))
                assert math.isclose(profile_g(p, 1.0, float(t)), want,
                                    rel_tol=1e-10, abs_tol=1e-12)

    def test_f71_printed_closed_form(self):
        # -15/8 t atanh(t) + (15/8 t^4 - 25/8 t^2 + 1) / (1-t^2)^2
        p = ConeParams(7, 1)
        for t in np.linspace(0.05, 0.9, 15):
            want = (-15.0 / 8.0 * t * math.atanh(t)
                    + (15.0 / 8.0 * t ** 4 - 25.0 / 8.0 * t ** 2 + 1.0)
                    / (1.0 - t * t) ** 2)
            assert math.isclose(profile_g(p, 1.0, float(t)), want, rel_tol=1e-10)

    def test_f81_printed_closed_form(self):
        # (1-t^2)^(-5/2) (1 - 6 t^2 + 8 t^4 - 16/5 t^6)
        p = ConeParams(8, 1)
        for t in np.linspace(0.0, 0.9, 15):
            want = (1.0 - t * t) ** -2.5 * (1.0 - 6.0 * t ** 2 + 8.0 * t ** 4
                                            - 3.2 * t ** 6)
            assert math.isclose(profile_g(p, 1.0, float(t)), want,
                                rel_tol=1e-10, abs_tol=1e-12)

    def test_k1_reduction_of_order_integral(self):
        # f_{n,1}(t) = t int_t^? s^-2 (1-s^2)^(-(n-1)/2) ds, constant fixed
        # by f(0) = 1: equivalently f(t) = 1 - t int_0^t [ (1-s^2)^(-(n-1)/2)
        # - 1 ] s^-2 ds - t * (t^-1 - ...) -- integrate numerically from the
        # derivative form instead: f'(t) relates to the quadrature of the
        # weight; here we check the antiderivative identity directly.
        from scipy.integrate import quad
        for n in (7, 9, 12):
            p = ConeParams(n, 1)
            for t in (0.2, 0.35, 0.5):
                # d/dt [f/t] = -t^-2 (1-t^2)^(-(n-1)/2) follows from the ODE;
                # integrate it between two points and compare
                t2 = t + 0.2
                lhs = profile_g(p, 1.0, t2) / t2 - profile_g(p, 1.0, t) / t
                rhs = quad(lambda s: -s ** -2 * (1 - s * s) ** (-(n - 1) / 2.0),
                           t, t2, epsabs=1e-13, epsrel=1e-12)[0]
                assert math.isclose(lhs, rhs, rel_tol=1e-8)

    def test_odd_solution_solves_operator(self):
        # t^(2-k) 2F1((n-k+1)/2, (1-k)/2; 2-k/2; t^2) is annihilated by the
        # profile operator; analytic series derivatives keep the residual at
        # roundoff.  k = 4 is excluded: the lower parameter 2-k/2 = 0 is a
        # pole of the series (resonant Frobenius case).
        for (n, k) in [(9, 3), (11, 3), (9, 5), (12, 5)]:
            a, b, c = (n - k + 1) / 2.0, (1 - k) / 2.0, 2.0 - k / 2.0
            nu = 2.0 - k
            for t in np.linspace(0.05, 0.92, 20):
                s = t * t
                F = _run_series(a, b, c, s)[0]
                F1 = (a * b / c) * _run_series(a + 1, b + 1, c + 1, s)[0]
                F2 = (a * (a + 1) * b * (b + 1) / (c * (c + 1))) * _run_series(
                    a + 2, b + 2, c + 2, s)[0]
                f = t ** nu * F
                fp = nu * t ** (nu - 1) * F + 2.0 * t ** (nu + 1) * F1
                fpp = (nu * (nu - 1) * t ** (nu - 2) * F
                       + (4.0 * nu + 2.0) * t ** nu * F1
                       + 4.0 * t ** (nu + 2) * F2)
                res = ((1 - s) * fpp + (n - 1) * (f - t * fp) + (k - 1) / t * fp)
                assert abs(res) <= 1e-7 * max(1.0, abs(f))


class TestFindRoot:
    def test_case_iv_exact(self):
        r = find_root(ConeParams(7, 4))
        assert abs(r.t_nk - math.sqrt(4.0 / 5.0)) < 1e-12

    def test_axisymmetric_seven(self):
        r = find_root(ConeParams(7, 1))
        assert abs(r.t_nk - 0.52) < 0.01

    def test_suspected_typo_row_exact(self):
        r = find_root(ConeParams(9, 6))
        assert abs(r.t_nk - math.sqrt(6.0 / 7.0)) < 1e-10

    def test_residual_and_invariants(self):
        for (n, k) in [(7, 1), (8, 5), (12, 10), (20, 3), (40, 38), (6, 4)]:
            p = ConeParams(n, k)
            r = find_root(p)
            assert r.residual <= 1e-12
            assert abs(r.t_nk ** 2 - r.s_nk) < 1e-15
            assert r.s_nk < 2.0 * k / (n - 1.0)
            s_lo, s_hi = r.s_bracket
            assert s_lo <= r.s_nk <= s_hi
            hp = profile_params(p, 1.0)
            f_lo, f_hi = hyp2f1(hp, s_lo).value, hyp2f1(hp, s_hi).value
            assert f_lo > 0.0 >= f_hi

    def test_profile_decreasing_single_zero(self):
        for (n, k) in [(7, 2), (10, 6), (15, 13)]:
            p = ConeParams(n, k)
            ts = np.linspace(1e-3, 1.0 - 1e-6, 1000)
            vals = np.array([profile_g(p, 1.0, float(t)) for t in ts])
            signs = np.sign(vals)
            assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 1
            # strictly decreasing along the sampled grid
            assert np.all(np.diff(vals) < 0)

    def test_cubic_bound_majorizes(self):
        for (n, k) in [(7, 1), (9, 4), (14, 9), (30, 20)]:
            p = ConeParams(n, k)
            for t in np.linspace(0.01, 0.95, 100):
                assert profile_g(p, 1.0, float(t)) <= cubic_bound(p, float(t)) + 1e-13

    def test_cubic_root_closed_form(self):
        # the real root in (0, 1] of 1 - a s - b s^2 - c s^3, or None where
        # the bound stays positive at s = 1; at (30, 20) the last secant
        # step lands within an ulp of the lower bracket end while the upper
        # one is still 9.6e-10 away
        for (n, k) in [(3, 1), (7, 1), (9, 4), (30, 20), (40, 1), (27, 20), (12, 10)]:
            p = ConeParams(n, k)
            a = (n - 1.0) / (2.0 * k)
            b = (n * n - 1.0) / (8.0 * k * (k + 2.0))
            c = (n * n - 1.0) * (n + 3.0) / (16.0 * k * (k + 2.0) * (k + 4.0))
            real = [z.real for z in np.roots([-c, -b, -a, 1.0])
                    if abs(z.imag) < 1e-9 and 0.0 < z.real <= 1.0]
            if real:
                assert abs(_cubic_root_in_s(p) - real[0]) <= 1e-14, (n, k)
            else:
                assert cubic_bound(p, 1.0) > 0.0
                assert _cubic_root_in_s(p) is None, (n, k)

    def test_evaluation_budget(self, monkeypatch):
        # the descending scan plus Illinois steps cost at most 24 profile
        # evaluations per root on every cone with 3 <= n <= 40
        calls = []

        def counted(raw):
            def wrapper(*args, **kwargs):
                calls.append(args[1])
                return raw(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(conelab.cone, "hyp2f1", counted(hyp2f1))
        worst = (0, (0, 0))
        for n in range(3, 41):
            for k in range(1, n - 1):
                calls.clear()
                find_root(ConeParams(n, k))
                worst = max(worst, (len(calls), (n, k)))
        assert worst[0] <= 24, worst


class TestNormalizationAndBoundary:
    def test_case_iv_normalization(self):
        # f'_{7,4}(t_{7,4}) = -5 by differentiating the closed form
        p = ConeParams(7, 4)
        r = find_root(p)
        assert math.isclose(normalization_c(p, r), 1.0 / math.sqrt(5.0),
                            rel_tol=1e-12)

    def test_definition_identity(self):
        for (n, k) in [(7, 1), (9, 4), (12, 10)]:
            p = ConeParams(n, k)
            r = find_root(p)
            c = normalization_c(p, r)
            fp = profile_g_dt(p, 1.0, r.t_nk)
            assert math.isclose(c * c * (1.0 - r.s_nk) * fp * fp, 1.0,
                                rel_tol=1e-10)

    def test_gradient_normalized_at_boundary(self):
        # |grad U|^2 = c^2 [f^2 + (1-t^2) f'^2] = 1 at the root since f = 0
        p = ConeParams(8, 5)
        r = find_root(p)
        c = normalization_c(p, r)
        f = profile_g(p, 1.0, r.t_nk)
        fp = profile_g_dt(p, 1.0, r.t_nk)
        grad2 = c * c * (f * f + (1.0 - r.s_nk) * fp * fp)
        assert abs(grad2 - 1.0) <= 1e-10

    def test_deriv_against_finite_difference(self):
        p = ConeParams(8, 5)
        r = find_root(p)
        fp = profile_g_dt(p, 1.0, r.t_nk)
        h = 1e-6
        fd = (profile_g(p, 1.0, r.t_nk + h) - profile_g(p, 1.0, r.t_nk - h)) / (2.0 * h)
        assert math.isclose(fp, fd, rel_tol=1e-7)

    def test_case_iv_boundary_values(self):
        p = ConeParams(7, 4)
        r = find_root(p)
        link_h, rhs = boundary_rhs(p, r)
        assert math.isclose(link_h, 2.5, rel_tol=1e-12)
        want_rhs = (5.0 * math.sqrt(0.8) - 3.0 / math.sqrt(0.8)) / 0.2
        assert math.isclose(rhs, want_rhs, rel_tol=1e-12)

    def test_mean_convexity(self):
        for (n, k) in [(3, 1), (5, 3), (7, 1), (12, 10), (20, 11)]:
            p = ConeParams(n, k)
            link_h, _ = boundary_rhs(p, find_root(p))
            assert link_h > 0.0


def _margin_reference(p, alpha, r):
    """The criterion margin in its own terms, 2t F'/F - rhs at the root,
    with the scale |2t F'/F| + |rhs| of its cancellation."""
    hp = profile_params(p, alpha)
    F = hyp2f1(hp, r.s_nk).value
    Fp = hyp2f1_deriv(hp, r.s_nk, 1).value
    _, rhs = boundary_rhs(p, r)
    lhs = 2.0 * r.t_nk * Fp / F
    return lhs - rhs, abs(lhs) + abs(rhs)


class TestMarginsAndVerdicts:
    def test_margin_matches_reference_formula(self):
        # stability_margin is L(s_nk) / (t (1 - t^2)); at the criterion
        # exponent, at -1/2 and at the subsolution exponent 4-n it agrees
        # with the direct form for every cone with n <= 40
        for n in range(3, 41):
            alphas = [(2.0 - n) / 2.0, -0.5] + ([4.0 - n] if n >= 4 else [])
            for k in range(1, n - 1):
                p = ConeParams(n, k)
                r = find_root(p)
                for alpha in alphas:
                    want, scale = _margin_reference(p, alpha, r)
                    assert abs(stability_margin(p, alpha, r) - want) <= 1e-12 * scale

    def test_subsolution_margin_positive_n7(self):
        for k in range(1, 6):
            p = ConeParams(7, k)
            assert stability_margin(p, -3.0, find_root(p)) > 0.0

    def test_unstable_margin_negative_n6(self):
        for k in range(1, 5):
            p = ConeParams(6, k)
            assert stability_margin(p, -2.0, find_root(p)) < 0.0

    def test_involution_symmetry(self):
        p = ConeParams(9, 4)
        r = find_root(p)
        for alpha in (-1.3, -2.7, -5.1):
            m1 = stability_margin(p, alpha, r)
            m2 = stability_margin(p, 2.0 - 9.0 - alpha, r)
            assert math.isclose(m1, m2, rel_tol=1e-11, abs_tol=1e-11)

    def test_pole_outside_positivity_range(self):
        # at alpha = -7 < 1-n the (7,2) profile is the linear polynomial
        # 1 - 3.5 t^2 with a zero at t^2 = 2/7; beyond it the log-derivative
        # is flagged rather than silently continued
        p = ConeParams(7, 2)
        assert hyp2f1(profile_params(p, -7.0), 0.5).value == pytest.approx(-0.75)
        with pytest.raises(PoleEncounteredError):
            L_direct(p, -7.0, 0.5)

    def test_verdict_examples(self):
        for (n, k, want) in [(6, 1, Verdict.UNSTABLE), (7, 1, Verdict.STRICTLY_STABLE),
                             (7, 5, Verdict.STRICTLY_STABLE)]:
            p = ConeParams(n, k)
            assert verdict(p, find_root(p)).verdict is want

    def test_report_fields(self):
        p = ConeParams(7, 1)
        r = find_root(p)
        rep = verdict(p, r)
        assert rep.link_H > 0.0
        assert math.isclose(rep.lhs - rep.rhs, rep.margin, rel_tol=1e-12)
        adm = indicial_roots(lambda1_root(p, r)[0], p.n)
        assert adm is not None
        lo, hi = adm
        assert abs(lo + hi - (2.0 - 7.0)) < 1e-8


def _spy(monkeypatch, *raws):
    """Record the name of every call of the functions raws through every
    conelab namespace binding them."""
    calls = []

    def counted(raw):
        def wrapper(*args, **kwargs):
            calls.append(raw.__name__)
            return raw(*args, **kwargs)
        return wrapper

    for raw in raws:
        wrapped = counted(raw)
        for name, mod in list(sys.modules.items()):
            if name.startswith("conelab."):
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        monkeypatch.setattr(mod, key, wrapped)
    return calls


class TestLDirectPair:
    # the (400, 394) barrier at alpha = 4 - n: 2F1(1, 198; 197; s)
    P, ALPHA = ConeParams(400, 394), 4.0 - 400.0

    def _spy_all(self, monkeypatch):
        return _spy(monkeypatch, conelab._backend.hyp2f1_series, specfun.hyp2f1,
                    specfun.hyp2f1_deriv)

    def test_direct_point_sums_two_series(self, monkeypatch):
        calls = self._spy_all(monkeypatch)
        # frozen from L computed with separate hyp2f1 and hyp2f1_deriv calls
        assert L_direct(self.P, self.ALPHA, 0.3) == 274.2043415340087
        assert calls == ["hyp2f1_series", "hyp2f1_series"]

    @pytest.mark.parametrize("s, want", [(0.7, 115.82341137123751),
                                         (0.99276387818866, 0.6865538506480675)])
    def test_euler_point_keeps_value(self, s, want):
        # d = 6 beyond the switch point, s_star included: both F and F'
        # take the Euler transform, through hyp2f1 and hyp2f1_deriv
        assert hyp2f1(profile_params(self.P, self.ALPHA), s).strategy is Strategy.EULER_TRANSFORM
        assert L_direct(self.P, self.ALPHA, s) == want

    def test_pole_on_direct_route(self, monkeypatch):
        # F = 1 - 3.5 s < 0 at s = 0.5 for (7, 2), alpha = -7
        calls = self._spy_all(monkeypatch)
        with pytest.raises(PoleEncounteredError):
            L_direct(ConeParams(7, 2), -7.0, 0.5)
        assert calls == ["hyp2f1_series", "hyp2f1_series"]


class TestAdmissibleInterval:
    def test_seven_one_endpoints(self):
        # endpoints solve alpha(alpha + n - 2) = lambda1; frozen from the
        # spectral dual computed independently (lambda1 = -5.6984022):
        p = ConeParams(7, 1)
        lo, hi = indicial_roots(lambda1_root(p, find_root(p))[0], p.n)
        assert abs(hi - (-1.7573037)) < 1e-6
        assert abs(lo - (-3.2426963)) < 1e-6

    def test_empty_for_unstable(self):
        for p in (ConeParams(5, 2), ConeParams(6, 3)):
            assert indicial_roots(lambda1_root(p, find_root(p))[0], p.n) is None

    def test_contains_4_minus_n(self):
        for (n, k) in [(7, 2), (9, 5), (12, 7), (15, 1)]:
            p = ConeParams(n, k)
            lo, hi = indicial_roots(lambda1_root(p, find_root(p))[0], p.n)
            assert lo < 4.0 - n < hi

    def test_margin_sign_inside_outside(self):
        p = ConeParams(8, 3)
        r = find_root(p)
        lo, hi = indicial_roots(lambda1_root(p, r)[0], p.n)
        assert stability_margin(p, 0.5 * (lo + hi), r) > 0.0
        assert stability_margin(p, hi + 0.05, r) < 0.0
        assert stability_margin(p, lo - 0.05, r) < 0.0


class TestHomogeneous:
    # the homogeneous solution scale * rho^alpha * g_{n,k,alpha}(t)
    def test_axis_value(self):
        p = ConeParams(9, 4)
        assert 1.0 ** (4.0 - 9.0) * profile_g(p, 4.0 - 9.0, 0.0) == 1.0

    def test_dilation_exactness(self):
        p = ConeParams(9, 4)
        v1 = 1.3 * 2.0 ** -5.0 * profile_g(p, -5.0, 0.3)
        v0 = 1.3 * 1.0 ** -5.0 * profile_g(p, -5.0, 0.3)
        assert math.isclose(v1 / v0, 2.0 ** -5.0, rel_tol=1e-14)

    def test_polar_laplacian_residual(self):
        # Delta(rho^a g) = rho^(a-2) [(1-t^2) g'' + ((k-1)/t - (n-1) t) g'
        #                              + a(a+n-2) g] must vanish
        p = ConeParams(9, 4)
        alpha = 4.0 - 9.0
        rho = 1.7
        worst = 0.0
        for t in np.linspace(0.08, 0.85, 20):
            h = 1e-5

            def u(rr, tt):
                return rr ** alpha * profile_g(p, alpha, tt)

            u_rr = (u(rho + h, t) - 2 * u(rho, t) + u(rho - h, t)) / h ** 2
            u_r = (u(rho + h, t) - u(rho - h, t)) / (2 * h)
            u_tt = (u(rho, t + h) - 2 * u(rho, t) + u(rho, t - h)) / h ** 2
            u_t = (u(rho, t + h) - u(rho, t - h)) / (2 * h)
            lap = (u_rr + (9 - 1) / rho * u_r
                   + (1 - t * t) / rho ** 2 * u_tt
                   + ((4 - 1) / t - (9 - 1) * t) / rho ** 2 * u_t)
            worst = max(worst, abs(lap) / max(1.0, abs(u(rho, t))))
        assert worst <= 1e-5  # FD-limited; the analytic residual is ~1e-13

    def test_t_domain(self):
        # the solution lives on 0 <= t < 1; profile_g rejects the rest
        for t in (-0.1, 1.0):
            with pytest.raises(ValueError):
                profile_g(ConeParams(7, 1), 1.0, t)
