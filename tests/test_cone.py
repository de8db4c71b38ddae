"""Cone geometry tests: roots against closed forms, the normalization and
boundary quantities, criterion margins, admissible intervals, and the
profile-function regressions."""

import math

import numpy as np
import pytest

import conelab.cone
from conelab._pykernels import ROOT_F_TOL
from conelab.cone import (
    MARGIN_TOL,
    ConeParams,
    L_direct,
    RootResult,
    StabilityReport,
    Verdict,
    find_root,
    illinois,
    indicial_roots,
    profile_g,
    profile_params,
    refined_terminal_point,
    stability_margin,
    verdict,
)
from conelab.errors import DomainError, NonConvergenceError
from conelab.specfun import EvalResult, Strategy, _run_series, hyp2f1, hyp2f1_deriv
from oracles import boundary_rhs


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

    def test_record_contract(self):
        # keyword construction, repr, equality, immutability, and the
        # exact validation messages
        p = ConeParams(n=7, k=1)
        assert (p.n, p.k, p.d) == (7, 1, 6)
        assert repr(p) == "ConeParams(n=7, k=1)"
        assert p == ConeParams(7, 1) and hash(p) == hash(ConeParams(7, 1))
        with pytest.raises(AttributeError):
            p.n = 8
        with pytest.raises(ValueError, match=r"^k must lie in \[1, n-2\], got \(n,k\)=\(7,0\)$"):
            ConeParams(7, 0)
        with pytest.raises(ValueError, match=r"^n >= 3 required, got n=2$"):
            ConeParams(n=2, k=1)


class TestRecords:
    def test_root_result(self):
        r = RootResult(t_nk=0.5, s_nk=0.25, s_bracket=(0.2, 0.3), residual=0.0)
        assert r.s_bracket == (0.2, 0.3)
        assert repr(r) == "RootResult(t_nk=0.5, s_nk=0.25, s_bracket=(0.2, 0.3), residual=0.0)"
        with pytest.raises(AttributeError):
            r.t_nk = 0.6

    def test_stability_report(self):
        rep = StabilityReport(margin=1.0, verdict=Verdict.STRICTLY_STABLE, lambda1=-5.0,
                              residual=0.0, gamma_minus=None, gamma_plus=-1.0)
        assert rep.verdict is Verdict.STRICTLY_STABLE
        assert repr(rep) == ("StabilityReport(margin=1.0, "
                             "verdict=<Verdict.STRICTLY_STABLE: 'strictly_stable'>, "
                             "lambda1=-5.0, residual=0.0, gamma_minus=None, gamma_plus=-1.0)")
        with pytest.raises(AttributeError):
            rep.margin = 0.0


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

    def test_upper_end_is_settled(self, monkeypatch):
        # find_root's first evaluation is at s_up = min(2k/(n-1), s_ref),
        # s_ref the refined terminal point; f there is negative outside its
        # err_estimate on every cone with n <= 40 and on far cells of small
        # d, and s_up stays (5 - 2 sqrt(5))/(2n) or more below 1, its
        # distance at d = 2, up to the rounding of 1 - s_up (the series
        # overflows near s = 1)
        first = []
        monkeypatch.setattr(conelab.cone, "hyp2f1",
                            lambda hp, s: first.append(s) or hyp2f1(hp, s))
        far = [(n, n - d) for n in (10 ** 4, 10 ** 5, 10 ** 6)
               for d in (2, 3, 4, 5, 8, 20, 100)] + [(n, 3) for n in (10 ** 4, 10 ** 5, 10 ** 6)]
        for (n, k) in [(n, k) for n in range(3, 41) for k in range(1, n - 1)] + far:
            p = ConeParams(n, k)
            first.clear()
            find_root(p)
            s_up = min(2.0 * k / (n - 1.0), refined_terminal_point(p))
            assert first[0] == s_up, (n, k)
            F = hyp2f1(profile_params(p, 1.0), s_up)
            assert F.value < -F.err_estimate, (n, k, F)
            assert n * (1.0 - s_up) >= 2.5 - math.sqrt(5.0) - n * math.ulp(1.0), (n, k)

    @pytest.mark.parametrize("n", [100000, 200000])
    def test_far_d2_root_is_settled(self, n):
        # d = 2 past the series' reach: the upper end once sat at
        # s = 1 - 2e-9, where the profile overflowed, and the returned
        # bracket's ends both lay inside their own err_estimate.  Now both
        # ends are read outside it, and the root fits 1 - s ~ 0.39/n
        p = ConeParams(n, n - 2)
        r = find_root(p)
        for s in r.s_bracket:
            F = hyp2f1(profile_params(p, 1.0), s)
            assert abs(F.value) > F.err_estimate, (s, F)
        assert 1.0 - 1.0 / n < r.s_nk < refined_terminal_point(p)

    def test_evaluation_budget(self, monkeypatch):
        # the upper end plus the steps from [0, s_up] cost at most 12 profile
        # evaluations per root on every cone with 3 <= n <= 40, and at most
        # 14 on the cells k = 1 (mod 3) at n = 150, 400 and 1000
        calls = []

        def counted(raw):
            def wrapper(*args, **kwargs):
                calls.append(args[1])
                return raw(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(conelab.cone, "hyp2f1", counted(hyp2f1))
        # without its series span the solver calls the profile at every
        # step, and at the same points as with it
        raw = conelab.cone.illinois
        monkeypatch.setattr(conelab.cone, "illinois", lambda *args: raw(*args[:5]))
        small = [(n, k) for n in range(3, 41) for k in range(1, n - 1)]
        large = [(n, k) for n in (150, 400, 1000) for k in range(1, n - 1, 3)]
        for cells, budget in ((small, 12), (large, 14)):
            worst = (0, (0, 0))
            for (n, k) in cells:
                calls.clear()
                find_root(ConeParams(n, k))
                worst = max(worst, (len(calls), (n, k)))
            assert worst[0] <= budget, worst

    @pytest.mark.parametrize("v", [math.inf, math.nan])
    def test_non_finite_profile_raises(self, monkeypatch, v):
        # only -inf, the s -> 1 limit of the profile, reads as a sign
        monkeypatch.setattr(conelab.cone, "hyp2f1",
                            lambda hp, s: EvalResult(v, 0.0, 1, Strategy.DIRECT_SERIES))
        with pytest.raises(NonConvergenceError,
                           match=r"profile not finite at s=.* \(n,k\)=\(7,1\): f = "):
            find_root(ConeParams(7, 1))

    def test_nan_profile_names_its_evaluation(self):
        # at (160008, 144006) the connection formula's two terms overflow
        # and cancel at s = 0.9008 (c-a-b = -8000), where the direct series
        # reads f(0.9) = 0.0199; the exit names the strategy and (a,b,c)
        with pytest.raises(NonConvergenceError) as info:
            find_root(ConeParams(160008, 144006))
        assert str(info.value) == (
            "profile not finite at s=0.9008052394776422 for (n,k)=(160008,144006): "
            "f = nan +- nan by ConnectionAt1 at (a,b,c)=(80003.5,-0.5,72003.0)")

    def test_steep_bracket_bisects(self):
        def solve(f, lo, hi):
            # illinois on [lo, hi], checked for its invariants; the root and
            # the (x, f(x)) it evaluated, in order
            seen = []

            def g(x):
                seen.append((x, f(x)))
                return seen[-1][1]

            x, residual, b_lo, b_hi = illinois(g, lo, f(lo), hi, f(hi))
            assert b_lo <= x <= b_hi and f(b_lo) > 0.0 >= f(b_hi)
            assert residual == abs(f(x))
            return x, seen

        # |f_hi / f_lo| = 2e31 > 1/ulp: the secant step rounds onto lo,
        # which is no root, so the solver bisects on to the root near
        # lo + 0.165 (hi - lo)
        lo, hi = 63.0 / 64.0, 1.0
        f = lambda x: 0.05 - 1e30 * ((x - lo) / (hi - lo)) ** 40
        x, seen = solve(f, lo, hi)
        assert abs(f(x)) <= ROOT_F_TOL
        assert abs(x - (lo + (hi - lo) * (0.05 / 1e30) ** (1.0 / 40.0))) <= 1e-14
        # flat on one side and steep on the other: there Anderson &
        # Bjoerck's weight alone crushes the far end's weight step after
        # step (1,527,858, 543 and 336 evaluations on these three), and the
        # bisection after four steps without halving bounds the work
        assert len(seen) <= 40
        for f, root in ((lambda x: 1.0 - math.exp(20.0 * (x - 0.5)), 0.5),
                        (lambda x: 1e-3 - x ** 9, 0.1 ** (1.0 / 3.0))):
            x, seen = solve(f, 0.0, 1.0)
            assert len(seen) <= 40 and abs(x - root) <= 1e-15
        # f = -inf at the upper end, the s -> 1 limit: the chord is NaN, so
        # the first step bisects
        f = lambda x: -math.inf if x == 1.0 else 1.0 + math.log1p(-x)
        x, seen = solve(f, 0.0, 1.0)
        assert seen[0][0] == 0.5
        assert abs(x - (1.0 - math.exp(-1.0))) <= 1e-15
        # f rises again on (0.2, 0.7), so a step can keep an end with
        # f(x) >= f(prev) on the same side: m <= 0, and the weight halves.
        # A weight that changed sign would put the next chord outside the
        # bracket, and that step would bisect
        f = lambda x: (0.7 - x) * (1.0 + 50.0 * (x - 0.2) ** 2)
        x, seen = solve(f, 0.0, 1.0)
        assert any((f0 > 0.0) == (f1 > 0.0) and f1 / f0 >= 1.0
                   for (_, f0), (_, f1) in zip(seen, seen[1:]))
        ends = [0.0, 1.0]
        for x_i, f_i in seen:
            assert x_i != 0.5 * (ends[0] + ends[1])
            ends[f_i <= 0.0] = x_i
        assert abs(x - 0.7) <= 1e-15


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
        # at alpha = -7 < 2-n the (7,2) profile is the linear polynomial
        # 1 - 3.5 t^2 with a zero at t^2 = 2/7; L is taken only on [2-n, 0],
        # where the profile is at least 1, so the log-derivative is refused
        # rather than continued past the pole
        p = ConeParams(7, 2)
        assert hyp2f1(profile_params(p, -7.0), 0.5).value == pytest.approx(-0.75)
        with pytest.raises(DomainError, match=r"^alpha=-7\.0 for \(n,k\)=\(7,2\) outside "
                                              r"\[2-n, 0\] = \[-5, 0\]"):
            L_direct(p, -7.0, (0.5,))

    def test_verdict_examples(self):
        for (n, k, want) in [(6, 1, Verdict.UNSTABLE), (7, 1, Verdict.STRICTLY_STABLE),
                             (7, 5, Verdict.STRICTLY_STABLE)]:
            p = ConeParams(n, k)
            assert verdict(p, find_root(p)).verdict is want

    def test_report_fields(self):
        p = ConeParams(7, 1)
        r = find_root(p)
        rep = verdict(p, r)
        assert rep.margin == stability_margin(p, (2.0 - p.n) / 2.0, r)
        assert rep.verdict is Verdict.STRICTLY_STABLE
        assert rep.residual <= 1e-9
        adm = indicial_roots(rep.lambda1, p.n)
        assert adm is not None
        assert adm == (rep.gamma_minus, rep.gamma_plus)
        lo, hi = adm
        assert abs(lo + hi - (2.0 - 7.0)) < 1e-8

    def test_steep_root_bracket_verdict(self):
        # a steep-bracket cell: at the bracket's lower end s = 63/64 s_up,
        # which is no root, the margin is positive at both lambda = -h^2 and
        # lambda = 0, so no lambda_1 is bracketed
        p = ConeParams(1000, 984)
        rep = verdict(p, find_root(p))
        assert rep.verdict is Verdict.STRICTLY_STABLE
        assert rep.residual <= MARGIN_TOL

    def test_threshold_margin_is_the_lambda_bracket_end(self):
        # at lambda = -h^2 the indicial roots meet at gamma_+ = (2-n)/2
        # exactly, so the verdict's margin is the margin at that bracket end
        for n in range(3, 2001):
            h = (n - 2.0) / 2.0
            assert indicial_roots(-h * h, n)[1] == (2.0 - n) / 2.0

    def test_margin_root_residual_enforced(self, monkeypatch):
        # a lambda root that leaves |margin| above MARGIN_TOL is not reported
        p = ConeParams(7, 1)
        r = find_root(p)
        raw = conelab.cone.illinois

        def loose(*args):
            lam, _, lo, hi = raw(*args)
            return lam, 1e-6, lo, hi

        monkeypatch.setattr(conelab.cone, "illinois", loose)
        with pytest.raises(NonConvergenceError,
                           match=r"lambda1=.* at \(n,k\)=\(7,1\).*1\.000e-06"):
            verdict(p, r)


class TestLDirect:
    # the (400, 394) barrier at alpha = 4 - n: F = 2F1(1, 198; 197; s)
    P, ALPHA = ConeParams(400, 394), 4.0 - 400.0

    def test_grid_equals_points(self):
        # s = 0 (L = k-1 exactly) and the fraction's points in one grid
        ss = (0.3, 0.0, 0.7, 0.99276387818866, 0.0, 0.1)
        assert L_direct(self.P, self.ALPHA, ss) == [
            L_direct(self.P, self.ALPHA, (s,))[0] for s in ss]
        assert L_direct(self.P, self.ALPHA, ()) == []

    @pytest.mark.parametrize("s, want", [(0.3, 274.2043415340087), (0.7, 115.82341137123751),
                                         (0.99276387818866, 0.6865538506480675)])
    def test_keeps_series_values(self, s, want):
        # frozen from L computed with F and F' as series (the direct one at
        # 0.3, the terminating Euler transform beyond), which sum without
        # cancellation here
        assert L_direct(self.P, self.ALPHA, (s,))[0] == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [0.5, -5.5, math.nan, complex(-2.0, 1.0), math.inf])
    def test_domain(self, alpha):
        # [2-n, 0] = [-5, 0] at n = 7, and the line Re alpha = -5/2 of the
        # conjugate pair; the ends of both are served
        p = ConeParams(7, 2)
        with pytest.raises(DomainError, match=r"outside \[2-n, 0\] = \[-5, 0\] and off the "
                                              r"line Re alpha = \(2-n\)/2"):
            L_direct(p, alpha, (0.5,))
        for ok in (-5.0, 0.0, complex(-2.5, 0.0), complex(-2.5, 40.0)):
            assert math.isfinite(L_direct(p, ok, (0.5,))[0])
        for s in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"^s must lie in \[0, 1\)$"):
                L_direct(p, -2.0, (0.5, s))

    def test_pair_branch_meets_real_branch(self):
        # at lambda = -h^2 the conjugate pair closes: alpha = -h + 0i has
        # q = 0 and is the real exponent alpha = -h; just off it, at
        # q = 2.5e-15, the one fraction moves by no more than rounding
        p, ss = ConeParams(9, 4), (0.2, 0.6, 0.9)
        assert L_direct(p, complex(-3.5, 0.0), ss) == L_direct(p, -3.5, ss)
        assert L_direct(p, complex(-3.5, 1e-7), ss) == pytest.approx(
            L_direct(p, -3.5, ss), rel=1e-13, abs=1e-13)

    def test_stall_raises(self, monkeypatch):
        # near s = 1 the fraction needs about 9 / sqrt(1-s) levels; a budget
        # below that is a NonConvergenceError, never a silent cut
        monkeypatch.setattr(conelab.cone, "MAX_TERMS", 64)
        with pytest.raises(NonConvergenceError,
                           match=r"^continued fraction of L needs more than 64 levels at "
                                 r"s=0\.999 for alpha=-6\.0, \(n,k\)=\(13,9\)$"):
            L_direct(ConeParams(13, 9), -6.0, (0.3, 0.999))

    def test_no_overflow_past_the_series_frontier(self):
        # (3000, 2990): F at the threshold alpha = -1499 leaves binary64
        # near the root, L does not
        p = ConeParams(3000, 2990)
        r = find_root(p)
        assert not math.isfinite(hyp2f1(profile_params(p, -1499.0), r.s_nk).value)
        assert math.isfinite(L_direct(p, -1499.0, (r.s_nk,))[0])


def test_L_direct_takes_an_iterator():
    # the s-range check once consumed a generator before the fraction saw
    # it, and an empty list came back
    p = ConeParams(7, 2)
    assert L_direct(p, -2.0, (s for s in (0.1, 0.2))) == L_direct(p, -2.0, (0.1, 0.2))
    assert len(L_direct(p, -2.0, iter([0.0, 0.5, 0.9]))) == 3


class TestAdmissibleInterval:
    def test_seven_one_endpoints(self):
        # endpoints solve alpha(alpha + n - 2) = lambda1; frozen from the
        # spectral dual computed independently (lambda1 = -5.6984022):
        p = ConeParams(7, 1)
        rep = verdict(p, find_root(p))
        lo, hi = rep.gamma_minus, rep.gamma_plus
        assert abs(hi - (-1.7573037)) < 1e-6
        assert abs(lo - (-3.2426963)) < 1e-6

    def test_empty_for_unstable(self):
        for p in (ConeParams(5, 2), ConeParams(6, 3)):
            rep = verdict(p, find_root(p))
            assert indicial_roots(rep.lambda1, p.n) is None
            assert rep.gamma_minus is None and rep.gamma_plus is None

    def test_contains_4_minus_n(self):
        for (n, k) in [(7, 2), (9, 5), (12, 7), (15, 1)]:
            p = ConeParams(n, k)
            rep = verdict(p, find_root(p))
            assert rep.gamma_minus < 4.0 - n < rep.gamma_plus

    def test_margin_sign_inside_outside(self):
        p = ConeParams(8, 3)
        r = find_root(p)
        rep = verdict(p, r)
        lo, hi = rep.gamma_minus, rep.gamma_plus
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
