"""Special-function kernel tests: examples with independent oracles,
domain errors, and the module invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelab import specfun
from conelab.errors import DomainError, NonConvergenceError, PoleError
from conelab.specfun import (
    EvalResult,
    HypParams,
    Strategy,
    _pochhammer,
    digamma,
    hyp2f1,
    hyp2f1_deriv,
    hyp2f1_integral,
    hyp2f1_pair,
    laplace_quad,
)

EULER_GAMMA = 0.5772156649015328606


class TestPochhammer:
    def test_empty_product(self):
        assert _pochhammer(5.0, 0)[0] == 1.0

    def test_half_negative(self):
        assert _pochhammer(-0.5, 2)[0] == -0.25

    def test_integer(self):
        assert _pochhammer(3.0, 3)[0] == 60.0

    def test_zero_factor(self):
        assert _pochhammer(-2.0, 5)[0] == 0.0

    def test_large_m_log_space(self):
        # (0.5)_160 = Gamma(160.5)/Gamma(0.5), compare in log space
        from scipy.special import gammaln
        got = _pochhammer(0.5, 160)[0]
        want_log = gammaln(160.5) - gammaln(0.5)
        assert math.isclose(math.log(got), want_log, rel_tol=1e-12)

    def test_large_m_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = mpmath.rf(mpmath.mpf(0.5), 160)
            assert abs(_pochhammer(0.5, 160)[0] - want) <= 1e-15 * abs(want)

    def test_zero_factor_after_overflow(self):
        # the partial product overflows before the factor 0 is reached
        assert _pochhammer(-300.0, 301)[0] == 0.0

    def test_overflow_saturates(self):
        assert _pochhammer(1.5, 300)[0] == math.inf
        assert _pochhammer(-0.5, 301)[0] == -math.inf

    def test_subnormal_rounding_bound_positive(self):
        # the bound every product adds for subnormal rounding must not be 0
        assert specfun._ETA > 0.0

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            _pochhammer(1.0, -1)


class TestDigamma:
    def test_at_one(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-14

    def test_at_half(self):
        assert abs(digamma(0.5) + EULER_GAMMA + 2 * math.log(2)) < 1e-13

    def test_reflection_minus_half(self):
        assert abs(digamma(-0.5) - (digamma(0.5) + 2.0)) < 1e-13

    def test_pole(self):
        with pytest.raises(PoleError):
            digamma(0.0)
        with pytest.raises(PoleError):
            digamma(-3.0)

    def test_log_bounds(self):
        for x in np.linspace(0.6, 1000.0, 100):
            assert math.log(x - 0.5) < digamma(float(x)) < math.log(x)


class TestHyp2f1:
    def test_at_zero(self):
        r = hyp2f1(HypParams(2.3, -0.7, 1.1), 0.0)
        assert r.value == 1.0 and r.terms_used == 0

    def test_binomial_closed_form(self):
        # 2F1(1, 3/2; 1; s) = (1-s)^(-3/2)
        r = hyp2f1(HypParams(1.0, 1.5, 1.0), 0.25)
        assert math.isclose(r.value, 0.75 ** -1.5, rel_tol=1e-13)

    def test_degree_six_polynomial_value(self):
        # 2F1(7/2, -1/2; 1/2; 1/4) = (3/4)^(-5/2) (1 - 6/4 + 8/16 - 16/320)
        r = hyp2f1(HypParams(3.5, -0.5, 0.5), 0.25)
        want = 0.75 ** -2.5 * (1.0 - 6.0 / 4.0 + 8.0 / 16.0 - 16.0 / 320.0)
        assert math.isclose(r.value, want, rel_tol=1e-12)

    def test_gauss_summation_at_one(self):
        from scipy.special import gammaln
        a, b, c = 0.7, -0.4, 1.9
        r = hyp2f1(HypParams(a, b, c), 1.0)
        want = math.exp(gammaln(c) + gammaln(c - a - b)
                        - gammaln(c - a) - gammaln(c - b))
        assert math.isclose(r.value, want, rel_tol=1e-12)

    def test_domain_error_at_one(self):
        with pytest.raises(DomainError):
            hyp2f1(HypParams(2.0, 1.5, 1.0), 1.0)

    def test_s_outside_domain(self):
        with pytest.raises(DomainError):
            hyp2f1(HypParams(1.0, 1.0, 2.0), 1.5)

    def test_c_validation(self):
        with pytest.raises(DomainError):
            HypParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            HypParams(1.0, 1.0, -2.0)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 64)
        with pytest.raises(NonConvergenceError):
            hyp2f1(HypParams(30.0, 25.0, 1.5), 0.45)

    def test_strategy_bookkeeping(self):
        assert hyp2f1(HypParams(2.0, 1.0, 3.0), 0.3).strategy is Strategy.DIRECT_SERIES
        # c - a nonpositive integer beyond the switch point: Euler transform
        assert hyp2f1(HypParams(4.0, -0.5, 3.0), 0.8).strategy is Strategy.EULER_TRANSFORM
        # non-integer c - a and c - b, half-integer c - a - b, far beyond
        # the direct window: connection formula
        assert (hyp2f1(HypParams(9.5, -0.5, 7.25), 0.999).strategy
                is Strategy.CONNECTION_AT_1)
        # integer c - a - b (log case) far beyond the direct window
        assert (hyp2f1(HypParams(5.5, -0.5, 5.0), 0.995).strategy
                is Strategy.CONNECTION_AT_1)

    def test_near_one_log_case_against_mpmath_value(self):
        # frozen from mpmath.hyp2f1 at 50 digits, evaluated at the exact
        # binary64 representation of 1 - 2e-9
        r = hyp2f1(HypParams(5.5, -0.5, 5.0), 1.0 - 2e-9)
        assert math.isclose(r.value, -2.2283685964523333, rel_tol=1e-11)

    def test_negative_argument(self):
        # Euler ODE solution is analytic on (-1, 0]; compare to integral form
        hp = HypParams(0.8, 1.2, 2.5)
        r = hyp2f1(hp, -0.6)
        q = hyp2f1_integral(hp, -0.6)
        assert math.isclose(r.value, q.value, rel_tol=1e-10)


class TestDeriv:
    def test_first_coefficient(self):
        r = hyp2f1_deriv(HypParams(3.0, -0.5, 0.5), 0.0, 1)
        assert r.value == -3.0

    def test_generic_leading(self):
        a, b, c = 1.7, -0.3, 2.2
        r = hyp2f1_deriv(HypParams(a, b, c), 0.0, 1)
        assert math.isclose(r.value, a * b / c, rel_tol=1e-14)

    def test_closed_form_derivative(self):
        # d/ds (1-s)^(-3/2) = 3/2 (1-s)^(-5/2)
        r = hyp2f1_deriv(HypParams(1.0, 1.5, 1.0), 0.25, 1)
        assert math.isclose(r.value, 1.5 * 0.75 ** -2.5, rel_tol=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.uniform(-1.0, 4.0)
            b = rng.uniform(-1.0, 3.0)
            c = rng.uniform(0.4, 4.0)
            s = rng.uniform(0.02, 0.9)
            hp = HypParams(a, b, c)
            h = 1e-6
            fd = (hyp2f1(hp, s + h).value - hyp2f1(hp, s - h).value) / (2 * h)
            an = hyp2f1_deriv(hp, s, 1).value
            assert math.isclose(fd, an, rel_tol=1e-6, abs_tol=1e-8)

    def test_all_orders_negative_for_b_mhalf(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.uniform(0.3, 8.0)
            c = rng.uniform(0.4, 6.0)
            s = rng.uniform(0.02, 0.97)
            for m in (1, 2, 3, 4):
                assert hyp2f1_deriv(HypParams(a, -0.5, c), s, m).value < 0.0


def _outcome(call):
    """What call returns, or the type of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


@st.composite
def pair_args(draw):
    """(a, b, c, s) across every route of hyp2f1 and of F''s shifted series:
    generic, terminating, an Euler block beyond the switch point (c is a
    multiple of 2^-8, so c - (c + j) is exactly -j), c-a-b an integer or
    within 1e-9 of one, and s above 0.99."""
    c = draw(st.integers(1, 4096)) / 256.0
    a, b = draw(st.floats(-8.0, 20.0)), draw(st.floats(-8.0, 20.0))
    s = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    route = draw(st.sampled_from(("generic", "terminating", "euler", "log", "near_one")))
    if route == "terminating":
        a = -float(draw(st.integers(0, 6)))
    elif route == "euler":
        a = c + draw(st.integers(0, 2))
        s = draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    elif route == "log":
        b = c - a - draw(st.integers(-3, 3)) + draw(st.sampled_from((0.0, 1e-10, -5e-10)))
        s = draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    elif route == "near_one":
        s = draw(st.floats(0.99, 1.0, exclude_max=True))
    return a, b, c, s


class TestPair:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pair_args())
    # L_direct's barrier points of (n, k) = (400, 394) and (400, 380) at
    # alpha = 4 - n: s_star (Euler transform for d = 6, capped direct
    # series for d = 20) and points inside the direct window
    @example((1.0, 198.0, 197.0, 0.99276387818866))
    @example((1.0, 198.0, 190.0, 0.9635078105935821))
    @example((1.0, 198.0, 197.0, 0.3))
    @example((1.0, 198.0, 197.0, 0.0))
    @example((0.0, 2.5, 1.5, 0.4))  # F' = 0: hyp2f1_deriv's shortcut
    @example((-1.0, 3.5, 1.0, 0.5))  # the (7, 2) profile at alpha = -7, where F < 0
    # domain errors: of F at s = 1 and beyond, of F' alone at s = 1
    @example((2.0, 1.5, 1.0, 1.0))
    @example((1.0, 1.0, 2.0, 1.5))
    @example((0.7, 0.4, 1.9, 1.0))
    def test_equals_separate_calls(self, args):
        _assert_pair_matches(*args)

    @pytest.mark.parametrize("max_terms", [64, 153, 154])
    def test_budget_exhaustion(self, monkeypatch, max_terms):
        # F needs 153 terms and F''s shifted series 154: both, only F' or
        # neither exhaust the budget
        monkeypatch.setattr(specfun, "MAX_TERMS", max_terms)
        _assert_pair_matches(30.0, 25.0, 1.5, 0.45)


def _assert_pair_matches(a, b, c, s):
    p = HypParams(a, b, c)
    want = _outcome(lambda: (hyp2f1(p, s), hyp2f1_deriv(p, s, 1)))
    assert _outcome(lambda: hyp2f1_pair(p, s)) == want


class TestIntegralOracle:
    def test_normalization(self):
        r = hyp2f1_integral(HypParams(1.0, 1.5, 2.5), 0.0)
        assert math.isclose(r.value, 1.0, rel_tol=1e-12)

    def test_agreement_examples(self):
        for (a, b, c, s) in [(1.0, 1.5, 2.0, 0.9), (0.5, 1.0, 3.0, 0.5)]:
            hp = HypParams(a, b, c)
            f = hyp2f1(hp, s).value
            g = hyp2f1_integral(hp, s).value
            assert abs(f - g) <= 1e-10 * max(1.0, abs(f))

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp2f1_integral(HypParams(1.0, -0.5, 2.0), 0.3)
        with pytest.raises(DomainError):
            hyp2f1_integral(HypParams(1.0, 3.0, 2.0), 0.3)

    @pytest.mark.parametrize("a,b,c,s", [
        (0.8, 1.2, 2.5, -0.6),  # negative argument
        (1.0, 0.2, 0.4, 0.9),  # b = 0.2: a window of 4 would miss by 4.7e-8
        (5.0, 0.2, 4.2, 0.95),
        (-2.0, 4.0, 4.2, 0.95),  # c - b = 0.2 at the other end
        (4.5, 3.9, 7.8, 0.95),
        (-1.7, 0.3, 0.6, -0.6),
    ])
    def test_tanh_sinh_against_mpmath(self, a, b, c, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.hyp2f1(a, b, c, s))
        got = hyp2f1_integral(HypParams(a, b, c), s)
        assert abs(got.value - want) <= 1e-14 * max(1.0, abs(want))
        assert abs(got.value - want) <= got.err_estimate

    def test_cross_agreement_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            b = rng.uniform(0.2, 4.0)
            c = b + rng.uniform(0.2, 4.0)
            a = rng.uniform(-2.0, 5.0)
            s = rng.uniform(0.0, 0.95)
            hp = HypParams(a, b, c)
            f = hyp2f1(hp, s).value
            g = hyp2f1_integral(hp, s).value
            assert abs(f - g) <= 1e-9 * max(1.0, abs(f))


class TestEulerOdeResidual:
    def test_residual_on_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            a = rng.uniform(-2.0, 5.0)
            b = rng.uniform(-1.0, 4.0)
            c = rng.uniform(0.3, 5.0)
            s = rng.uniform(0.02, 0.93)
            hp = HypParams(a, b, c)
            F = hyp2f1(hp, s).value
            F1 = hyp2f1_deriv(hp, s, 1).value
            F2 = hyp2f1_deriv(hp, s, 2).value
            t1 = s * (1 - s) * F2
            t2 = (c - (a + b + 1) * s) * F1
            t3 = a * b * F
            assert abs(t1 + t2 - t3) <= 1e-8 * max(1.0, abs(t1), abs(t2), abs(t3))


def _laplace_quad_scipy(rho, power, half_weight):
    """The adaptive-quadrature formulation laplace_quad had before its
    closed forms: split at tau = 1; the head substitutes tau = w^2 under
    the half weight, the tail tau = 1 + u/(1-u)."""
    from scipy.integrate import quad

    if half_weight:
        def head(w):
            t = w * w
            return 2.0 * math.exp(-t / 2.0) * (t + rho) ** (-power)
    else:
        def head(t):
            return math.exp(-t / 2.0) * (t + rho) ** (-power)

    def tail(u):
        t = 1.0 + u / (1.0 - u)
        w = t ** -0.5 if half_weight else 1.0
        return math.exp(-t / 2.0) * w * (t + rho) ** (-power) / (1.0 - u) ** 2

    head_val, _ = quad(head, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    tail_val, _ = quad(tail, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    return head_val + tail_val


LAPLACE_CASES = [(power, half) for power in (1, 2) for half in (False, True)]


class TestLaplaceQuad:
    @pytest.mark.parametrize("rho", [0.25, 1.1, 3.0])
    @pytest.mark.parametrize("power,half_weight", LAPLACE_CASES)
    def test_matches_quadrature(self, rho, power, half_weight):
        want = _laplace_quad_scipy(rho, power, half_weight)
        assert math.isclose(laplace_quad(rho, power, half_weight), want, rel_tol=1e-13)

    @pytest.mark.parametrize("power,half_weight", LAPLACE_CASES)
    def test_large_rho_matches_mpmath(self, power, half_weight):
        # at rho = 1e6 the quadrature formulation itself is off by up to
        # 1.1e-6 (power 2), so 40-digit mpmath is the oracle there
        mpmath = pytest.importorskip("mpmath")
        rho = 1e6
        with mpmath.workdps(40):
            r = mpmath.mpf(rho)
            want = float(mpmath.quad(
                lambda t: mpmath.exp(-t / 2) * (t ** -0.5 if half_weight else 1) * (t + r) ** -power,
                [0, 1, r, mpmath.inf]))
        assert math.isclose(laplace_quad(rho, power, half_weight), want, rel_tol=1e-13)

    @pytest.mark.parametrize("rho", [1e-300, 1e300])
    def test_extreme_rho(self, rho):
        # no factor overflows on its own: only the half-weight power-2
        # integral, ~ (pi/2) rho^(-3/2) as rho -> 0, exceeds binary64
        for power, half_weight in LAPLACE_CASES:
            v = laplace_quad(rho, power, half_weight)
            if rho < 1.0 and half_weight and power == 2:
                assert v == math.inf
            else:
                assert math.isfinite(v) and v >= 0.0

    def test_large_rho_asymptote(self):
        # int e^(-tau/2) / (tau + rho) ~ 2 / rho
        got = laplace_quad(1e6, 1, False)
        assert math.isclose(got, 2e-6, rel_tol=1e-4)

    def test_case3_composite(self):
        rho = 0.25
        val = (laplace_quad(rho, 2, False) / laplace_quad(rho, 1, False)
               - (1 - rho) / (2 * rho))
        assert val > 3.0 / 20.0

    def test_case4_composite(self):
        val = 2.0 * laplace_quad(1.1, 2, True) / laplace_quad(1.1, 1, True)
        assert val > 7.0 / 5.0

    def test_half_weight_closed_form(self):
        # at power 1 the half-weight integral is pi e^(rho/2) erfc(sqrt(rho/2)) / sqrt(rho)
        from scipy.special import erfc
        rho = 0.8
        want = math.pi * math.exp(rho / 2) * erfc(math.sqrt(rho / 2)) / math.sqrt(rho)
        assert math.isclose(laplace_quad(rho, 1, True), want, rel_tol=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_quad(0.0, 1, False)
        with pytest.raises(ValueError):
            laplace_quad(1.0, 3, False)


class TestSeriesControl:
    def test_err_estimate_honest(self):
        r = hyp2f1(HypParams(1.2, 0.7, 2.0), 0.4)
        assert r.err_estimate >= 0.0
        assert r.terms_used <= specfun.MAX_TERMS
        assert isinstance(r, EvalResult)
