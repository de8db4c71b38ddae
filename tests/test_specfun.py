"""Special-function kernel tests: examples with independent oracles,
domain errors, and the module invariants."""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import conelab._backend
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
    laplace_quad,
)

EULER_GAMMA = 0.5772156649015328606

# repr of every field of hyp2f1 and hyp2f1_deriv (m = 1, 2) on
# _route_cases(), as the evaluation routes gave them when the file was
# written; rewrite it with `PYTHONPATH=src python tests/test_specfun.py`
# only for a change that is meant to move a value, and say which and why
ROUTES_GOLDEN = Path(__file__).parent / "data" / "hyp2f1_routes.json"


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

    def test_params_record_contract(self):
        p = HypParams(a=0.5, b=-0.25, c=1.5)
        assert (p.a, p.b, p.c) == (0.5, -0.25, 1.5)
        assert repr(p) == "HypParams(a=0.5, b=-0.25, c=1.5)"
        with pytest.raises(AttributeError):
            p.c = 2.0
        with pytest.raises(DomainError, match=r"^c must be positive, got c=0\.0$"):
            HypParams(1.0, 1.0, c=0.0)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 64)
        with pytest.raises(NonConvergenceError):
            hyp2f1(HypParams(30.0, 25.0, 1.5), 0.45)

    def test_log_case_finite_sum_budget(self):
        # c-a-b = 40001: the finite part of DLMF 15.8.10 and psi(m+1)
        # would each take more terms than MAX_TERMS allows a series
        with pytest.raises(NonConvergenceError,
                           match="log-case finite sum needs 40001 terms, above 40000, at s="):
            hyp2f1(HypParams(1.5, -0.5, 40002.0), 0.995)

    def test_overflowed_series_exits_on_its_cause(self):
        # the direct series of 2F1(80003.5, -1/2; 40001.5; 0.6506) overflows
        # to -inf; the kernel reports that total as not converged, so the
        # router goes on to the connection formula, whose series stall, and
        # the error names them instead of returning f = nan
        with pytest.raises(NonConvergenceError,
                           match=r"^connection series stalled for \(a,b,c,s\)="
                                 r"\(80003\.5,-0\.5,40001\.5,0\.6506285419584766\)$"):
            hyp2f1(HypParams(80003.5, -0.5, 40001.5), 0.6506285419584766)

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

    @pytest.mark.parametrize("a, s, m", [(0.0, math.nan, 1), (-1.0, 3.0, 2)])
    def test_s_outside_domain_below_degree(self, a, s, m):
        # a polynomial of degree below m has derivative 0 only on the domain
        with pytest.raises(DomainError):
            hyp2f1_deriv(HypParams(a, 2.5, 1.5), s, m)

    def test_all_orders_negative_for_b_mhalf(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.uniform(0.3, 8.0)
            c = rng.uniform(0.4, 6.0)
            s = rng.uniform(0.02, 0.97)
            for m in (1, 2, 3, 4):
                assert hyp2f1_deriv(HypParams(a, -0.5, c), s, m).value < 0.0


class TestPair:
    """F and F' of one parameter triple, each through its own route."""

    @pytest.mark.parametrize("max_terms", [64, 153, 154])
    def test_budget_exhaustion(self, monkeypatch, max_terms):
        # F needs 34, 98 and 153 terms at s = 0.05, 0.3 and 0.45, and F''s
        # shifted series 34, 99 and 154: each raises exactly where its
        # series outgrows the budget
        monkeypatch.setattr(specfun, "MAX_TERMS", max_terms)
        p = HypParams(30.0, 25.0, 1.5)
        for s, need_f, need_fp in ((0.05, 34, 34), (0.3, 98, 99), (0.45, 153, 154)):
            for call, need in ((lambda: hyp2f1(p, s), need_f),
                               (lambda: hyp2f1_deriv(p, s, 1), need_fp)):
                if need <= max_terms:
                    assert call().terms_used == need
                else:
                    with pytest.raises(NonConvergenceError, match="direct series exhausted"):
                        call()

    def test_failed_capped_attempt_runs_once(self, monkeypatch):
        # F = 2F1(60, 60; 1; 0.98) and F''s shifted 2F1(61, 61; 2; 0.98):
        # each capped direct attempt fails once, then c - a is a
        # nonpositive integer and the Euler-transformed series terminates
        budgets = []

        def counted(*args):
            budgets.append(args[-1])
            return conelab._backend.hyp2f1_series(*args)

        monkeypatch.setattr(specfun, "_series_kernel", counted)
        p = HypParams(60.0, 60.0, 1.0)
        f, fp = hyp2f1(p, 0.98), hyp2f1_deriv(p, 0.98, 1)
        assert f.strategy is fp.strategy is Strategy.EULER_TRANSFORM
        assert budgets == [8000, specfun.MAX_TERMS] * 2


def _route_cases():
    """(a, b, c, ss) over every route of 2F1 and of the shifted series of
    its derivatives: the direct window and s < 0, a terminating series
    beyond the switch point, the Euler block, a capped direct attempt that
    converges and one that does not, s above 0.99, c-a-b an integer (of
    either sign, or 0) or within 1e-9 of one, s = 0 and s = 1, domain
    errors, the barrier points of (n, k) = (400, 394) and (400, 380) at
    alpha = 4 - n, then seeded draws of generic, terminating, Euler-block
    and log-case parameters."""
    cases = [
        (1.2, 0.7, 2.0, [0.0, 0.3, 0.5, -0.2, -0.6, -0.95]),
        (-3.0, 2.5, 1.5, [0.8, 0.995, -0.9]),  # terminating, F' and F'' too
        (4.0, -0.5, 3.0, [0.8, 0.995]),  # Euler block, c - a = -1
        (1.7, -0.3, 2.2, [0.7, 0.9]),  # capped attempt converges
        (60.0, 60.0, 1.0, [0.98]),  # capped attempt fails, then the log case
        (60.3, 59.9, 1.7, [0.98]),  # capped attempt fails, then the connection
        (9.5, -0.5, 7.25, [0.999]),  # connection formula
        (5.5, -0.5, 5.0, [0.995, 1.0 - 2e-9]),  # log case, c-a-b = 0
        (0.5, 0.5, 3.0, [0.995]),  # log case, c-a-b = 2
        (2.3, 2.7, 1.0, [0.995]),  # log case, c-a-b = -4, through Euler
        (2.0, 1.5, 3.5 + 1e-10, [0.9, 0.999]),  # c-a-b within 1e-9 of 0
        (0.7, -0.4, 1.9, [1.0]),  # Gauss summation
        (1.2, 0.7, 2.0, [math.nan, 1.5, -1.0]),  # domain errors
        (1.0, 198.0, 197.0, [0.99276387818866, 0.3, 0.0, 0.7]),
        (1.0, 198.0, 190.0, [0.9635078105935821]),
        (0.0, 2.5, 1.5, [0.4, 0.0]),
        (-1.0, 3.5, 1.0, [0.2, 0.5]),
        (2.0, 1.5, 1.0, [0.3, 1.0, 0.5]),
        (1.0, 1.0, 2.0, [1.5]),
        (0.7, 0.4, 1.9, [0.2, 0.0, 1.0, 1.5]),
    ]
    rng = random.Random(19)
    for route in ("generic", "terminating", "euler", "log") * 8:
        c = rng.randint(1, 4096) / 256.0
        a, b = rng.uniform(-8.0, 20.0), rng.uniform(-8.0, 20.0)
        if route == "terminating":
            a = -float(rng.randint(0, 6))
        elif route == "euler":
            a = c + rng.randint(0, 2)
        elif route == "log":
            b = c - a - rng.randint(-3, 3) + rng.choice((0.0, 1e-10, -5e-10))
        ss = [rng.choice((0.0, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.0),
                          rng.uniform(0.99, 1.0))) for _ in range(3)]
        cases.append((a, b, c, ss))
    return cases


def _fields(call):
    """repr of every field of the EvalResult call returns, or the type and
    message of the exception it raises."""
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - the type and message are recorded
        return [type(exc).__name__, str(exc)]
    return [repr(x) for x in out]


def _route_records():
    records = []
    for a, b, c, ss in _route_cases():
        p = HypParams(a, b, c)
        records.append({
            "args": [repr(a), repr(b), repr(c), [repr(s) for s in ss]],
            "points": [[_fields(lambda: hyp2f1(p, s)),
                        _fields(lambda: hyp2f1_deriv(p, s, 1)),
                        _fields(lambda: hyp2f1_deriv(p, s, 2))] for s in ss],
        })
    return records


def test_series_span_matches_router():
    # series_span states where _route takes the direct series, for the
    # solver kernel; the router tests the same constants inline, so on
    # every route case, and on each side of the span's limits, the span's
    # sum with its budget predicts the router's direct series, and its
    # value, exactly
    for a, b, c, ss in _route_cases():
        span = specfun.series_span(a, b, c)
        _, _, _, s_full, s_cut, rel_tol, abs_tol, full_terms, cut_terms = span
        p = HypParams(a, b, c)
        for s in ss + [x for lim in (s_full, s_cut) for x in (lim, math.nextafter(lim, 2.0))]:
            if not -1.0 < s < 1.0:
                continue
            budget = full_terms if s <= s_full else cut_terms if s <= s_cut else 0
            value, _, _, ok = conelab._backend.hyp2f1_series(a, b, c, s, rel_tol, abs_tol,
                                                              budget)
            try:
                got = hyp2f1(p, s)
            except NonConvergenceError:
                got = None
            if budget and ok:
                assert got.strategy is Strategy.DIRECT_SERIES and got.value == value, (a, b, c, s)
            else:
                assert got is None or got.strategy is not Strategy.DIRECT_SERIES, (a, b, c, s)


def test_routes_match_golden():
    golden = json.loads(ROUTES_GOLDEN.read_text())
    records = _route_records()
    assert len(records) == len(golden)
    for got, want in zip(records, golden):
        assert got == want, got["args"]


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

    @pytest.mark.parametrize("b, c, s", [(1.5, 2.5, math.nan), (1.5, 2.5, -math.inf),
                                         (1.5, math.inf, 0.3), (math.inf, math.inf, 0.3)],
                             ids=["s_nan", "s_minus_inf", "c_inf", "b_inf"])
    def test_domain_non_finite(self, b, c, s):
        # these returned NaN; hyp2f1 refuses them too
        with pytest.raises(DomainError):
            hyp2f1_integral(HypParams(1.0, b, c), s)

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


if __name__ == "__main__":
    ROUTES_GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in _route_records()) + "\n]\n")
