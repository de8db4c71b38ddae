"""Cross-checks against 40-digit mpmath: every err_estimate of hyp2f1,
hyp2f1_deriv and hyp2f1_integral is a bound on the true error; L from
Gauss's continued fraction agrees with 50-digit F'/F, for real exponents
and the conjugate pair; and the free-boundary roots, the decay rates
gamma+ and the first eigenvalues of the cells with complex gamma+- agree
with roots of mpmath's 2F1.  Skipped when mpmath or hypothesis is not
installed."""

import json
import math
import random

import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conelab import checks  # noqa: E402
from conelab.cli import main  # noqa: E402
from conelab.cone import (ConeParams, L_direct, find_root, indicial_roots,  # noqa: E402
                          profile_params)
from conelab.specfun import (HypParams, Strategy, hyp2f1, hyp2f1_deriv,  # noqa: E402
                             hyp2f1_integral)

BOUND_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                          database=None)


def _reference(a, b, c, s):
    with mpmath.workdps(40):
        try:
            return mpmath.hyp2f1(mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c),
                                 mpmath.mpf(s))
        except ValueError:  # mpmath could not reach its own accuracy
            return None


def _require(condition):
    assert condition


def _euler_reference(a, b, c, s):
    """40-digit 2F1 through Euler's transformation (DLMF 15.8.1) for c - a
    a nonpositive integer, where mpmath sums the transformed series as a
    polynomial of the exact parameters; mpmath.hyp2f1(a, b; c; s) itself
    takes seconds there once b is within 1e-100 of 0."""
    with mpmath.workdps(40):
        a_, b_, c_, s_ = (mpmath.mpf(x) for x in (a, b, c, s))
        return (1 - s_) ** (c_ - a_ - b_) * mpmath.hyp2f1(c_ - a_, c_ - b_, c_, s_)


def _assert_bounded(a, b, c, s, strategy, require=assume, reference=_reference):
    """|hyp2f1 - mpmath| <= err_estimate; `require` rejects draws that
    take another strategy (in examples, it fails on them)."""
    r = hyp2f1(HypParams(a, b, c), s)
    require(r.strategy is strategy and math.isfinite(r.value))
    ref = reference(a, b, c, s)
    require(ref is not None)
    err = abs(mpmath.mpf(r.value) - ref)
    assert err <= r.err_estimate, (
        f"2F1({a!r}, {b!r}; {c!r}; {s!r}) = {r.value!r} is off by {float(err):.3e}, "
        f"reported {r.err_estimate:.3e} ({r.strategy.value})")
    return r


# the profile family of the cones: degree-alpha profile of (n, k), whose
# c - a - b = (2 - d) / 2 is an integer (the log case) exactly for even d
@st.composite
def profile(draw, parity=None):
    n = draw(st.integers(5, 200))
    k = draw(st.integers(1, n - 2))
    if parity is not None:
        assume((n - k) % 2 == parity)
    alpha = draw(st.floats(1.0 - n, 1.0))
    hp = profile_params(ConeParams(n, k), alpha)
    return hp.a, hp.b, hp.c


near_one = st.floats(0.99, 1.0 - 2e-9)


@pytest.mark.parametrize("a, b, c, s", [
    (59.5, -0.5, 30.0, 0.95),
    (99.5, -0.5, 50.0, 0.9),
    (39.5, -0.5, 20.0, 0.97),
    (37.0, 37.0, 73.0, 0.9886),
])
def test_direct_series_bound_examples(a, b, c, s):
    # accurate values, so each estimate is finite too
    r = _assert_bounded(a, b, c, s, Strategy.DIRECT_SERIES, _require)
    assert math.isfinite(r.err_estimate)


@BOUND_SETTINGS
@given(st.floats(-5.0, 60.0), st.floats(-3.0, 5.0), st.floats(0.1, 40.0),
       st.floats(-0.9, 0.5))
# the joint term ratio bounds this tail, where the product of the factor
# suprema exceeds 1 and the estimate was infinite
@example(37.0, 37.0, 73.0, 0.9886)
def test_direct_series_bound(a, b, c, s):
    _assert_bounded(a, b, c, s, Strategy.DIRECT_SERIES)


# mpmath is slow on large parameters short of s = 1 (11 s for 150 draws)
@settings(BOUND_SETTINGS, max_examples=40)
@given(profile(), st.floats(0.5, 0.99))
def test_direct_series_bound_profiles(abc, s):
    _assert_bounded(*abc, s, Strategy.DIRECT_SERIES)


@BOUND_SETTINGS
@given(profile(parity=1), near_one)
def test_connection_bound_profiles(abc, s):
    _assert_bounded(*abc, s, Strategy.CONNECTION_AT_1)


@BOUND_SETTINGS
@given(st.floats(0.05, 30.0), st.floats(-3.0, 10.0), st.integers(-10, 5),
       st.floats(0.05, 0.95), near_one)
def test_connection_bound(a, b, m, frac, s):
    c = a + b + m + frac
    assume(c > 0.0)
    _assert_bounded(a, b, c, s, Strategy.CONNECTION_AT_1)


@BOUND_SETTINGS
@given(profile(parity=0), near_one)
def test_log_case_bound_profiles(abc, s):
    _assert_bounded(*abc, s, Strategy.CONNECTION_AT_1)


@BOUND_SETTINGS
@given(st.floats(0.05, 30.0), st.floats(-3.0, 10.0), st.integers(-13, 5), near_one)
def test_log_case_bound(a, b, m, s):
    # c - a - b is an integer only up to the rounding of c
    c = a + b + m
    assume(c > 0.0)
    _assert_bounded(a, b, c, s, Strategy.CONNECTION_AT_1)


# c - a = -N and c - a - b within 1e-9 of the negative integer -m: past
# the degree-2 Euler block, the log case sums the terminating transformed
# series; c is a multiple of 2^-40, so c - (c + N) is exactly -N
@st.composite
def euler_terminating(draw):
    c = math.ldexp(round(math.ldexp(draw(st.floats(0.1, 20.0)), 40)), -40)
    a = c + draw(st.integers(3, 6))
    b = (c - a) + draw(st.integers(1, 6)) + draw(st.floats(-1e-9, 1e-9))
    return a, b, c


@BOUND_SETTINGS
@given(euler_terminating(), near_one)
@example((5.5, 1.0000000001, 2.5), 0.995)
@example((7.795852976036528, 0.9999999995, 4.795852976036528), 0.999999)
def test_euler_terminating_bound(abc, s):
    _assert_bounded(*abc, s, Strategy.EULER_TRANSFORM, reference=_euler_reference)


def test_log_case_examples_against_mpmath():
    # s = 1 - 2e-9 is the largest argument find_root admits
    for (a, b, c) in [(5.5, -0.5, 5.0), (19.5, -0.5, 13.0), (3.0, -0.5, 2.5)]:
        r = _assert_bounded(a, b, c, 1.0 - 2e-9, Strategy.CONNECTION_AT_1, _require)
        assert r.err_estimate <= 1e-11 * abs(r.value)


@BOUND_SETTINGS
@given(st.floats(0.1, 20.0), st.floats(-3.0, 3.0), st.floats(0.2, 20.0),
       st.floats(0.01, 0.5), st.integers(1, 3))
# the prefactor (a)_m (b)_m / (c)_m is subnormal here
@example(0.5, 2.03e-308, 2.5, 0.5, 1)
def test_deriv_bound(a, b, c, s, m):
    """|hyp2f1_deriv - mpmath| <= err_estimate, with the exact shifted
    parameters a+m, b+m, c+m on the mpmath side."""
    r = hyp2f1_deriv(HypParams(a, b, c), s, m)
    with mpmath.workdps(40):
        a_, b_, c_, s_ = (mpmath.mpf(x) for x in (a, b, c, s))
        ref = (mpmath.rf(a_, m) * mpmath.rf(b_, m) / mpmath.rf(c_, m)
               * mpmath.hyp2f1(a_ + m, b_ + m, c_ + m, s_))
        err = abs(mpmath.mpf(r.value) - ref)
    assert err <= r.err_estimate, (
        f"d^{m}/ds^{m} 2F1({a!r}, {b!r}; {c!r}; {s!r}) = {r.value!r} is off by "
        f"{float(err):.3e}, reported {r.err_estimate:.3e}")


def test_integral_bound_on_suite_draws():
    """hyp2f1_integral, whose nodes stop where their terms fall below 1e-20
    of the sum, within its err_estimate of 40-digit mpmath on the 200 draws
    of verify's series_vs_integral_200."""
    rng = random.Random(checks.SEED)
    for _ in range(200):
        b = rng.uniform(0.2, 4.0)
        c = b + rng.uniform(0.2, 4.0)
        a = rng.uniform(-2.0, 5.0)
        s = rng.uniform(0.0, 0.95)
        r = hyp2f1_integral(HypParams(a, b, c), s)
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(r.value) - _reference(a, b, c, s))
        assert err <= r.err_estimate, (a, b, c, s, float(err), r.err_estimate)


def _mp_L(n, k, alpha, s):
    """L(s) = 2s(1-s) F'/F - (n-2)s + (k-1) of the degree-alpha profile at
    50 digits; alpha may be complex, and then the real part is taken."""
    with mpmath.workdps(50):
        al, s_ = mpmath.mpmathify(alpha), mpmath.mpf(s)
        a, b, c = (n + al - 2) / 2, -al / 2, mpmath.mpf(k) / 2
        ratio = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, s_) / mpmath.hyp2f1(a, b, c, s_)
        return mpmath.re(2 * s_ * (1 - s_) * ratio - (n - 2) * s_ + (k - 1))


@st.composite
def L_args(draw):
    """(n, k, alpha, s) with d = n - k >= 3: alpha in [2-n, 0], or
    (2-n)/2 + i w, the conjugate pair below lambda = -h^2 (w up to n, past
    the sqrt(3) h of the deepest bracket end); s up to 1 - 1e-6."""
    n = draw(st.integers(4, 60))
    k = draw(st.integers(1, n - 3))
    if draw(st.booleans()):
        alpha = draw(st.floats(2.0 - n, 0.0))
    else:
        alpha = complex((2.0 - n) / 2.0, draw(st.floats(0.0, float(n))))
    s = draw(st.one_of(st.floats(0.0, 0.9), st.floats(0.9, 1.0 - 1e-6)))
    return n, k, alpha, s


@BOUND_SETTINGS
@given(L_args())
# G = 2F1(1/2, 1; 3; s): every level k_j is 1/4, where a stop on the step
# ratio of the modified Lentz method never fires
@example((11, 6, -5.0, 0.9999))
@example((11, 6, -5.0, 1.0 - 1e-6))
# the ends of the range, and limit_at_one's slowest point
@example((7, 1, -5.0, 0.9))
@example((7, 1, 0.0, 0.9))
@example((13, 9, -6.0, 1.0 - 1e-6))
def test_L_direct_against_mpmath(args):
    """L_direct within 1e-12 max(1, |L|) of 50-digit mpmath for d >= 3."""
    n, k, alpha, s = args
    got = L_direct(ConeParams(n, k), alpha, (s,))[0]
    want = _mp_L(n, k, alpha, s)
    assert abs(got - want) <= 1e-12 * max(1, abs(want)), (n, k, alpha, s, got, float(want))


def test_L_direct_real_exponents_past_n60():
    """Real exponents at 61 <= n <= 400, past the n <= 60 of L_args, where
    verify and the verdict evaluate L: 40 seeded draws of alpha in
    [2-n, 0] and s in (0, s_nk], within 1e-12 max(1, |L|)."""
    rng = random.Random(20261021)
    for _ in range(40):
        n = rng.randint(61, 400)
        p = ConeParams(n, rng.randint(1, n - 2))
        alpha = rng.uniform(2.0 - n, 0.0)
        s = find_root(p).s_nk * (1.0 - rng.random())
        got = L_direct(p, alpha, (s,))[0]
        want = _mp_L(n, p.k, alpha, s)
        assert abs(got - want) <= 1e-12 * max(1, abs(want)), (n, p.k, alpha, s, got, float(want))


@pytest.mark.parametrize("n", checks.BARRIER_N)
def test_L_direct_on_the_barrier_samples(monkeypatch, n):
    """alpha = 4-n on the comparison sample of each barrier cell of verify,
    up to s*: every 32nd point of the grid verify_barrier hands L_direct,
    and s*, within 1e-12 max(1, |L|).  For even d, A = (4-d)/2 is a
    nonpositive integer and the fraction terminates."""
    grids = []

    def recorded(p, alpha, ss):
        ss = list(ss)
        grids.append((p, alpha, ss))
        return L_direct(p, alpha, ss)

    monkeypatch.setattr(checks, "L_direct", recorded)
    for d in checks.BARRIER_D:
        checks.verify_barrier(ConeParams(n, n - d))
    assert len(grids) == len(checks.BARRIER_D)
    for p, alpha, ss in grids:
        points = ss[::32] + ss[-1:]
        for s, got in zip(points, L_direct(p, alpha, points)):
            want = _mp_L(n, p.k, alpha, s)
            assert abs(got - want) <= 1e-12 * max(1, abs(want)), (n, p.k, s, got, float(want))


@pytest.mark.xfail(strict=True, reason="the fraction loses every digit here (CHANGES.md FOUND)")
@pytest.mark.parametrize("n, k, alpha, s", [(397, 134, -0.19969747078938282, 0.8995963319405105),
                                             (317, 139, -0.3259525388014026, 0.9906095480678031)])
def test_L_direct_far_above_the_root_at_large_n(n, k, alpha, s):
    """Outside the domain the library uses: alpha near 0 and s far above
    the root, at n in the hundreds.  L_direct gives -222.37 and -2.635
    where 50-digit F'/F gives -1.090415 and -1.0096874431, as specfun's
    hyp2f1 and hyp2f1_deriv do."""
    got = L_direct(ConeParams(n, k), alpha, (s,))[0]
    want = _mp_L(n, k, alpha, s)
    assert abs(got - want) <= 1e-12 * max(1, abs(want)), (got, float(want))


@pytest.mark.parametrize("n", [61, 120, 200])
def test_L_direct_pair_at_the_deepest_bracket_end(n):
    """The conjugate pair at w = sqrt(3) h, about 0.87(n-2), the largest w
    the lambda-solve reaches, past the n <= 60 of L_args: its contracted
    levels round worse as w grows, and d = 3 near s = 1 is the slowest."""
    h = (n - 2) / 2
    alpha = complex(-h, math.sqrt(3.0) * h)
    for k in (1, n // 2, n - 3):
        for s in (0.3, 0.99, 1.0 - 1e-6):
            got = L_direct(ConeParams(n, k), alpha, (s,))[0]
            want = _mp_L(n, k, alpha, s)
            assert abs(got - want) <= 1e-12 * max(1, abs(want)), (n, k, s, got, float(want))


@pytest.mark.xfail(strict=True,
                   reason="the pair's contraction rounds worse at large w (CHANGES.md FOUND)")
def test_L_direct_pair_far_past_the_bracket():
    """(8,5) at w = 6855, far past any w the library asks for: L_direct
    errs 4.2e-10 relative (the complex fraction it replaced erred 2.8e-13),
    and cutting deeper does not change the value."""
    n, k, s = 8, 5, 0.9999953446834792
    alpha = complex((2.0 - n) / 2.0, 6855.0)
    got = L_direct(ConeParams(n, k), alpha, (s,))[0]
    want = _mp_L(n, k, alpha, s)
    assert abs(got - want) <= 1e-12 * max(1, abs(want)), (got, float(want))


@pytest.mark.parametrize("n", [4, 7, 20, 100])
def test_L_direct_d2_near_one(n):
    """At d = 2, c - a - b = 0 and G = F has a logarithmic end at s = 1;
    there L_direct loses accuracy to rounding over the thousands of
    near-neutral levels it needs, however deep it goes: 3.2e-12 relative
    at s = 1 - 1e-6 at worst over these cells.  The bound states it."""
    p = ConeParams(n, n - 2)
    for alpha in (2.0 - n, (2.0 - n) / 2.0, -0.3):
        for s in (0.99, 0.9999, 1.0 - 1e-6):
            got = L_direct(p, alpha, (s,))[0]
            want = _mp_L(n, n - 2, alpha, s)
            assert abs(got - want) <= 1e-11 * max(1, abs(want)), (n, alpha, s)


@pytest.mark.parametrize("lam, n", [(-1e-10, 9), (-1e-6, 40)])
def test_indicial_roots_near_zero(lam, n):
    """gamma+- of lam = gamma(gamma + n - 2) to a few ulps; near lam = 0,
    -h + sqrt(h^2 + lam) cancels (1.3e-5 relative at (-1e-10, 9))."""
    gm, gp = indicial_roots(lam, n)
    with mpmath.workdps(40):
        h = mpmath.mpf(n - 2) / 2
        sq = mpmath.sqrt(h * h + mpmath.mpf(lam))
        for got, want in [(gp, -h + sq), (gm, -h - sq)]:
            assert abs(got - want) <= 1e-15 * abs(want), (got, want)


def _mp_root_s(n, k):
    """40-digit root s of mpmath's 2F1 for the solution profile of (n, k):
    one secant step through s_nk -+ 1e-12 lands within 1e-23 of the exact
    root, and evaluating mpmath.hyp2f1 no closer to it keeps the 40-digit
    evaluation cheap.  Call inside mpmath.workdps(40)."""
    h = mpmath.mpf(10) ** -12
    root = find_root(ConeParams(n, k))
    hp = profile_params(ConeParams(n, k), 1.0)
    a, b, c = (mpmath.mpf(x) for x in (hp.a, hp.b, hp.c))
    lo, hi = mpmath.mpf(root.s_nk) - h, mpmath.mpf(root.s_nk) + h
    f_lo, f_hi = mpmath.hyp2f1(a, b, c, lo), mpmath.hyp2f1(a, b, c, hi)
    assert f_lo > 0 > f_hi, (n, k)
    return root, lo - f_lo * (hi - lo) / (f_hi - f_lo)


def test_roots_against_mpmath_n7_20():
    """t_nk for n = 7..20 agrees with the root of mpmath's 2F1 at 40
    digits."""
    with mpmath.workdps(40):
        for n in range(7, 21):
            for k in range(1, n - 1):
                root, s_exact = _mp_root_s(n, k)
                assert abs(mpmath.sqrt(s_exact) - root.t_nk) <= 1e-10, (n, k)


@pytest.mark.parametrize("n, k", [(206, 200), (400, 392), (400, 393), (1000, 984)])
def test_roots_against_mpmath_steep_bracket(n, k):
    """Where 2k/(n-1) >= 1 the scan's first bracket is [63/64 s_up, s_up],
    across which f falls from about +0.05 to below -1e12, so the first
    secant step rounds onto the lower end; s_nk still lies within 1e-12 of
    the root of mpmath's 2F1 (_mp_root_s checks the sign change)."""
    with mpmath.workdps(40):
        root, s_exact = _mp_root_s(n, k)
        assert abs(s_exact - root.s_nk) <= 1e-12, (n, k)


def test_gamma_plus_against_mpmath_n7_20(capsys):
    """The gamma+ that analyze prints for n = 7..20 agrees to 1e-10 with
    the root in alpha of g'_alpha/g_alpha - rhs at the 40-digit t_nk.  On
    (2-n)/2 < alpha < 0 all three 2F1 parameters of g_alpha and of its
    derivative are positive, so g_alpha >= 1 and mpmath sums without
    cancellation; the margin changes sign across gamma+ -+ 1e-10, and one
    secant step there gives its root."""
    h = mpmath.mpf(10) ** -10
    with mpmath.workdps(40):
        for n in range(7, 21):
            for k in sorted({1, n // 2, n - 2}):
                assert main(["analyze", "--n", str(n), "--k", str(k),
                             "--format", "json"]) == 0
                gp = json.loads(capsys.readouterr().out)["rows"][0]["gamma_plus"]
                _, s = _mp_root_s(n, k)
                t = mpmath.sqrt(s)
                rhs = ((n - 2) * t - (k - 1) / t) / (1 - s)

                def margin(alpha):
                    a, b, c = (n + alpha - 2) / 2, -alpha / 2, mpmath.mpf(k) / 2
                    dF = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, s)
                    return 2 * t * dF / mpmath.hyp2f1(a, b, c, s) - rhs

                lo, hi = mpmath.mpf(gp) - h, mpmath.mpf(gp) + h
                m_lo, m_hi = margin(lo), margin(hi)
                assert m_lo > 0 > m_hi, (n, k)
                exact = lo - m_lo * (hi - lo) / (m_hi - m_lo)
                assert abs(exact - gp) <= 1e-10, (n, k)


def test_lambda1_complex_cells_against_mpmath(capsys):
    """lambda_1 that analyze prints for the ten cells with n <= 6, where
    gamma+- are complex, agrees to 1e-10 relative with the root in lambda
    of 2t F'/F - rhs at the 40-digit t_nk, for F = 2F1(a, b; k/2; s) with
    a + b = (n-2)/2 and ab = -lambda/4 a complex pair; the margin changes
    sign between lambda_1 (1 +- 1e-10), and one secant step there gives its
    root."""
    with mpmath.workdps(40):
        for n in range(3, 7):
            for k in range(1, n - 1):
                assert main(["analyze", "--n", str(n), "--k", str(k),
                             "--format", "json"]) == 0
                lam1 = json.loads(capsys.readouterr().out)["rows"][0]["lambda1"]
                _, s = _mp_root_s(n, k)
                t = mpmath.sqrt(s)
                rhs = ((n - 2) * t - (k - 1) / t) / (1 - s)
                h = mpmath.mpf(n - 2) / 2

                def margin(lam):
                    root = mpmath.sqrt(h * h / 4 + lam / 4)  # imaginary here
                    a, b, c = h / 2 + root, h / 2 - root, mpmath.mpf(k) / 2
                    dF = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, s)
                    return mpmath.re(2 * t * dF / mpmath.hyp2f1(a, b, c, s)) - rhs

                lo, hi = (mpmath.mpf(lam1) * (1 + x) for x in (1e-10, -1e-10))
                m_lo, m_hi = margin(lo), margin(hi)
                assert m_lo > 0 > m_hi, (n, k)
                exact = lo - m_lo * (hi - lo) / (m_hi - m_lo)
                assert abs(exact - lam1) <= 1e-10 * abs(exact), (n, k)
