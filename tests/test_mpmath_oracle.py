"""Cross-checks against 40-digit mpmath: every err_estimate of hyp2f1 is
a bound on the true error, and the free-boundary roots agree with roots
of mpmath's 2F1.  Skipped when mpmath or hypothesis is not installed."""

import math

import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conelab.cone import ConeParams, find_root, profile_params  # noqa: E402
from conelab.specfun import HypParams, Strategy, hyp2f1  # noqa: E402

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


def _assert_bounded(a, b, c, s, strategy, require=assume):
    """|hyp2f1 - mpmath| <= err_estimate; `require` rejects draws that
    take another strategy (in examples, it fails on them)."""
    r = hyp2f1(HypParams(a, b, c), s)
    require(r.strategy is strategy and math.isfinite(r.value))
    ref = _reference(a, b, c, s)
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
])
def test_direct_series_bound_examples(a, b, c, s):
    _assert_bounded(a, b, c, s, Strategy.DIRECT_SERIES, _require)


@BOUND_SETTINGS
@given(st.floats(-5.0, 60.0), st.floats(-3.0, 5.0), st.floats(0.1, 40.0),
       st.floats(-0.9, 0.5))
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


def test_log_case_examples_against_mpmath():
    # s = 1 - 2e-9 is the largest argument find_root admits
    for (a, b, c) in [(5.5, -0.5, 5.0), (19.5, -0.5, 13.0), (3.0, -0.5, 2.5)]:
        r = _assert_bounded(a, b, c, 1.0 - 2e-9, Strategy.CONNECTION_AT_1, _require)
        assert r.err_estimate <= 1e-11 * abs(r.value)


def test_roots_against_mpmath_n7_20():
    """t_nk for n = 7..20 agrees with the root of mpmath's 2F1 at 40
    digits: one secant step through s_nk -+ 1e-12 lands within 1e-23 of
    the exact root, and evaluating mpmath.hyp2f1 no closer to it keeps the
    40-digit evaluation cheap."""
    h = mpmath.mpf(10) ** -12
    with mpmath.workdps(40):
        for n in range(7, 21):
            for k in range(1, n - 1):
                root = find_root(ConeParams(n, k))
                hp = profile_params(ConeParams(n, k), 1.0)
                a, b, c = (mpmath.mpf(x) for x in (hp.a, hp.b, hp.c))
                lo, hi = mpmath.mpf(root.s_nk) - h, mpmath.mpf(root.s_nk) + h
                f_lo, f_hi = mpmath.hyp2f1(a, b, c, lo), mpmath.hyp2f1(a, b, c, hi)
                assert f_lo > 0 > f_hi, (n, k)
                s_exact = lo - f_lo * (hi - lo) / (f_hi - f_lo)
                assert abs(mpmath.sqrt(s_exact) - root.t_nk) <= 1e-10, (n, k)
