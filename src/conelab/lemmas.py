"""Verification harness for the asymptotic root estimates, the boundary
layer limit profile, the threshold constants, and the overshoot bound
and its two terminal points, on which the Riccati barriers end.

Every check is returned as a BoundCheck record carrying its parameters,
the claimed bound, the computed quantity and the verdict; nothing is
asserted here, callers decide what a failure means.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple

from conelab.cone import ConeParams, find_root, profile_g, stability_margin
from conelab.errors import RangeUnsupported
from conelab.specfun import digamma, erfcx

__all__ = [
    "BoundCheck",
    "root_bound_check",
    "limit_profile_u",
    "estimate_z0",
    "phi_c_eval",
    "overshoot_check",
    "proof_constants_check",
]


class BoundCheck(NamedTuple("BoundCheck", [
        ("name", str), ("parameters", Dict[str, float]), ("claimed", float),
        ("computed", float), ("relation", str), ("passed", bool)])):
    """One verified inequality: computed RELATION claimed.  The sixth
    field, passed, is worked out here and is not an argument."""

    __slots__ = ()

    def __new__(cls, name: str, parameters: Dict[str, float], claimed: float,
                computed: float, relation: str):  # relation: ">" or "<"
        if relation == ">":
            ok = computed > claimed
        elif relation == "<":
            ok = computed < claimed
        else:
            raise ValueError(f"unknown relation {relation!r}")
        return super().__new__(cls, name, parameters, claimed, computed, relation, ok)

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self[:5]


def _bound_constant(ratio: float) -> float:
    """Root-bound constant c on the three sub-intervals of [1/3, 15/16]."""
    if ratio <= 7.0 / 8.0:
        return 3.0 / 5.0
    if ratio <= 9.0 / 10.0:
        return 2.0 / 5.0
    return 9.0 / 25.0


def root_bound_check(pars: ConeParams) -> BoundCheck:
    """s_{n,k} <= k/n + c/sqrt(n) with c in {3/5, 2/5, 9/25} on the three
    ratio sub-intervals; requires n >= 60 and k/n in [1/3, 15/16]."""
    n, k = pars.n, pars.k
    ratio = k / n
    if n < 60 or not (1.0 / 3.0 - 1e-12 <= ratio <= 15.0 / 16.0 + 1e-12):
        raise RangeUnsupported(
            f"root bound needs n >= 60 and k/n in [1/3, 15/16], got (n,k)=({n},{k})")
    c = _bound_constant(ratio)
    s = find_root(pars).s_nk
    return BoundCheck(name="root_sqrt_bound",
                      parameters={"n": n, "k": k, "c": c},
                      claimed=ratio + c / math.sqrt(n), computed=s, relation="<")


def limit_profile_u(xi: float) -> float:
    """Boundary-layer limit profile u(xi) = exp(-xi^2/2) / int_{-inf}^{xi}
    exp(-r^2/2) dr; solves u' + u^2 + xi u = 0 with u ~ -xi at -inf.

    Written through the scaled complement erfcx so numerator and
    denominator never underflow together in the far left tail."""
    return 1.0 / (math.sqrt(math.pi / 2.0) * erfcx(-xi / math.sqrt(2.0)))


def estimate_z0(n_large: int, lam: float) -> float:
    """Finite-n estimator of the universal first zero of the rescaled limit
    equation: (s_{n,k} - k/n) sqrt(n) / sqrt(2 (k/n)(1 - k/n)) at
    k = round(lam n)."""
    if n_large < 500:
        raise RangeUnsupported("estimator needs n >= 500")
    if not 1.0 / 3.0 - 1e-12 <= lam <= 15.0 / 16.0 + 1e-12:
        raise RangeUnsupported("lam must lie in [1/3, 15/16]")
    k = round(lam * n_large)
    pars = ConeParams(n_large, k)
    s = find_root(pars).s_nk
    ratio = k / n_large
    return (s - ratio) * math.sqrt(n_large) / math.sqrt(2.0 * ratio * (1.0 - ratio))


def phi_c_eval(lam: float, c: float) -> float:
    """Threshold function phi_c(lam) = 2 lam (1-lam)
    exp(-c^2/(4 lam (1-lam))) / int_{-inf}^{c} exp(-r^2/(4 lam (1-lam))) dr,
    which is sd u(c/sd) for sd = sqrt(2 lam (1-lam)) (substitute r = sd x)."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    sd = math.sqrt(2.0 * lam * (1.0 - lam))
    return sd * limit_profile_u(c / sd)


def overshoot_check(pars: ConeParams) -> BoundCheck:
    """Either s_{n,k} < k/n or (n s - k)^2 <= 2 n (1 - s), equivalently
    s < overshoot_terminal_point, for n/2 <= k <= n-12; for the band
    n-11 <= k <= n-4 (and n >= 16 d) s < refined_terminal_point is
    checked instead."""
    n, k = pars.n, pars.k
    d = pars.d
    s = find_root(pars).s_nk
    if n / 2.0 <= k <= n - 12:
        if s < k / n:
            return BoundCheck(name="overshoot_bound",
                              parameters={"n": n, "k": k, "form": 0.0},
                              claimed=float(k) / n, computed=s, relation="<")
        lhs = (n * s - k) ** 2
        rhs = 2.0 * n * (1.0 - s)
        return BoundCheck(name="overshoot_bound",
                          parameters={"n": n, "k": k, "form": 1.0},
                          claimed=rhs, computed=lhs, relation="<")
    if n - 11 <= k <= n - 4 and n >= 16 * d:
        return BoundCheck(name="overshoot_bound_refined",
                          parameters={"n": n, "k": k, "form": 2.0},
                          claimed=refined_terminal_point(pars), computed=s, relation="<")
    raise RangeUnsupported(
        f"overshoot bound needs n/2 <= k <= n-12, or n-11 <= k <= n-4 with "
        f"n >= 16 d; got (n,k)=({n},{k})")


def overshoot_terminal_point(pars: ConeParams) -> float:
    """The equivalent terminal-point form 1 - (d+1-sqrt(2d+1))/n of the
    overshoot bound."""
    d = pars.d
    return 1.0 - (d + 1.0 - math.sqrt(2.0 * d + 1.0)) / pars.n


def refined_terminal_point(pars: ConeParams) -> float:
    """The refined terminal point 1 - (2d+1-2 sqrt(2d+1))/(2n)."""
    d = pars.d
    return 1.0 - (2.0 * d + 1.0 - 2.0 * math.sqrt(2.0 * d + 1.0)) / (2.0 * pars.n)


def proof_constants_check() -> List[BoundCheck]:
    """Fixed battery of displayed constants: digamma bounds and special
    values, profile positivity, the axisymmetric edge-case margin, and the
    exponential bound used in the jump comparison."""
    checks: List[BoundCheck] = []

    # log(x - 1/2) < psi(x) < log(x), sampled on (1/2, 1e3]
    xs = [0.6 + 999.4 * (i / 99.0) ** 2 for i in range(100)]
    lower_margin = min(digamma(x) - math.log(x - 0.5) for x in xs)
    upper_margin = min(math.log(x) - digamma(x) for x in xs)
    checks.append(BoundCheck("digamma_lower_bound", {"samples": 100},
                             0.0, lower_margin, ">"))
    checks.append(BoundCheck("digamma_upper_bound", {"samples": 100},
                             0.0, upper_margin, ">"))
    checks.append(BoundCheck("digamma_at_3_lower", {"x": 3.0},
                             math.log(2.5), digamma(3.0), ">"))
    checks.append(BoundCheck("digamma_at_3_upper", {"x": 3.0},
                             math.log(3.0), digamma(3.0), "<"))
    euler_gamma = 0.5772156649015328606
    checks.append(BoundCheck("digamma_at_1", {"x": 1.0}, 1e-14,
                             abs(digamma(1.0) + euler_gamma), "<"))
    checks.append(BoundCheck("digamma_at_half", {"x": 0.5}, 1e-13,
                             abs(digamma(0.5) + euler_gamma + 2.0 * math.log(2.0)), "<"))
    checks.append(BoundCheck("digamma_reflection_mhalf", {"x": -0.5}, 1e-13,
                             abs(digamma(-0.5) - digamma(0.5) - 2.0), "<"))

    # profile positivity g_{n,k,alpha} > 0 on [0, t_{n,k}] for alpha in (1-n, 1)
    g_min = math.inf
    for (n, k) in [(5, 2), (7, 1), (9, 4), (12, 10), (15, 7)]:
        pars = ConeParams(n, k)
        t_nk = find_root(pars).t_nk
        for frac_a in (0.05, 0.3, 0.5, 0.7, 0.95):
            alpha = (1.0 - n) + frac_a * (1.0 - (1.0 - n))
            for j in range(21):
                g_min = min(g_min, profile_g(pars, alpha, t_nk * j / 21.0))
    checks.append(BoundCheck("profile_positive_on_root_interval",
                             {"cones": 5, "alphas": 5, "points": 21},
                             0.0, g_min, ">"))

    # axisymmetric edge case: margin at alpha = 4-n exceeds 5e-2 for n = 7..10
    m_min = math.inf
    for n in range(7, 11):
        pars = ConeParams(n, 1)
        root = find_root(pars)
        m_min = min(m_min, stability_margin(pars, 4.0 - n, root))
    checks.append(BoundCheck("axisymmetric_edge_margin",
                             {"n_min": 7, "n_max": 10, "k": 1},
                             5e-2, m_min, ">"))

    checks.append(BoundCheck("exp_105_bound", {}, 2.9, math.exp(1.05), "<"))
    checks.append(BoundCheck("u_at_zero", {}, 1e-12,
                             abs(limit_profile_u(0.0) - math.sqrt(2.0 / math.pi)), "<"))
    return checks
