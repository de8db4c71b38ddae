"""conelab: stability analysis of O(n-k) x O(k)-invariant one-phase
Bernoulli cones.

Modules mirror the analysis pipeline: specfun (hypergeometric and
gamma-family kernel), cone (profiles, free-boundary root, stability
criterion, first link eigenvalue), riccati (log-derivative ODE, its
cross-check against one mode-(0,0) shot of the link ODE, and comparison
barriers), spectrum (the family scan), lemmas (asymptotic bound checks),
checks (verification batteries, loaded by `verify` only), cli
(command-line front end).  The package holds what the command line runs:
the reference oracles the tests check it against (link-ODE shooting for
any mode (p, q), a Pruefer-angle eigenvalue solver and a finite-difference
discretization) live in tests/oracles.py.

The hot kernels are compiled (hand-written C) with a pure-Python
fallback selected at import; see conelab._backend and BACKEND_NAME.
"""

from conelab._backend import BACKEND_NAME
from conelab.cone import (
    ConeParams,
    RootResult,
    StabilityReport,
    Verdict,
    find_root,
    indicial_roots,
    verdict,
)
from conelab.riccati import BarrierSpec, RiccatiTrace, check_4_minus_n, verify_barrier
from conelab.specfun import EvalResult, HypParams, hyp2f1
from conelab.spectrum import family_scan

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME",
    "__version__",
    "ConeParams",
    "RootResult",
    "StabilityReport",
    "Verdict",
    "find_root",
    "verdict",
    "BarrierSpec",
    "RiccatiTrace",
    "check_4_minus_n",
    "verify_barrier",
    "EvalResult",
    "HypParams",
    "hyp2f1",
    "family_scan",
    "indicial_roots",
]
