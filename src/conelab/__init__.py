"""conelab: stability analysis of O(n-k) x O(k)-invariant one-phase
Bernoulli cones.

Modules mirror the analysis pipeline: specfun (hypergeometric and
gamma-family kernel, behind the free-boundary root), cone (profiles,
free-boundary root, the log-derivative L from Gauss's continued
fraction, the stability criterion read from it, its margin at
alpha = 4-n, and verdict with the first link eigenvalue and decay
rates), checks (verification batteries, each beside what it checks:
the log-derivative ODE and its cross-check against one mode-(0,0) shot
of the link ODE, the asymptotic bounds of the large-n lemmas, and the
comparison barriers with their terminal points), reference (the
embedded reference table), errors (the exception types) and cli
(command-line front end, with the one cone record behind analyze, table
and scan, and the scan's flags).  The package root binds only
BACKEND_NAME and __version__, so each command loads what it runs:
checks loads for `verify` only.  The record types (ConeParams,
HypParams, RootResult, StabilityReport, CheckRecord and BarrierReport)
are typing.NamedTuples, so no command loads dataclasses, which would pull
in inspect and ast.  ConeParams and HypParams validate in __new__,
which _make and _replace skip.  The reference oracles the tests check
the library against live in tests/oracles.py.

The six hot kernels (the Gauss series, the link ODE shot, the continued
fraction of L, the tanh-sinh nodes of the Euler integral, the barrier's
curved residual and the root solver illinois) are compiled (hand-written
C) with a pure-Python fallback selected at import; see conelab._backend
and BACKEND_NAME.
"""

from conelab._backend import BACKEND_NAME

__version__ = "0.1.0"

__all__ = ["BACKEND_NAME", "__version__"]
