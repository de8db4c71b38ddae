"""Kernel backend selection for the six hot kernels: hyp2f1_series (the
Gauss series), robin_shoot (the link ODE shot), L_fraction (the
continued fraction behind cone.L_direct), ts_terms (the tanh-sinh nodes
of specfun.hyp2f1_integral), barrier_residual (the curved residual of
checks.verify_barrier) and illinois (the root solver of cone.find_root
and cone.verdict).

The compiled extension (conelab._kernels, built from the hand-written
_kernels.c when a C compiler is available) is preferred; the pure-Python
mirror (conelab._pykernels) is the fallback.  Set
CONELAB_PURE=1 to force the fallback, e.g. for the backend benchmark or
to reproduce results on a build without a C compiler.

An extension built from another _kernels.c than the one beside it, whose
SOURCE_SHA256 is not KERNELS_SHA256, is an ImportError: it would compute
with old numerics, or lack a kernel, under the name "compiled".
"""

import os

# SHA-256 of _kernels.c; tests/test_backends.py checks it against the file
KERNELS_SHA256 = "0dda6bdf1cdb3e2a68c93ac30316733ebd8d4a3ca61bf6047683b2641f5d1e32"

if os.environ.get("CONELAB_PURE", "") not in ("", "0"):
    from conelab import _pykernels as kernels
else:
    try:
        from conelab import _kernels as kernels  # type: ignore[no-redef]
    except ImportError:
        from conelab import _pykernels as kernels  # type: ignore[no-redef]
    if kernels.BACKEND == "compiled" and getattr(kernels, "SOURCE_SHA256", None) != KERNELS_SHA256:
        raise ImportError(
            f"conelab._kernels ({kernels.__file__}) was built from another _kernels.c: its "
            f"SHA-256 is {getattr(kernels, 'SOURCE_SHA256', None)!r}, the source's "
            f"{KERNELS_SHA256!r}; rebuild it with `python setup.py build_ext --inplace --force`")

BACKEND_NAME: str = kernels.BACKEND

hyp2f1_series = kernels.hyp2f1_series
robin_shoot = kernels.robin_shoot
L_fraction = kernels.L_fraction
ts_terms = kernels.ts_terms
barrier_residual = kernels.barrier_residual
illinois = kernels.illinois
