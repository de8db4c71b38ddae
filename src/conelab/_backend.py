"""Kernel backend selection.

The compiled extension (conelab._kernels, built from the hand-written
_kernels.c when a C compiler is available) is preferred; the pure-Python
mirror (conelab._pykernels) is the fallback.  Set
CONELAB_PURE=1 to force the fallback, e.g. for the backend benchmark or
to reproduce results on a build without a C compiler.
"""

import os

if os.environ.get("CONELAB_PURE", "") not in ("", "0"):
    from conelab import _pykernels as kernels
else:
    try:
        from conelab import _kernels as kernels  # type: ignore[no-redef]
    except ImportError:
        from conelab import _pykernels as kernels  # type: ignore[no-redef]

BACKEND_NAME: str = kernels.BACKEND

hyp2f1_series = kernels.hyp2f1_series
robin_shoot = kernels.robin_shoot
