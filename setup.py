"""Build glue for the optional compiled kernels.

The package is fully functional without the extension; conelab._backend
falls back to the pure-Python kernels when the import fails, and
optional=True lets the build succeed when no C compiler is available.
-ffp-contract=off keeps the compiler from fusing multiply-adds, so the
compiled kernels round exactly as their pure-Python mirror does.
KERNELS_SHA256, the SHA-256 of _kernels.c, is compiled into the module,
and conelab._backend refuses an extension built from another source.
"""

import hashlib
from pathlib import Path

from setuptools import Extension, setup

SOURCE = "src/conelab/_kernels.c"
DIGEST = hashlib.sha256((Path(__file__).resolve().parent / SOURCE).read_bytes()).hexdigest()

setup(ext_modules=[
    Extension(
        "conelab._kernels",
        [SOURCE],
        define_macros=[("KERNELS_SHA256", f'"{DIGEST}"')],
        extra_compile_args=["-O3", "-ffp-contract=off"],
        optional=True,
    )
])
