"""Build glue for the optional compiled kernels.

The package is fully functional without the extension; conelab._backend
falls back to the pure-Python kernels when the import fails, and
optional=True lets the build succeed when no C compiler is available.
-ffp-contract=off keeps the compiler from fusing multiply-adds, so the
compiled kernels round exactly as their pure-Python mirror does.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension(
        "conelab._kernels",
        ["src/conelab/_kernels.c"],
        extra_compile_args=["-O3", "-ffp-contract=off"],
        optional=True,
    )
])
