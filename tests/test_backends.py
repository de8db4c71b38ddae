"""Compiled and pure-Python kernels must agree to roundoff; the package
works with either selected at import.

When the package was installed without its extension, the agreement tests
build _kernels.c into a temporary directory with the flags of setup.py;
they skip only when no C compiler exists."""

import importlib.util
import math
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

from conelab import _pykernels

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "conelab" / "_kernels.c"


@pytest.fixture(scope="session")
def _kernels(tmp_path_factory):
    try:
        from conelab import _kernels as built
        return built
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler to build the compiled kernels")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("kernels")
    ext = Extension("conelab._kernels", [str(KERNEL_SOURCE)],
                    extra_compile_args=["-O3", "-ffp-contract=off"])
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib, cmd.build_temp = str(out), str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "conelab._kernels", cmd.get_ext_fullpath("conelab._kernels"))
    built = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(built)
    assert built.BACKEND == "compiled"
    return built


def test_series_kernel_agreement(_kernels):
    cases = [
        (3.0, -0.5, 2.0, 0.3),
        (999.5, -0.5, 500.0, 0.52),
        (1.0, 8.0, 3.5, 0.45),
        (-2.0, 1.3, 0.7, -0.4),
    ]
    for (a, b, c, s) in cases:
        vc, ec, tc, okc = _kernels.hyp2f1_series(a, b, c, s, 1e-15, 1e-280, 40000)
        vp, ep, tp, okp = _pykernels.hyp2f1_series(a, b, c, s, 1e-15, 1e-280, 40000)
        assert okc and okp
        assert tc == tp
        assert vc == vp  # statement-identical summation
        assert ec == ep  # and error bound


def test_shoot_kernel_agreement(_kernels):
    args = (1.0, -5.6e-6, 1e-6, 0.517, 7.0, 1.0, -5.7, 0.0, 0.0,
            1e-11, 1e-300, 0.01, 1_000_000)
    uc, vc, zc, okc = _kernels.robin_shoot(*args)
    up, vp, zp, okp = _pykernels.robin_shoot(*args)
    assert okc and okp and zc == zp
    assert math.isclose(uc, up, rel_tol=1e-12)
    assert math.isclose(vc, vp, rel_tol=1e-12)


def test_shoot_kernel_bit_identical(_kernels):
    # the mirror squares by multiplication, as the C source does: x ** 2
    # calls pow(), which differs from x * x in the last bit on some shots
    for n in (7, 33, 40):
        for k in (1, n - 2):
            for q in (0, 2):
                for lam in (-2.0 * n, 3.0):
                    args = (1.0, -lam * 1e-6, 1e-6, 0.9 - 0.5 / k, float(n), float(k),
                            lam, 0.0, q * (q + k - 2.0), 1e-11, 1e-300, 0.03, 2_000_000)
                    assert _kernels.robin_shoot(*args) == _pykernels.robin_shoot(*args)


def test_backend_name_exposed():
    import conelab
    assert conelab.BACKEND_NAME in ("compiled", "python")


def test_pure_fallback_env(tmp_path):
    # a fresh interpreter with CONELAB_PURE=1 must select the fallback
    import os
    import subprocess
    import sys
    env = dict(os.environ, CONELAB_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "import conelab; print(conelab.BACKEND_NAME)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "python"
