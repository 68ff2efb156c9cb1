"""Shared fixtures."""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coaxtail.analysis import load_scenario
from coaxtail.vehicle import run_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def shipped_run():
    """run(name) flies configs/<name>.cfg once per session and returns
    (spec, params, log, seconds the run took). The log's data is
    read-only, so a test that only reads it cannot change what the next
    one sees; a test that changes the scenario flies its own."""
    runs = {}

    def run(name):
        if name not in runs:
            spec, params = load_scenario(CONFIG_DIR / f"{name}.cfg")
            t0 = time.perf_counter()
            log = run_scenario(spec, params)
            seconds = time.perf_counter() - t0
            log.data.flags.writeable = False
            runs[name] = (spec, params, log, seconds)
        return runs[name]

    return run


@pytest.fixture
def openblas_kernels():
    """Skips the test unless OPENBLAS_CORETYPE can pick OpenBLAS's Haswell
    and Prescott kernels here: numpy's BLAS must be an OpenBLAS that picks
    its kernel at run time, on a CPU with the AVX2 and FMA that the
    Haswell kernel runs on."""
    from numpy import __config__
    from numpy._core._multiarray_umath import __cpu_features__

    blas = __config__.CONFIG["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in \
            blas.get("openblas configuration", ""):
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not an OpenBLAS "
                    f"built with DYNAMIC_ARCH")
    if not (__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")):
        pytest.skip("the CPU lacks AVX2 or FMA, which OpenBLAS's Haswell "
                    "kernel needs")


def _environment(env):
    """os.environ with src/ first on PYTHONPATH; each keyword sets that
    variable, or removes it where the value is None."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC_DIR), environ.get("PYTHONPATH"))))
    for name, value in env.items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return environ


@pytest.fixture(scope="session")
def run_snippet():
    """run_snippet(code, *args, **env) runs `python -c code *args` in a
    fresh interpreter and returns its stdout. Keywords set or remove
    environment variables as cli_sha256's do."""

    def run(code, *args, **env):
        return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              env=_environment(env), capture_output=True,
                              text=True, check=True).stdout

    return run


@pytest.fixture
def cli_sha256():
    """cli_sha256(args, out, **env) runs `python -m coaxtail *args --out
    out` in a fresh interpreter and returns the sha256 of the file it
    wrote. Each keyword sets that environment variable for the run, or
    removes it where the value is None."""

    def run(args, out, **env):
        subprocess.run([sys.executable, "-m", "coaxtail", *map(str, args),
                        "--out", str(out)],
                       env=_environment(env), capture_output=True, check=True)
        return hashlib.sha256(Path(out).read_bytes()).hexdigest()

    return run


@pytest.fixture
def numpy_features_off():
    """The environment that turns off every feature numpy dispatches to
    on this CPU ({"NPY_DISABLE_CPU_FEATURES": ...}), which leaves numpy
    on its baseline loops. Skips the test where there is none."""
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)

    features = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not features:
        pytest.skip("numpy dispatches to no feature beyond its baseline "
                    "on this CPU, so none can be turned off")
    return {"NPY_DISABLE_CPU_FEATURES": " ".join(features)}
