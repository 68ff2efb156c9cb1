"""Import footprint: each CLI command loads only the layers it runs.

A cold command pays for every module it imports, so these tests run
`cli_main` in a fresh interpreter and read `sys.modules` afterwards.
They also pin the lazy package: `import coaxtail` loads no submodule and
resolves the re-exported names on first use.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coaxtail
from coaxtail.analysis import _median, write_timeseries_csv

SRC = str(Path(coaxtail.__file__).resolve().parents[1])
PROPS = str(Path(SRC).parent / "configs" / "props")

# the coaxtail modules each light command loads, as the README states them
_ROTOR_LAYERS = {"coaxtail", "coaxtail.analysis", "coaxtail.errors",
                 "coaxtail.kernels", "coaxtail.rotor", "coaxtail.stock"}
LAYERS = {
    "psd": _ROTOR_LAYERS,
    "bench-splm": _ROTOR_LAYERS,
    "power-analysis": _ROTOR_LAYERS | {"coaxtail.propulsion"},
    "power-analysis --tables": _ROTOR_LAYERS | {"coaxtail.propulsion"},
    "mix-check": _ROTOR_LAYERS | {"coaxtail.control", "coaxtail.quat"},
}

CHILD = """
import json, sys
from coaxtail.analysis import cli_main
code = cli_main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def fresh_python(code, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """{command: set of modules loaded by one cold run}."""
    tmp = tmp_path_factory.mktemp("cli")
    t = np.arange(2001) / 1000.0
    write_timeseries_csv(tmp / "tq.csv", t, np.sin(2.0 * math.pi * 37.0 * t),
                         name="torque")
    commands = {
        "psd": ["psd", "tq.csv"],
        "bench-splm": ["bench-splm", "--duration", "0.2", "--out",
                       "bench.csv"],
        "power-analysis": ["power-analysis", "--fixture", "paper-2025",
                           "--out", "power.csv"],
        "power-analysis --tables": ["power-analysis", "--tables", PROPS,
                                    "--out", "tables.csv"],
        "mix-check": ["mix-check", "--trials", "1"],
    }
    result = {}
    for name, argv in commands.items():
        code, modules = fresh_python(CHILD, *argv, cwd=tmp)
        assert code == 0, name
        result[name] = set(modules)
    return result


def test_no_light_command_loads_the_simulator(loaded):
    for name, modules in loaded.items():
        assert "coaxtail.vehicle" not in modules, name
        assert "coaxtail.aero" not in modules, name


def test_each_command_loads_only_its_layers(loaded):
    """Any coaxtail module a cold command compiles shows here."""
    for name, modules in loaded.items():
        assert {m for m in modules if m.split(".")[0] == "coaxtail"} \
            == LAYERS[name], name


def test_no_light_command_loads_numpy_random(loaded):
    """mix-check draws from the standard library's random, which numpy's
    own import already loads; numpy.random would add secrets, hmac and
    _hashlib."""
    for name, modules in loaded.items():
        assert "numpy.random" not in modules, name


def test_psd_does_not_load_numpy_ma(loaded):
    assert "numpy.ma" not in loaded["psd"]


def test_import_coaxtail_loads_no_submodule(tmp_path):
    code = ("import json, sys, coaxtail; "
            "print(json.dumps(sorted(sys.modules)))")
    modules = fresh_python(code, cwd=tmp_path)
    assert [m for m in modules if m.startswith("coaxtail.")] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from coaxtail import *", namespace)
    assert set(coaxtail.__all__) <= set(namespace)
    for name in coaxtail.__all__:
        assert namespace[name] is getattr(coaxtail, name)


def test_dir_lists_every_public_name():
    assert set(coaxtail.__all__) <= set(dir(coaxtail))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        coaxtail.nope
    # submodules still import through the package
    from coaxtail import vehicle
    assert vehicle.__name__ == "coaxtail.vehicle"


def _median_cases():
    rng = np.random.default_rng(7)
    yield np.array([0.001])
    yield np.array([0.001, 0.002])
    yield np.array([0.3, 0.1, 0.2])
    yield np.array([0.1, 0.1, 0.2, 0.2])  # ties across the middle
    yield np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    yield np.array([-1.0, 3.0, 1e300, 1e300])
    yield np.array([0.1, 0.2, 0.2, 0.7])
    for n in (2, 3, 10, 11, 256, 257, 2000, 2001):
        # sample intervals as a CSV of uniform times gives them, with ties
        t = np.round(np.arange(n + 1) * 1e-3 + rng.normal(0.0, 1e-9, n + 1),
                     12)
        yield np.diff(t)
        yield rng.normal(size=n)


@pytest.mark.parametrize("values", list(_median_cases()))
def test_median_matches_numpy_bit_for_bit(values):
    assert _median(values).hex() == float(np.median(values)).hex()


def test_median_of_two_rounds_like_numpy():
    # a + (b - a) / 2 and other rearrangements round differently here
    rng = np.random.default_rng(11)
    for pair in rng.uniform(1e-4, 1e-2, size=(2000, 2)):
        assert _median(pair).hex() == float(np.median(pair)).hex()
