"""Shared fixtures."""

import time
from pathlib import Path

import pytest

from coaxtail.analysis import load_scenario
from coaxtail.vehicle import run_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
