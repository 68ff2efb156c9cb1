"""Coaxtail: dynamics, control and power analysis for a coaxial dual-rotor
tailsitter with retractable tandem wings and a swashplateless fore rotor.

Submodules group by subject: aero (tandem-wing statics), rotor (the
swashplateless head), control (allocation and the cascade loops),
propulsion (propeller tables and the configuration power study), vehicle
(6-DOF simulation and scenarios), analysis (spectra, configs, CLI),
and stock (the flight values the layers share).
The names most programs need are re-exported here. Each resolves on
first use, importing only its own submodule, so `import coaxtail` loads
none of them and a CLI command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# re-exported name -> the submodule that defines it
_SOURCES = {
    "TandemConfig": "aero",
    "WingMode": "aero",
    "WingPanel": "aero",
    "static_stability_check": "aero",
    "PsdResult": "analysis",
    "TimeSeries": "analysis",
    "avg_psd_db": "analysis",
    "cli_main": "analysis",
    "load_scenario": "analysis",
    "mean_subtract": "analysis",
    "peak_to_peak_reduction": "analysis",
    "psd": "analysis",
    "ActuatorCommand": "control",
    "AllocationGains": "control",
    "CascadeController": "control",
    "Wrench": "control",
    "forward_model": "control",
    "mix": "control",
    "saturate": "control",
    "CoaxtailError": "errors",
    "ConfigError": "errors",
    "InfeasibleError": "errors",
    "LinearRangeError": "errors",
    "NumericalDomainError": "errors",
    "SimulationFault": "errors",
    "TableRangeError": "errors",
    "ConfigPower": "propulsion",
    "PropellerTable": "propulsion",
    "fixture_config_powers": "propulsion",
    "shared_power": "propulsion",
    "solve_rpm_for_thrust": "propulsion",
    "SplmParams": "rotor",
    "bench_torque_series": "rotor",
    "ScenarioSpec": "vehicle",
    "SimLog": "vehicle",
    "VehicleParams": "vehicle",
    "WindProfile": "vehicle",
    "WingSchedule": "vehicle",
    "pack_state": "vehicle",
    "run_scenario": "vehicle",
    "step_6dof": "vehicle",
    "transition_profile": "vehicle",
}

__all__ = sorted(_SOURCES) + ["__version__"]


def __getattr__(name):
    # an unknown name must raise AttributeError, so that
    # `from coaxtail import vehicle` falls back to importing the submodule
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))
