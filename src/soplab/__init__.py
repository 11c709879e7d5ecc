"""Battery state-of-power workbench on a Thevenin equivalent circuit.

Closed-form multi-constraint peak power for constant-current windows,
stepwise engines for constant-voltage, CC-CV, and constant-power operation,
an exact error calculus for five input-error sources, and a brute-force
simulation oracle that validates the closed forms.

The package imports lazily (PEP 562): ``import soplab`` loads no submodule,
and each exported name, or submodule such as ``soplab.oracle``, loads its
module on first access. A one-shot CLI process thus pays only for what its
subcommand runs.
"""

from importlib import import_module

# Each submodule and the names it exports; the package's only import list.
_EXPORTS_BY_MODULE = {
    "ecm": (
        "BatteryParams",
        "BatteryState",
        "CcPrediction",
        "OcvCurve",
        "ProfileSample",
        "StepResult",
        "Window",
        "ocv",
        "predict_cc",
        "simulate_profile",
        "step",
    ),
    "error_lab": (
        "ErrorBreakdown",
        "ErrorSource",
        "TrueContext",
        "analytic_error",
        "build_true_context",
        "empirical_error",
        "sweep",
    ),
    "exceptions": (
        "AnalyticDomainError",
        "ConfigurationError",
        "InfeasibleStateError",
        "InputError",
        "PowerInfeasibleError",
    ),
    "modes": (
        "CcCvCase",
        "ModeShift",
        "PomStep",
        "PomTrace",
        "find_mode_shift_kc",
        "solve_cp_step",
        "sop_cccv",
        "sop_cp",
        "sop_cv",
    ),
    "oracle": ("BrutePower", "brute_peak_current_cc", "brute_peak_power_cp"),
    "peak_cc": ("SopResult", "WindowTerms", "sop_cc", "window_terms"),
    "soa": ("Direction", "Soa", "Violation", "check_point", "check_trace"),
}
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

_SUBMODULES = frozenset((*_EXPORTS_BY_MODULE, "cli", "fileio"))

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
