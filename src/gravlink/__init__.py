"""Desk-scale simulator for a satellite optical red-shift link and a
spin-gravity weak-measurement scheme.

Subpackage map:
    ephemeris       CPF-subset parsing, windowed Lagrange interpolation
    kinematics      orbits, ground stations, light time, link geometry
    link_model      exact frequency ratios, fringe phases, Doppler-free signal
    interferometer  time-bin cascade, photon counting, fringe fitting
    estimator       violation-parameter regression, precision forecasts
    spin_weak       spin-rotation/acceleration couplings, closed-form weak scan
    config, cli     YAML scenarios and the gravlink command
"""

__version__ = "0.1.0"

_SUBMODULES = ("config", "constants", "ephemeris", "errors", "estimator", "interferometer",
               "kinematics", "link_model", "spin_weak")


def __getattr__(name: str):
    """Import a submodule on first access, so that `import gravlink` loads none of them."""
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return import_module(f"{__name__}.{name}")
