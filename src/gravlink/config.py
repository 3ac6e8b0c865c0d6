"""Scenario configuration: YAML loading, validation, typed views.

One walk over one field table (_FIELDS) collects every violation instead of
stopping at the first and builds the typed config; defaults live on the spec
dataclasses. Units in config files are SI with the unit in the key name,
except angles, which are degrees (converted to radians here).
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .constants import C_LIGHT, R_EARTH
from .ephemeris import EphemerisTrajectory, parse_cpf
from .errors import ConfigInvalid, FileUnreadable, GravlinkError, OutOfRange
from .link_model import OpticalConfig, RedshiftParams

MODES = ("redshift-pass", "alpha-forecast", "fringe-demo", "weakvalue-scan", "constants")
STOCHASTIC_MODES = ("alpha-forecast", "fringe-demo")

_SECTION_BY_MODE = {
    "redshift-pass": ("orbit", "station", "optical", "sweep"),
    "alpha-forecast": ("orbit", "station", "optical", "sweep", "noise", "forecast"),
    "fringe-demo": ("fringe", "noise"),
    "weakvalue-scan": ("spin",),
    "constants": (),
}


@dataclass(frozen=True)
class OrbitSpec:
    """Exactly one of the two sources is set."""

    semi_major_axis: Optional[float] = None  # m
    inclination: float = 0.0                 # rad
    raan: float = 0.0                        # rad
    phase: float = 0.0                       # rad
    ephemeris_path: Optional[str] = None


@dataclass(frozen=True)
class StationSpec:
    latitude: float   # rad
    longitude: float  # rad
    altitude: float = 0.0  # m


@dataclass(frozen=True)
class SweepSpec:
    t_start: float
    t_end: float
    n_epochs: int


@dataclass(frozen=True)
class NoiseSpec:
    photon_budget: int = 0
    efficiency: float = 1.0
    dark_rate: float = 0.0
    visibility: float = 1.0


@dataclass(frozen=True)
class ForecastSpec:
    trials: int
    scan_points: int = 8
    target_sigma_alpha: float = 1e-5


@dataclass(frozen=True)
class FringeSpec:
    base_phase: float = 0.0
    scan_points: int = 16
    n_per_point: int = 1000000


@dataclass(frozen=True)
class SpinSpec:
    gravity: float = 9.80665
    rotation: tuple = (0.0, 0.0, 7.2921159e-5)
    coupling_k: float = 1.0
    exchange: float = 0.0
    duration: float = 1.0
    theta_grid: tuple = ()   # rad
    q_grid: tuple = ()       # units of meter width
    meter_width: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str
    seed: Optional[int] = None
    output_dir: str = "gravlink-out"
    orbit: Optional[OrbitSpec] = None
    station: Optional[StationSpec] = None
    optical: Optional[OpticalConfig] = None
    sweep: Optional[SweepSpec] = None
    redshift: RedshiftParams = RedshiftParams()
    noise: Optional[NoiseSpec] = None
    forecast: Optional[ForecastSpec] = None
    fringe: Optional[FringeSpec] = None
    spin: Optional[SpinSpec] = None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from None


# YAML 1.1 floats need a dot and a sign on any exponent: PyYAML reads 6.771e6 as a string
_EXPONENT = re.compile(r"\s*([-+]?(?:\d+\.?\d*|\.\d+))[eE]\+?(-?\d+)\s*")


def _number(value, name) -> float:
    """A finite int or float; a bool is not a number."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):  # also rejects nan
        return float(value)
    match = _EXPONENT.fullmatch(value) if isinstance(value, str) else None
    hint = "" if match is None else (" (read as a string: PyYAML floats need a dot and a signed "
                                     f"exponent; write {float(match[1])!r}e{int(match[2]):+d})")
    raise ConfigInvalid([f"{name}: expected a finite number, got {value!r}{hint}"])


def _degrees(value, name) -> float:
    return math.radians(_number(value, name))


def _typed(kind: type, what: str):
    """Parser that passes an instance of kind through; bools and "" are rejected."""
    def parse(value, name):
        if isinstance(value, kind) and not isinstance(value, bool) and value != "":
            return value
        raise ConfigInvalid([f"{name}: expected {what}, got {value!r}"])
    return parse


_integer, _text = _typed(int, "an integer"), _typed(str, "a non-empty string")


def _numbers(value, name) -> tuple:
    if isinstance(value, list) and value:
        return tuple(_number(v, name) for v in value)
    raise ConfigInvalid([f"{name}: expected a non-empty list of numbers, got {value!r}"])


def _theta_grid(value, name) -> tuple:
    """Degrees as a list, or an even grid as {start, stop, num}; radians out."""
    if isinstance(value, dict):
        grid, problems = _walk(value, name)
        if problems:
            raise ConfigInvalid(problems)
        value = list(np.linspace(grid["start"], grid["stop"], grid["num"]))
    return tuple(math.radians(v) for v in _numbers(value, name))


def _at_least(lo):
    return (lambda x: x >= lo, f"must be >= {lo}")


def _count(lo, hi=2**31 - 1):
    """Bound of an integer size: sizes past hi would only exhaust memory or time."""
    return (lambda x: lo <= x <= hi, f"must be in [{lo}, {hi}]")


_POSITIVE = (lambda x: x > 0.0, "must be > 0")
_FRACTION = (lambda x: 0.0 <= x <= 1.0, "outside [0, 1]")

# section (None: top level), YAML key, attribute, parser, bound (test, text), required.
# A parser takes (value, name) and raises ConfigInvalid; the bound tests its result.
_FIELDS = (
    (None, "mode", "mode", _text, (lambda m: m in MODES, f"not one of {', '.join(MODES)}"),
     True),
    (None, "seed", "seed", _integer, _at_least(0), False),
    (None, "output_dir", "output_dir", _text, None, False),
    ("orbit", "semi_major_axis_m", "semi_major_axis", _number,
     (lambda a: 6.5e6 <= a <= 5.0e7, "outside [6.5e6, 5e7] m"), False),
    ("orbit", "inclination_deg", "inclination", _degrees, None, False),
    ("orbit", "raan_deg", "raan", _degrees, None, False),
    ("orbit", "phase_deg", "phase", _degrees, None, False),
    ("orbit", "ephemeris_path", "ephemeris_path", _text, None, False),
    ("station", "latitude_deg", "latitude", _degrees,
     (lambda x: abs(x) <= math.radians(90.0), "outside [-90, 90]"), True),
    ("station", "longitude_deg", "longitude", _degrees, None, True),
    ("station", "altitude_m", "altitude", _number, _at_least(0), False),
    ("optical", "wavelength_m", "lambda0", _number, _POSITIVE, True),
    ("optical", "delay_length_m", "delay_length", _number, _POSITIVE, True),
    ("optical", "group_index", "group_index", _number, _at_least(1), False),
    ("optical", "tau_l_s", "tau_l", _number, _POSITIVE, False),
    ("sweep", "t_start_s", "t_start", _number, None, True),
    ("sweep", "t_end_s", "t_end", _number, None, True),
    ("sweep", "n_epochs", "n_epochs", _integer, _count(2), True),
    ("redshift", "alpha", "alpha", _number, (lambda x: abs(x) < 1.0, "outside (-1, 1)"), False),
    ("noise", "photon_budget", "photon_budget", _integer, _count(0), False),
    ("noise", "efficiency", "efficiency", _number, _FRACTION, False),
    ("noise", "dark_rate", "dark_rate", _number, _at_least(0), False),
    ("noise", "visibility", "visibility", _number, _FRACTION, False),
    ("forecast", "trials", "trials", _integer, _count(10), True),
    ("forecast", "scan_points", "scan_points", _integer, _count(4), False),
    ("forecast", "target_sigma_alpha", "target_sigma_alpha", _number, _POSITIVE, False),
    ("fringe", "base_phase_rad", "base_phase", _number, None, False),
    ("fringe", "scan_points", "scan_points", _integer, _count(4), False),
    ("fringe", "n_per_point", "n_per_point", _integer, _count(1), False),
    ("spin", "gravity_mps2", "gravity", _number, _POSITIVE, False),
    ("spin", "rotation_rad_per_s", "rotation", _numbers,
     (lambda v: len(v) == 3, "must have 3 components"), False),
    ("spin", "coupling_k", "coupling_k", _number, None, False),
    ("spin", "exchange_joule", "exchange", _number, None, False),
    ("spin", "duration_s", "duration", _number, _POSITIVE, False),
    ("spin", "meter_width", "meter_width", _number, _POSITIVE, False),
    ("spin", "theta_grid_deg", "theta_grid", _theta_grid, None, True),
    ("spin", "q_grid", "q_grid", _numbers, (lambda q: min(q) > 0.0, "must all be > 0"), True),
    ("spin.theta_grid_deg", "start", "start", _number, None, True),
    ("spin.theta_grid_deg", "stop", "stop", _number, None, True),
    # validate builds the grid itself, so its size stays far below the other counts
    ("spin.theta_grid_deg", "num", "num", _integer, _count(1, 10**6), True),
)
_SPECS = {"orbit": OrbitSpec, "station": StationSpec, "optical": OpticalConfig,
          "sweep": SweepSpec, "redshift": RedshiftParams, "noise": NoiseSpec,
          "forecast": ForecastSpec, "fringe": FringeSpec, "spin": SpinSpec}


def _walk(tree: dict, section: Optional[str]) -> tuple[dict, list[str]]:
    """({attribute: value}, violations) of one section; absent optional keys are left out."""
    values, problems = {}, []
    for key, attr, parse, bound, required in (row[1:] for row in _FIELDS if row[0] == section):
        name = f"{section}.{key}" if section else key
        if key not in tree:
            if required:
                problems.append(f"{name}: required field missing")
            continue
        try:
            value = parse(tree[key], name)
            if bound is not None and not bound[0](value):
                raise ConfigInvalid([f"{name}: {tree[key]} {bound[1]}"])
            values[attr] = value
        except ConfigInvalid as exc:
            problems.extend(exc.violations)
    known = {row[1] for row in _FIELDS if row[0] == section} | (set() if section else set(_SPECS))
    problems += [f"{section}.{key}: unknown key" if section else f"{key}: unknown key"
                 for key in tree if key not in known]
    return values, problems


def _load(path: str) -> tuple[Optional[ScenarioConfig], list[str]]:
    """Read, parse and walk the config once; the config is None on any violation."""
    try:
        tree = yaml.safe_load(_read_text(path))
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: impossible dates
        return None, [f"config is not valid YAML: {exc}"]
    if not isinstance(tree, dict):
        return None, [f"config top level must be a mapping, got {type(tree).__name__}"]
    top, problems = _walk(tree, None)
    mode = top.get("mode")
    if mode in STOCHASTIC_MODES and "seed" not in tree:
        problems.append(f"seed: required for stochastic mode '{mode}'")
    values, specs = {}, {}
    for section, spec in _SPECS.items():
        if isinstance(tree.get(section), dict):
            values[section], found = _walk(tree[section], section)
            problems += found
            if not found:
                specs[section] = spec(**values[section])
        elif section in _SECTION_BY_MODE.get(mode, ()):
            problems.append(f"{section}: expected a mapping" if section in tree
                            else f"{section}: section required for mode '{mode}'")
    orbit = tree.get("orbit")
    if isinstance(orbit, dict) and ("semi_major_axis_m" in orbit) == ("ephemeris_path" in orbit):
        problems.append("orbit: semi_major_axis_m and ephemeris_path are exclusive; set one")
    sweep = values.get("sweep", {})
    if sweep.get("t_start", -math.inf) >= sweep.get("t_end", math.inf):
        problems.append(f"sweep: t_start_s {sweep['t_start']} must be < t_end_s {sweep['t_end']}")
    noise = specs.get("noise")
    # The largest window-probability sum cascade_intensities and simulate_counts reach.
    if noise and noise.efficiency * (0.25 + 0.125 * noise.visibility) + 3 * noise.dark_rate > 1:
        problems.append("noise: efficiency*(0.25 + 0.125*visibility) + 3*dark_rate must be <= 1")
    forecast = specs.get("forecast")
    if mode == "alpha-forecast" and noise and forecast and "sweep" in specs:
        pulses = 2 * specs["sweep"].n_epochs * forecast.scan_points  # one pulse per scan point
        if 0 < noise.photon_budget < pulses:
            problems.append(f"noise.photon_budget: {noise.photon_budget} must be 0 (noiseless) "
                            f"or >= 2*n_epochs*scan_points ({pulses})")
    orbit, station = specs.get("orbit"), specs.get("station")
    if (orbit and orbit.semi_major_axis and station
            and station.altitude >= orbit.semi_major_axis - R_EARTH):
        problems.append(f"station.altitude_m: {station.altitude} must be below the orbit")
    if problems:
        return None, problems
    if "GRAVLINK_OUTPUT_DIR" in os.environ:
        top["output_dir"] = os.environ["GRAVLINK_OUTPUT_DIR"]
    return ScenarioConfig(**top, **specs), []


def ephemeris_orbit(cfg: ScenarioConfig, config_path: str) -> EphemerisTrajectory:
    """The trajectory in the config's ephemeris file (relative to the config).

    Raises FileUnreadable, the parse_cpf errors, InsufficientRecords,
    OutOfRange when the sweep plus the longest light time leaves the table,
    or ConfigInvalid when the station is not below every record (listing
    the span problem first when there is one too).
    """
    path = os.path.join(os.path.dirname(os.path.abspath(config_path)), cfg.orbit.ephemeris_path)
    orbit = EphemerisTrajectory(parse_cpf(_read_text(path)))
    radii = np.linalg.norm(orbit.table.positions, axis=1)
    reach = (radii.max() + R_EARTH + cfg.station.altitude) / C_LIGHT
    sweep, end, span = cfg.sweep, orbit.table.span_seconds, None
    if sweep.t_start < 0.0 or sweep.t_end + reach > end:
        span = OutOfRange(f"sweep [{sweep.t_start:g}, {sweep.t_end:g}] s plus {reach:.3f} s "
                          f"of light time leaves the table span [0, {end:g}] s")
    floor = radii.min() - R_EARTH
    if cfg.station.altitude >= floor:
        problems = [f"orbit.ephemeris_path: OutOfRange: {span}"] if span else []
        raise ConfigInvalid(problems + [f"station.altitude_m: {cfg.station.altitude} must be "
                                        f"below the orbit (lowest record {floor:.6g} m up)"])
    if span:
        raise span
    return orbit


def validate_config(path: str) -> list[str]:
    """Full list of violations for the config at path; empty means valid.

    An ephemeris orbit's file is read and checked as run does (ephemeris_orbit).
    """
    cfg, problems = _load(path)
    if cfg and "orbit" in _SECTION_BY_MODE[cfg.mode] and cfg.orbit.ephemeris_path:
        try:
            ephemeris_orbit(cfg, path)
        except ConfigInvalid as exc:
            problems += exc.violations
        except GravlinkError as exc:
            problems.append(f"orbit.ephemeris_path: {type(exc).__name__}: {exc}")
    return problems


def load_config(path: str) -> ScenarioConfig:
    """Validate and build the typed scenario config.

    Raises FileUnreadable or ConfigInvalid (with the complete violation
    list). The GRAVLINK_OUTPUT_DIR environment variable overrides the
    configured output directory. The ephemeris file is not read here.
    """
    cfg, problems = _load(path)
    if problems:
        raise ConfigInvalid(problems)
    return cfg
