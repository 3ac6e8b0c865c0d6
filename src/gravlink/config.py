"""Scenario configuration: YAML loading, validation, read-only views.

One walk over one field table (_FIELDS) collects every violation instead of
stopping at the first and builds the config. The table is the schema: each
row holds a field's key, attribute, parser, bound and default, and the only
home of that default. The config and each of its sections are views of one
read-only type, ScenarioConfig, whose attributes are their rows and the inputs a
run derives from them, each computed once, where _load checks it: the ephemeris
path resolved against the config's directory, optical.scale, spin.kicks and the
read-only matrix spin.hamiltonian. The checks borrowed from ephemeris,
interferometer and spin_weak import them only when a config reaches them.
Units in config files are SI with the unit in the key name, except angles,
which are degrees (converted to radians here).
"""

from __future__ import annotations

import gc
import math
import os
import re
import sys
from itertools import accumulate
from types import SimpleNamespace
from typing import Optional

import numpy as np
import yaml

from .constants import C_LIGHT, G_STD, OMEGA_EARTH, R_EARTH
from .errors import ConfigInvalid, FileUnreadable, GravlinkError, OutOfRange
from .kinematics import CircularOrbit, GroundStation
from .link_model import phase_scale

_SECTION_BY_MODE = {  # a mode draws photon noise exactly when it has a noise section
    "redshift-pass": ("orbit", "station", "optical", "sweep"),
    "alpha-forecast": ("orbit", "station", "optical", "sweep", "noise", "forecast"),
    "fringe-demo": ("fringe", "noise"),
    "weakvalue-scan": ("spin",),
    "constants": (),
}
MODES = tuple(_SECTION_BY_MODE)
MAX_COUNT = 2**31 - 1  # the largest integer size a config may give


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


def _typed(kind: type, what: str, ok=lambda value: value != ""):
    """Parser that passes an instance of kind that ok accepts; bools and "" are rejected."""
    def parse(value, name):
        if isinstance(value, kind) and not isinstance(value, bool) and ok(value):
            return value
        raise ConfigInvalid([f"{name}: expected {what}, got {value!r}"])
    return parse


_integer, _text = _typed(int, "an integer"), _typed(str, "a non-empty string")
_path = _typed(str, "a non-empty string with no NUL character", lambda p: p and "\0" not in p)


def _numbers(value, name) -> tuple:
    if isinstance(value, list) and value:
        if {*map(type, value)} == {float} and all(map(math.isfinite, value)):
            return tuple(value)
        return tuple(_number(v, name) for v in value)
    raise ConfigInvalid([f"{name}: expected a non-empty list of numbers, got {value!r}"])


def _theta_grid(value, name) -> tuple:
    """Degrees as a list, or an even grid as {start, stop, num}; radians out."""
    if isinstance(value, dict):
        grid, problems = _walk(value, name)
        if problems:
            raise ConfigInvalid(problems)
        if not math.isfinite(grid["stop"] - grid["start"]):  # linspace would warn and give nan
            raise ConfigInvalid([f"{name}: stop - start is past the float range"])
        value = np.linspace(grid["start"], grid["stop"], grid["num"]).tolist()
    return tuple(map(math.radians, _numbers(value, name)))


def _at_least(lo):
    return (lambda x: x >= lo, f"must be >= {lo}")


def _count(lo, hi=MAX_COUNT):
    """Bound of an integer size: sizes past hi would only exhaust memory or time."""
    return (lambda x: lo <= x <= hi, f"must be in [{lo}, {hi}]")


def _selectable(thetas) -> np.ndarray:
    """The scan's own orthogonality test, negated: True where a selection is allowed."""
    from .spin_weak import orthogonal_selections

    return ~orthogonal_selections(thetas)


def _unresolved(sweep, altitude: float, radii: np.ndarray) -> list[str]:
    """The epoch rule's violation, if any (README), for t_start < t_end and orbit radii (m) above
    the station: doubles near the last epoch a pass reaches lie <= 2^-20 light time apart."""
    epoch = max(-sweep.t_start, sweep.t_end) + 2 * (radii.max() + R_EARTH + altitude) / C_LIGHT
    light_time, gap = (radii.min() - R_EARTH - altitude) / C_LIGHT, math.ulp(epoch)
    return [f"sweep: epochs near {epoch:.6g} s lie {gap:.3g} s apart, over 2^-20 of the "
            f"{light_time:.3g} s light time to the orbit"] if 0 < light_time < 2**20 * gap else []


_POSITIVE = (lambda x: x > 0.0, "must be > 0")
_FRACTION = (lambda x: 0.0 <= x <= 1.0, "outside [0, 1]")

REQUIRED = object()  # default of a key that must be given

# section (None: top level), YAML key, attribute, parser, bound (test, text), default.
# A parser takes (value, name) and raises ConfigInvalid; the bound tests its result, or
# each entry of a list field, so that its violation names only the failing entries.
_FIELDS = (
    (None, "mode", "mode", _text, (lambda m: m in MODES, f"not one of {', '.join(MODES)}"),
     REQUIRED),
    (None, "seed", "seed", _integer, _at_least(0), None),
    (None, "output_dir", "output_dir", _path, None, "gravlink-out"),
    ("orbit", "semi_major_axis_m", "semi_major_axis", _number,
     (lambda a: 6.5e6 <= a <= 5.0e7, "outside [6.5e6, 5e7] m"), None),
    ("orbit", "inclination_deg", "inclination", _degrees, None, 0.0),
    ("orbit", "raan_deg", "raan", _degrees, None, 0.0),
    ("orbit", "phase_deg", "phase", _degrees, None, 0.0),
    ("orbit", "ephemeris_path", "ephemeris_path", _path, None, None),
    ("station", "latitude_deg", "latitude", _degrees,
     (lambda x: abs(x) <= math.radians(90.0), "outside [-90, 90]"), REQUIRED),
    ("station", "longitude_deg", "longitude", _degrees, None, REQUIRED),
    ("station", "altitude_m", "altitude", _number, _at_least(0), 0.0),
    ("optical", "wavelength_m", "lambda0", _number, _POSITIVE, REQUIRED),
    ("optical", "delay_length_m", "delay_length", _number, _POSITIVE, REQUIRED),
    ("optical", "group_index", "group_index", _number, _at_least(1), 1.0),
    # _load derives an absent tau_l as delay_length * group_index / c
    ("optical", "tau_l_s", "tau_l", _number, _POSITIVE, None),
    ("sweep", "t_start_s", "t_start", _number, None, REQUIRED),
    ("sweep", "t_end_s", "t_end", _number, None, REQUIRED),
    ("sweep", "n_epochs", "n_epochs", _integer, _count(2), REQUIRED),
    ("redshift", "alpha", "alpha", _number, (lambda x: abs(x) < 1.0, "outside (-1, 1)"), 0.0),
    ("noise", "photon_budget", "photon_budget", _integer, _count(0), 0),
    ("noise", "efficiency", "efficiency", _number, _FRACTION, 1.0),
    ("noise", "dark_rate", "dark_rate", _number, _at_least(0), 0.0),
    ("noise", "visibility", "visibility", _number, _FRACTION, 1.0),
    ("forecast", "trials", "trials", _integer, _count(10), REQUIRED),
    ("forecast", "scan_points", "scan_points", _integer, _count(4), 8),
    ("forecast", "target_sigma_alpha", "target_sigma_alpha", _number, _POSITIVE, 1e-5),
    ("fringe", "base_phase_rad", "base_phase", _number, None, 0.0),
    ("fringe", "scan_points", "scan_points", _integer, _count(4), 16),
    ("fringe", "n_per_point", "n_per_point", _integer, _count(1), 1000000),
    ("spin", "gravity_mps2", "gravity", _number, _POSITIVE, G_STD),
    ("spin", "rotation_rad_per_s", "rotation", _numbers,
     (lambda v: len(v) == 3, "must have 3 components"), (0.0, 0.0, OMEGA_EARTH)),
    ("spin", "coupling_k", "coupling_k", _number, None, 1.0),
    ("spin", "exchange_joule", "exchange", _number, None, 0.0),
    ("spin", "duration_s", "duration", _number, _POSITIVE, 1.0),
    ("spin", "meter_width", "meter_width", _number, _POSITIVE, 1.0),
    ("spin", "theta_grid_deg", "theta_grid", _theta_grid,
     (_selectable, "has a post-selection orthogonal to |0>"), REQUIRED),
    ("spin", "q_grid", "q_grid", _numbers, (lambda q: np.array(q) > 0.0, "must be > 0"),
     REQUIRED),
    ("spin.theta_grid_deg", "start", "start", _number, None, REQUIRED),
    ("spin.theta_grid_deg", "stop", "stop", _number, None, REQUIRED),
    # validate builds the grid itself, so its size stays far below the other counts
    ("spin.theta_grid_deg", "num", "num", _integer, _count(1, 10**6), REQUIRED),
)


_SECTIONS = tuple(dict.fromkeys(row[0] for row in _FIELDS if row[0] and "." not in row[0]))


class ScenarioConfig(SimpleNamespace):
    """A loaded config or one of its sections: its rows' attributes, read-only."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _shown(raw, ok: np.ndarray) -> str:
    """A violation's raw value; a list as its first three failing entries when ok
    tests each entry, else as its length."""
    if not isinstance(raw, list):
        return f"{raw}"
    if not ok.ndim:
        return f"a list of {len(raw)}"
    bad = np.flatnonzero(~ok)
    more = f" (+{len(bad) - 3} more)" if len(bad) > 3 else ""
    return ", ".join(f"[{i}] = {raw[i]!r}" for i in bad[:3]) + more


def _walk(tree: dict, section: Optional[str]) -> tuple[dict, list[str]]:
    """({attribute: value}, violations) of one section; absent optional keys at defaults."""
    values, problems = {}, []
    for key, attr, parse, bound, default in (row[1:] for row in _FIELDS if row[0] == section):
        name = f"{section}.{key}" if section else key
        if key not in tree:
            if default is REQUIRED:
                problems.append(f"{name}: required field missing")
            else:
                values[attr] = default
            continue
        try:
            value = parse(tree[key], name)
            ok = True if bound is None else np.asarray(bound[0](value))
            if not np.all(ok):
                raise ConfigInvalid([f"{name}: {_shown(tree[key], ok)} {bound[1]}"])
            values[attr] = value
        except ConfigInvalid as exc:
            problems.extend(exc.violations)
    known = {row[1] for row in _FIELDS if row[0] == section}.union(() if section else _SECTIONS)
    problems += [f"{section}.{key}: unknown key" if section else f"{key}: unknown key"
                 for key in tree if key not in known]
    return values, problems


# resolve's tag of a plain decimal: not a string, so that no document can write it
_DECIMAL_TAG, _DECIMAL = object(), re.compile(r"[-+]?[0-9]+\.[0-9]*([eE][-+][0-9]+)?")


class _LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader, on libyaml's parser when PyYAML has it, that reads a plain
    scalar matching _DECIMAL in one step: YAML 1.1 resolves these only to a float, and
    float(text) is construct_yaml_float's value. Other nodes go to PyYAML unchanged."""
    # the composer calls both per node; with no path resolver registered, PyYAML's do nothing
    descend_resolver = ascend_resolver = lambda self, node=None, index=None: None

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode and implicit[0] and _DECIMAL.fullmatch(value):
            return _DECIMAL_TAG
        return super().resolve(kind, value, implicit)

    def construct_object(self, node, deep=False):
        if node.tag is _DECIMAL_TAG:
            return float(node.value)
        return super().construct_object(node, deep)


# libyaml composes by C recursion, one call per nesting level, and overflows the stack near
# 30000 levels, so the event stream is scanned for the depth first, unless the text holds at
# most _MAX_DEPTH of '-', '?', ':', '[' and '{': each collection start needs one of its own.
_MAX_DEPTH = 100


def _load(path: str) -> tuple[Optional[ScenarioConfig], list[str]]:
    """Read, parse and walk the config once; the config is None on any violation."""
    text = _read_text(path)
    collecting = gc.isenabled()  # the cyclic collector pauses while YAML is composed (README)
    try:
        gc.disable()
        steps = (isinstance(e, yaml.CollectionStartEvent) - isinstance(e, yaml.CollectionEndEvent)
                 for e in yaml.parse(text, Loader=_LOADER))
        if sum(map(text.count, "-?:[{")) > _MAX_DEPTH and any(
                depth > _MAX_DEPTH for depth in accumulate(steps)):
            return None, [f"config nests deeper than {_MAX_DEPTH} levels"]
        tree = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: impossible dates
        return None, [f"config is not valid YAML: {exc}"]
    finally:
        if collecting:
            gc.enable()
    if not isinstance(tree, dict):
        return None, [f"config top level must be a mapping, got {type(tree).__name__}"]
    top, problems = _walk(tree, None)
    mode = top.get("mode")
    if "noise" in _SECTION_BY_MODE.get(mode, ()) and "seed" not in tree:
        problems.append(f"seed: required for stochastic mode '{mode}'")
    values, specs = {}, dict.fromkeys(_SECTIONS)
    for section in _SECTIONS:
        raw = tree.get(section, {} if section == "redshift" else None)  # absent: alpha 0, GR
        if isinstance(raw, dict):
            values[section], found = _walk(raw, section)
            problems += found
            if not found:
                specs[section] = ScenarioConfig(**values[section])
        elif section in tree or section in _SECTION_BY_MODE.get(mode, ()):
            problems.append(f"{section}: expected a mapping" if section in tree
                            else f"{section}: section required for mode '{mode}'")
    optical = specs.get("optical")
    if optical:
        tau_l = optical.tau_l or optical.delay_length * optical.group_index / C_LIGHT
        try:
            specs["optical"] = ScenarioConfig(**vars(optical) | {
                "tau_l": tau_l, "scale": phase_scale(optical.lambda0, tau_l)})
        except ValueError as exc:
            problems.append(f"optical: {exc}")
    orbit = tree.get("orbit")
    if isinstance(orbit, dict) and ("semi_major_axis_m" in orbit) == ("ephemeris_path" in orbit):
        problems.append("orbit: semi_major_axis_m and ephemeris_path are exclusive; set one")
    sweep, orbit, station = values.get("sweep", {}), specs.get("orbit"), specs.get("station")
    if sweep.get("t_start", -math.inf) >= sweep.get("t_end", math.inf):
        problems.append(f"sweep: t_start_s {sweep['t_start']} must be < t_end_s {sweep['t_end']}")
    elif not math.isfinite(sweep.get("t_end", 0.0) - sweep.get("t_start", 0.0)):
        problems.append("sweep: t_end_s - t_start_s is past the float range")
    elif specs["sweep"] and orbit and orbit.semi_major_axis and station:  # a circle of radius a
        problems += _unresolved(specs["sweep"], station.altitude, np.array([orbit.semi_major_axis]))
    noise = specs.get("noise")
    if noise:
        from .interferometer import outcome_probabilities

        try:  # the window probabilities at the fringe maximum, checked as the draws check them
            outcome_probabilities(0.0, noise.visibility, noise.efficiency, noise.dark_rate)
        except ValueError:
            problems.append("noise: efficiency*(0.25 + 0.125*visibility) + 3*dark_rate "
                            "must be <= 1")
    forecast = specs.get("forecast")
    if mode == "alpha-forecast" and noise and forecast and specs["sweep"]:
        pulses = 2 * specs["sweep"].n_epochs * forecast.scan_points  # one pulse per scan point
        if 0 < noise.photon_budget < pulses:
            problems.append(f"noise.photon_budget: {noise.photon_budget} must be 0 (noiseless) "
                            f"or >= 2*n_epochs*scan_points ({pulses})")
        if noise.photon_budget > 0 and noise.efficiency == 0:
            problems.append("noise.efficiency: 0 detects no photon; set photon_budget: 0 "
                            "for a noiseless forecast")
    spin = specs.get("spin")
    if spin:  # the scan's kicks are q * meter_width, and its largest weak shifts a kick
        # times max|A_w|, with A_w = tan(theta) its weak value
        from .spin_weak import h_ext, h_sigma, two_spin_hamiltonian

        kicks = tuple(q * spin.meter_width for q in spin.q_grid)
        a_w = max(map(abs, map(math.tan, spin.theta_grid)))
        weak = np.array([not math.isfinite(k) or math.isfinite(k * a_w) for k in kicks])
        for ok, times in ((np.isfinite(kicks), ""), (weak, f" times max|tan theta| {a_w:g}")):
            if not ok.all():  # an infinite kick is named once, by the first
                problems.append(f"spin.q_grid: {_shown(tree['spin']['q_grid'], ok)} times "
                                f"meter_width {spin.meter_width:g}{times} must be finite")
        acceleration = (0.0, 0.0, spin.gravity)  # the pair Hamiltonian, gravity along z
        with np.errstate(all="ignore"):  # |eigenvalues| <= the largest row sum of |entries|
            pair = two_spin_hamiltonian(h_sigma(spin.rotation, acceleration)
                                        + h_ext(acceleration, spin.coupling_k), spin.exchange)
            if not np.isfinite(abs(pair).sum(axis=1)).all():
                problems.append("spin: rotation_rad_per_s, gravity_mps2, coupling_k and "
                                "exchange_joule take the pair Hamiltonian past the float range")
        pair.flags.writeable = False
        specs["spin"] = ScenarioConfig(**vars(spin), kicks=kicks, hamiltonian=pair)
    if orbit and orbit.ephemeris_path:  # the file the run opens, from the config's directory
        specs["orbit"] = ScenarioConfig(**vars(orbit) | {"ephemeris_path": os.path.join(
            os.path.dirname(os.path.abspath(path)), orbit.ephemeris_path)})
    if (orbit and orbit.semi_major_axis and station
            and station.altitude >= orbit.semi_major_axis - R_EARTH):
        problems.append(f"station.altitude_m: {station.altitude} must be below the orbit")
    if "GRAVLINK_OUTPUT_DIR" in os.environ:
        try:
            top["output_dir"] = _text(os.environ["GRAVLINK_OUTPUT_DIR"], "GRAVLINK_OUTPUT_DIR")
        except ConfigInvalid as exc:
            problems += exc.violations
    if problems:
        return None, problems
    return ScenarioConfig(**top, **specs), []


def trajectories(cfg: ScenarioConfig) -> tuple:
    """(station, orbit) of a config with an orbit: a GroundStation, and a CircularOrbit
    or the trajectory in the config's ephemeris file, read and checked once.

    Raises FileUnreadable, the parse_cpf errors, InsufficientRecords,
    OutOfRange when the sweep plus the longest light time leaves the table,
    or ConfigInvalid when the station is not below every record or the sweep
    breaks the epoch rule (listing the span problem first when there is one too).
    """
    orbit, station = cfg.orbit, cfg.station
    if orbit.ephemeris_path is None:
        orbit = CircularOrbit(orbit.semi_major_axis, orbit.inclination, orbit.raan, orbit.phase)
    else:
        from .ephemeris import EphemerisTrajectory, parse_cpf

        orbit = EphemerisTrajectory(parse_cpf(_read_text(orbit.ephemeris_path)))
        radii = np.linalg.norm(orbit.table.positions, axis=1)
        reach = (radii.max() + R_EARTH + station.altitude) / C_LIGHT
        sweep, end, span = cfg.sweep, orbit.table.span_seconds, None
        if sweep.t_start < 0.0 or sweep.t_end + reach > end:
            span = OutOfRange(f"sweep [{sweep.t_start:g}, {sweep.t_end:g}] s plus {reach:.3f} s "
                              f"of light time leaves the table span [0, {end:g}] s")
        problems = [f"orbit.ephemeris_path: OutOfRange: {span}"] if span else []
        floor, rules = radii.min() - R_EARTH, _unresolved(sweep, station.altitude, radii)
        if station.altitude >= floor:
            rules.append(f"station.altitude_m: {station.altitude} must be below the orbit "
                         f"(lowest record {floor:.6g} m up)")
        if rules:  # a span problem alone is an OutOfRange
            raise ConfigInvalid(problems + rules)
        if span:
            raise span
    return GroundStation(station.latitude, station.longitude, station.altitude), orbit


def validate_config(path: str) -> list[str]:
    """Full list of violations for the config at path; empty means valid.

    A mode with an orbit builds its trajectories as run does (trajectories),
    so an ephemeris orbit's file is read and checked.
    """
    cfg, problems = _load(path)
    if cfg and "orbit" in _SECTION_BY_MODE[cfg.mode]:
        try:
            trajectories(cfg)
        except ConfigInvalid as exc:
            problems += exc.violations
        except GravlinkError as exc:  # only an ephemeris orbit raises these
            problems.append(f"orbit.ephemeris_path: {type(exc).__name__}: {exc}")
    return problems


def load_config(path: str) -> ScenarioConfig:
    """Validate and build the typed scenario config.

    Raises FileUnreadable or ConfigInvalid (with the complete violation
    list). GRAVLINK_OUTPUT_DIR, when set, overrides the configured output
    directory and must not be empty. The ephemeris file is not read here.
    """
    cfg, problems = _load(path)
    if problems:
        raise ConfigInvalid(problems)
    return cfg
