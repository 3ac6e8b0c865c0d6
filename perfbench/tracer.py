"""Span tracer that wraps gravlink's public functions from outside the package.

A span is one call into a wrapped function: its name, the index of the
span that was open when it started (its parent), its start and end on the
``perf_counter`` clock, and whether it raised. Spans stay in memory until
``write`` saves them at the end of a benchmark run.

``install`` replaces each traced function in every loaded ``gravlink``
module namespace that binds it, because ``cli`` and ``estimator`` import
functions by name, and replaces the traced methods on their classes.
Leaving the ``with`` block puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> (module, attribute); "Class.method" patches the class.
TRACED = {
    "cli.main": ("gravlink.cli", "main"),
    "config.load_config": ("gravlink.config", "load_config"),
    "ephemeris.parse_cpf": ("gravlink.ephemeris", "parse_cpf"),
    "ephemeris.interpolate_state": ("gravlink.ephemeris", "interpolate_state"),
    "kinematics.build_link_geometry": ("gravlink.kinematics", "build_link_geometry"),
    "kinematics.solve_light_time": ("gravlink.kinematics", "solve_light_time"),
    "kinematics.state": [
        ("gravlink.kinematics", "CircularOrbit.state"),
        ("gravlink.kinematics", "GroundStation.state"),
        ("gravlink.kinematics", "StaticPlatform.state"),
        ("gravlink.ephemeris", "EphemerisTrajectory.state"),
    ],
    "link_model.phase_pair": ("gravlink.link_model", "phase_pair"),
    "link_model.expanded_signal": ("gravlink.link_model", "expanded_signal"),
    "link_model.velocity_terms": ("gravlink.link_model", "velocity_terms"),
    "link_model.redshift_fraction": ("gravlink.link_model", "redshift_fraction"),
    "link_model.uplink_fractional_shift": ("gravlink.link_model", "uplink_fractional_shift"),
    "link_model.roundtrip_fractional_shift": ("gravlink.link_model",
                                              "roundtrip_fractional_shift"),
    "link_model.first_order_doppler_shift": ("gravlink.link_model",
                                             "first_order_doppler_shift"),
    "link_model.gravitational_phase": ("gravlink.link_model", "gravitational_phase"),
    "interferometer.fringe_scan": ("gravlink.interferometer", "fringe_scan"),
    "interferometer.fit_phase": ("gravlink.interferometer", "fit_phase"),
    "estimator.build_pass": ("gravlink.estimator", "build_pass"),
    "estimator.precision_forecast": ("gravlink.estimator", "precision_forecast"),
    "estimator.run_forecast_trial": ("gravlink.estimator", "run_forecast_trial"),
    "estimator.estimate_alpha": ("gravlink.estimator", "estimate_alpha"),
    "spin_weak.amplification_scan": ("gravlink.spin_weak", "amplification_scan"),
    "spin_weak.meter_shift": ("gravlink.spin_weak", "meter_shift"),
    "spin_weak.weak_value": ("gravlink.spin_weak", "weak_value"),
}

# Span fields, in the order they are stored.
NAME, PARENT, START, END, RAISED = range(5)


class Tracer:
    """Collects the spans of wrapped calls in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()  # TRACED entries the program no longer has
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, open_spans[-1] if open_spans else -1, clock(), 0.0, False]
            spans.append(span)
            open_spans.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                open_spans.pop()

        return traced

    @contextlib.contextmanager
    def install(self):
        """Trace every function in TRACED until the block ends.

        An entry the program no longer defines is skipped and recorded in
        ``missing``, so a refactor behind the config schema leaves the
        per-layer run working, with that metric at 0.
        """
        restore = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gravlink" or n.startswith("gravlink."))]
        try:
            for name, targets in TRACED.items():
                for module_name, attr in targets if isinstance(targets, list) else [targets]:
                    owner = sys.modules.get(module_name)
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(owner, cls_name, None)
                        original = vars(cls).get(meth) if cls is not None else None
                        if original is None:
                            self.missing.add(f"{module_name}.{attr}")
                            continue
                        restore.append((cls, meth, original))
                        setattr(cls, meth, self.wrap(name, original))
                        continue
                    original = getattr(owner, attr, None)
                    if original is None:
                        self.missing.add(f"{module_name}.{attr}")
                        continue
                    wrapper = self.wrap(name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                restore.append((module, key, original))
                                setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def write(self, path: Path) -> None:
        """Save the spans as tab-separated text, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# index\tname\tparent\tstart_s\tend_s\traised\n")
            for i, (name, parent, start, end, raised) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\t{int(raised)}\n")


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START] - covered(children.get(i, ()), span[START], span[END])
            for i, span in enumerate(spans)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, runs: int, epochs: int) -> dict:
    """Per-run counts and self times of the traced layers.

    ``runs`` is the number of traced ``cli.main`` calls in ``spans`` and
    ``epochs`` the sweep epochs of one run (0 when the workload has none).
    """
    selfs = self_times(spans)
    count = defaultdict(int)
    self_s = defaultdict(float)
    entered = defaultdict(int)       # calls into a layer from outside it
    raised = defaultdict(int)
    states_in_solve = 0
    for span, own in zip(spans, selfs):
        name, parent = span[NAME], span[PARENT]
        count[name] += 1
        self_s[name] += own
        raised[name] += span[RAISED]
        parent_name = spans[parent][NAME] if parent >= 0 else ""
        if layer_of(parent_name) != layer_of(name):
            entered[layer_of(name)] += 1
        if name == "kinematics.state" and parent_name == "kinematics.solve_light_time":
            states_in_solve += 1

    def per_run(value):
        return value / runs if runs else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    link_self = sum(v for k, v in self_s.items() if layer_of(k) == "link_model")
    solves = count["kinematics.solve_light_time"]
    return {
        "config.load_s": per_run(self_s["config.load_config"]),
        "ephemeris.parse_s": per_run(self_s["ephemeris.parse_cpf"]),
        "ephemeris.interpolate_calls": per_run(count["ephemeris.interpolate_state"]),
        "ephemeris.interpolate_self_s": per_run(self_s["ephemeris.interpolate_state"]),
        "ephemeris.interpolate_calls_per_epoch":
            ratio(per_run(count["ephemeris.interpolate_state"]), epochs),
        "kinematics.geometry_calls": per_run(count["kinematics.build_link_geometry"]),
        "kinematics.geometry_self_s": per_run(self_s["kinematics.build_link_geometry"]),
        "kinematics.light_time_solves": per_run(solves),
        "kinematics.light_time_self_s": per_run(self_s["kinematics.solve_light_time"]),
        "kinematics.light_time_iters_per_solve": ratio(states_in_solve, solves),
        "kinematics.state_calls": per_run(count["kinematics.state"]),
        "kinematics.state_self_s": per_run(self_s["kinematics.state"]),
        "kinematics.states_per_epoch": ratio(per_run(count["kinematics.state"]), epochs),
        "link_model.calls": per_run(entered["link_model"]),
        "link_model.self_s": per_run(link_self),
        "interferometer.scan_calls": per_run(count["interferometer.fringe_scan"]),
        "interferometer.scan_self_s": per_run(self_s["interferometer.fringe_scan"]),
        "interferometer.fit_calls": per_run(count["interferometer.fit_phase"]),
        "interferometer.fit_self_s": per_run(self_s["interferometer.fit_phase"]),
        "interferometer.fit_failed": per_run(raised["interferometer.fit_phase"]),
        "estimator.trials": per_run(count["estimator.run_forecast_trial"]),
        "estimator.trial_self_s": per_run(self_s["estimator.run_forecast_trial"]),
        "estimator.regression_self_s": per_run(self_s["estimator.estimate_alpha"]),
        "estimator.pass_self_s": per_run(self_s["estimator.build_pass"]),
        "estimator.forecast_self_s": per_run(self_s["estimator.precision_forecast"]),
        "spin_weak.meter_shift_calls": per_run(count["spin_weak.meter_shift"]),
        "spin_weak.meter_shift_self_s": per_run(self_s["spin_weak.meter_shift"]),
        "spin_weak.weak_value_calls": per_run(count["spin_weak.weak_value"]),
        "spin_weak.weak_value_self_s": per_run(self_s["spin_weak.weak_value"]),
        "spin_weak.scan_self_s": per_run(self_s["spin_weak.amplification_scan"]),
        "cli.self_s": per_run(self_s["cli.main"]),
    }


def layer_self_seconds(summary: dict) -> dict:
    """Self seconds per run of each layer, from a ``summarize`` result."""
    totals = defaultdict(float)
    for key, value in summary.items():
        if key.endswith("self_s") or key in ("config.load_s", "ephemeris.parse_s"):
            totals[layer_of(key)] += value
    return dict(totals)
