"""Tests of the benchmark itself: inputs, output checks, tracing, runner.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

ROOT = Path(run.__file__).resolve().parent.parent
OUTPUT_FILES = {"pass_analytic": "pass_sweep.txt", "pass_ephemeris": "pass_sweep.txt",
                "forecast": "forecast_trials.txt", "weak_scan": "weakvalue_scan.txt"}


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name, tmp_path):
    first = workloads.generate(name, 5, tmp_path / "a")
    second = workloads.generate(name, 5, tmp_path / "b")
    other = workloads.generate(name, 6, tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    # another seed moves the geometry but not the amount of work
    assert first.config.read_bytes() != other.config.read_bytes()
    assert (first.items, first.epochs) == (second.items, second.epochs) == (other.items,
                                                                            other.epochs)


def test_numbers_read_back_as_floats():
    import yaml

    for x in (6.771e6, 1e-4, 1e22, -0.0, 3.45e-42, 89.0):
        assert yaml.safe_load(workloads._num(x)) == x


# ------------------------------------------------------------ output checks


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Each workload run once at the default seed; name -> (inputs, out_dir)."""
    base = tmp_path_factory.mktemp("runs")
    result = {}
    for name in workloads.WORKLOADS:
        inputs = workloads.generate(name, workloads.DEFAULT_SEED, base / name)
        out_dir = base / name / "out"
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("GRAVLINK_OUTPUT_DIR", str(out_dir))
            code, _, _, stderr = run.drive(inputs.config)
        assert code == 0, stderr
        result[name] = (inputs, out_dir)
    return result


def _corrupted(default_runs, name, tmp_path, edit):
    """Copy of a default run's outputs with ``edit`` applied to its table."""
    inputs, out_dir = default_runs[name]
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    path = copy / OUTPUT_FILES[name]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return inputs, copy


def _set(lines, row, column, value):
    """Replace one value of the 1-based data ``row`` (after the header)."""
    fields = lines[row].split()
    fields[column] = value(float(fields[column]))
    return lines[:row] + [" ".join(fields)] + lines[row + 1:]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_accept_the_program_output(default_runs, name):
    inputs, out_dir = default_runs[name]
    assert workloads.check(inputs, out_dir) == []


@pytest.mark.parametrize("name, row, column, change", [
    ("pass_analytic", 1500, 4, lambda v: f"{v + 0.1:.12e}"),      # s off the model
    ("pass_analytic", 7, 4, lambda v: f"{v + 1e-7:.12e}"),        # only the reference sees it
    ("pass_analytic", 9, 0, lambda v: f"{v + 1.0:.12e}"),         # epoch grid
    ("pass_ephemeris", 150, 6, lambda v: f"{v - 0.1:.12e}"),      # expanded model
    ("pass_ephemeris", 33, 4, lambda v: f"{v + 1e-7:.12e}"),
    ("forecast", 3, 1, lambda v: "1.0e-01"),                      # one wild alpha_hat
    ("forecast", 4, 2, lambda v: "-1.0e-04"),                     # negative sigma
    ("weak_scan", 4000, 4, lambda v: f"{v * (1 + 1e-6):.12e}"),  # exact shift
    ("weak_scan", 17, 6, lambda v: f"{v * (1 - 1e-6):.12e}"),    # post-selection probability
    ("weak_scan", 123, 2, lambda v: f"{v + 1e-3:.12e}"),         # weak value
])
def test_checks_reject_one_corrupted_value(default_runs, tmp_path, name, row, column, change):
    inputs, copy = _corrupted(default_runs, name, tmp_path,
                              lambda lines: _set(lines, row, column, change))
    assert workloads.check(inputs, copy)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_reject_a_missing_row(default_runs, tmp_path, name):
    inputs, copy = _corrupted(default_runs, name, tmp_path, lambda lines: lines[:-2] + lines[-1:])
    assert workloads.check(inputs, copy)


def test_forecast_check_rejects_failed_steps(default_runs, tmp_path):
    inputs, out_dir = default_runs["forecast"]
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    with open(copy / "summary.txt", "a") as fh:
        fh.write("[FAILED] budget extrapolation: ValueError: boom\n")
    assert workloads.check(inputs, copy)
    assert workloads.failed_steps((copy / "summary.txt").read_text()) == 1


def test_closed_form_matches_the_weak_limit():
    theta = np.radians(np.array([0.0, 30.0, 60.0, 85.0]))
    shift, prob = workloads.pointer_closed_form(theta, 1e-6, 1.0)
    assert np.allclose(shift, 1e-6 * np.tan(theta), rtol=1e-9)
    assert np.allclose(prob, np.cos(theta) ** 2, rtol=1e-9)


# ------------------------------------------------------------------ tracing


def _span(name, parent, start, end):
    return [name, parent, start, end, False]


def test_self_time_subtracts_children():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("kinematics.build_link_geometry", 0, 1.0, 4.0),
        _span("kinematics.state", 1, 2.0, 3.0),
        _span("link_model.phase_pair", 0, 5.0, 6.5),
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_covered_merges_overlaps_and_clips():
    assert tracer.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert tracer.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert tracer.covered([], 0.0, 1.0) == 0.0


def test_tracer_wraps_names_bound_in_other_modules_and_restores_them():
    import gravlink.cli
    import gravlink.estimator
    import gravlink.kinematics

    original = gravlink.kinematics.build_link_geometry
    t = tracer.Tracer()
    with t.install():
        assert gravlink.estimator.build_link_geometry is not original
        assert gravlink.kinematics.build_link_geometry is gravlink.estimator.build_link_geometry
        station = gravlink.kinematics.GroundStation(0.0, 0.0)
        orbit = gravlink.kinematics.CircularOrbit(6.771e6)
        gravlink.estimator.build_pass(station, orbit, -10.0, 10.0, 3)
    assert gravlink.kinematics.build_link_geometry is original
    assert gravlink.estimator.build_link_geometry is original
    names = [s[tracer.NAME] for s in t.spans]
    assert names[0] == "estimator.build_pass"
    assert names.count("kinematics.build_link_geometry") == 3
    assert all(s[tracer.PARENT] == 0 for s in t.spans
               if s[tracer.NAME] == "kinematics.build_link_geometry")
    summary = tracer.summarize(t.spans, runs=1, epochs=3)
    assert summary["kinematics.geometry_calls"] == 3
    assert summary["kinematics.light_time_solves"] == 6
    assert 2 <= summary["kinematics.light_time_iters_per_solve"] <= 50
    assert summary["kinematics.states_per_epoch"] == summary["kinematics.state_calls"] / 3


def test_tracer_marks_raised_spans():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t.wrap("interferometer.fit_phase", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert t.spans[0][tracer.RAISED] is True
    assert tracer.summarize(t.spans, 1, 0)["interferometer.fit_failed"] == 1


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |       scipy.optimize._x",
        "import time:        50 |        450 |     scipy.optimize",
        "import time:        10 |       1000 |   gravlink.interferometer",
        "import time:        20 |       1200 | gravlink",
    ])
    assert run.parse_importtime(text) == pytest.approx((1200e-6, 750e-6))


def test_tail_needs_ten_samples_beyond():
    value, label = run.tail(list(range(1, 31)))
    assert value == 20 and "p67 of 30" in label
    value, label = run.tail(list(range(1, 21)))   # p50 would be no tail
    assert value == pytest.approx(18.1) and "p90 of 20" in label
    value, label = run.tail([3.0, 1.0, 2.0])
    assert value == pytest.approx(2.8) and "p90 of 3" in label
    assert run.tail([5.0]) == (5.0, "only run")


# ------------------------------------------------------------------- runner


@pytest.mark.parametrize("scenario", sorted(p.name for p in (ROOT / "scenarios").glob("*.yaml")))
def test_runner_drives_every_shipped_scenario(scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
    code, seconds, stdout, stderr = run.drive(ROOT / "scenarios" / scenario)
    assert code == 0, stderr
    assert seconds > 0.0 and stdout
    assert any((tmp_path / "out").iterdir())


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_keys = set(tracer.summarize([], 1, 0))
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert layer_keys <= per_layer


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "weak_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_skips_what_the_program_no_longer_has(monkeypatch):
    import gravlink.kinematics

    monkeypatch.setitem(tracer.TRACED, "kinematics.gone", ("gravlink.kinematics", "gone"))
    monkeypatch.setitem(tracer.TRACED, "kinematics.gone_state",
                        ("gravlink.kinematics", "GroundStation.gone"))
    t = tracer.Tracer()
    with t.install():
        gravlink.kinematics.GroundStation(0.0, 0.0).state(0.0)
    assert t.missing == {"gravlink.kinematics.gone", "gravlink.kinematics.GroundStation.gone"}
    assert [s[tracer.NAME] for s in t.spans] == ["kinematics.state"]
