"""Scenario config validation and the command-line front end."""

import contextlib
import copy
import dataclasses
import gc
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gravlink
import gravlink.cli
import gravlink.config
import gravlink.ephemeris
import gravlink.estimator
import gravlink.spin_weak
from gravlink import __version__
from gravlink.cli import _table, main
from gravlink.config import MODES, load_config, validate_config
from gravlink.constants import C_LIGHT, G_STD, HBAR, OMEGA_EARTH
from gravlink.ephemeris import EphemerisTable, EphemerisTrajectory, parse_cpf
from gravlink.errors import BadAltitude, ConfigInvalid, FileUnreadable
from gravlink.interferometer import outcome_probabilities
from gravlink.kinematics import GroundStation, build_pass
from gravlink.link_model import phase_scale

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SCENARIO_FILES = sorted(SCENARIOS.glob("*.yaml"))


def write_yaml(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


MULTI_PROBLEM = """
mode: redshift-pass
orbit:
  semi_major_axis_m: 6.771e+6
  ephemeris_path: x.cpf
station:
  longitude_deg: 0.0
optical:
  wavelength_m: -800.0e-9
  delay_length_m: 6000.0
sweep:
  t_start_s: 0.0
  t_end_s: -10.0
  n_epochs: 1
"""

SMALL_PASS = """
mode: redshift-pass
output_dir: {out}
orbit:
  semi_major_axis_m: 6.771e+6
station:
  latitude_deg: 0.0
  longitude_deg: 0.0
optical:
  wavelength_m: 800.0e-9
  delay_length_m: 6000.0
sweep:
  t_start_s: -60.0
  t_end_s: 60.0
  n_epochs: 12
"""

SMALL_FORECAST = """
mode: alpha-forecast
seed: 11
output_dir: {out}
orbit:
  semi_major_axis_m: 6.771e+6
station:
  latitude_deg: 0.0
  longitude_deg: 0.0
optical:
  wavelength_m: 800.0e-9
  delay_length_m: 6000.0
sweep:
  t_start_s: -240.0
  t_end_s: 240.0
  n_epochs: 6
redshift:
  alpha: 3.0e-4
noise:
  photon_budget: 96000
forecast:
  trials: 10
  scan_points: 8
"""

SMALL_FRINGE = """
mode: fringe-demo
seed: 7
output_dir: {out}
fringe:
  base_phase_rad: 0.7
  scan_points: 8
  n_per_point: 20000
noise:
  visibility: {vis}
"""

SMALL_WEAKVALUE = """
mode: weakvalue-scan
output_dir: {out}
spin:
  theta_grid_deg: [30.0, 84.0]
  q_grid: [1.0e-3, 1.0e-1]
"""

SMALL_EPHEMERIS = """
mode: redshift-pass
output_dir: {out}
orbit:
  ephemeris_path: {cpf}
station:
  latitude_deg: 0.0
  longitude_deg: 0.0
optical:
  wavelength_m: 800.0e-9
  delay_length_m: 6000.0
sweep:
  t_start_s: 300.0
  t_end_s: {t_end}
  n_epochs: 6
"""
SAMPLE_CPF = SCENARIOS / "leo_sample.cpf"  # 41 records, 60 s apart: span 2400 s
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

# Inputs that validate once accepted and run then crashed or misbehaved on;
# each is a config problem, so both commands exit 2.
DEFECTS = [
    ("theta_string", SMALL_WEAKVALUE, "theta_grid_deg: [30.0, 84.0]",
     'theta_grid_deg: {start: "x", stop: 85.0, num: 4}', "spin.theta_grid_deg.start:"),
    ("theta_num_bool", SMALL_WEAKVALUE, "theta_grid_deg: [30.0, 84.0]",
     "theta_grid_deg: {start: 0.0, stop: 85.0, num: true}", "spin.theta_grid_deg.num:"),
    ("dark_rate", SMALL_FRINGE, "visibility: 1.0", "visibility: 1.0\n  dark_rate: 0.6",
     "noise:"),
    ("station_above_orbit", SMALL_PASS, "longitude_deg: 0.0",
     "longitude_deg: 0.0\n  altitude_m: 5.0e+5", "station.altitude_m:"),
    ("nan", SMALL_PASS, "t_end_s: 60.0", "t_end_s: .nan", "sweep.t_end_s:"),
    ("inf", SMALL_PASS, "delay_length_m: 6000.0", "delay_length_m: .inf",
     "optical.delay_length_m:"),
    ("minus_inf", SMALL_PASS, "longitude_deg: 0.0", "longitude_deg: -.inf",
     "station.longitude_deg:"),
    ("exponent_string", SMALL_PASS, "6.771e+6", "6.771e6", "orbit.semi_major_axis_m:"),
    ("nan_rotation", SMALL_WEAKVALUE, "q_grid:",
     "rotation_rad_per_s: [.nan, 0.0, 1.0e-4]\n  q_grid:", "spin.rotation_rad_per_s:"),
    # integer sizes are capped below 2**31, so none reaches an allocation or numpy's int64
    ("n_epochs_past_cap", SMALL_PASS, "n_epochs: 12", "n_epochs: 2147483648", "sweep.n_epochs:"),
    ("trials_past_cap", SMALL_FORECAST, "trials: 10", "trials: 2147483648", "forecast.trials:"),
    ("forecast_scan_points_past_cap", SMALL_FORECAST, "scan_points: 8",
     "scan_points: 2147483648", "forecast.scan_points:"),
    ("fringe_scan_points_past_cap", SMALL_FRINGE, "scan_points: 8",
     "scan_points: 2147483648", "fringe.scan_points:"),
    ("n_per_point_beyond_int64", SMALL_FRINGE, "n_per_point: 20000",
     f"n_per_point: {10**30}", "fringe.n_per_point:"),
    ("photon_budget_past_cap", SMALL_FORECAST, "photon_budget: 96000",
     "photon_budget: 2147483648", "noise.photon_budget:"),
    ("theta_num_beyond_int64", SMALL_WEAKVALUE, "theta_grid_deg: [30.0, 84.0]",
     "theta_grid_deg: {start: 0.0, stop: 85.0, num: 9223372036854775807}",
     "spin.theta_grid_deg.num:"),
    # the span overflows: np.linspace once printed two RuntimeWarnings, then "got np.float64(nan)"
    ("theta_span_past_float_range", SMALL_WEAKVALUE, "theta_grid_deg: [30.0, 84.0]",
     "theta_grid_deg: {start: -1.0e+308, stop: 1.0e+308, num: 3}",
     "spin.theta_grid_deg: stop - start is past the float range\n"),
    ("unknown_section_key", SMALL_FRINGE, "visibility: 1.0",
     "visibility: 1.0\n  dark_rte: 0.6", "noise.dark_rte: unknown key"),
    ("unknown_top_level_key", SMALL_PASS, "sweep:", "sweeps: {}\nsweep:", "sweeps: unknown key"),
    ("unknown_grid_key", SMALL_WEAKVALUE, "theta_grid_deg: [30.0, 84.0]",
     "theta_grid_deg: {start: 0.0, stop: 85.0, num: 4, step: 1.0}",
     "spin.theta_grid_deg.step: unknown key"),
    # the scan rejects a post-selection orthogonal to |0>: |<f|i>| = |cos 90 deg| = 6.1e-17
    ("theta_orthogonal", SMALL_WEAKVALUE, "theta_grid_deg: [30.0, 84.0]",
     "theta_grid_deg: [10.0, 90.0]",
     "spin.theta_grid_deg: [1] = 90.0 has a post-selection orthogonal to |0>"),
    ("theta_grid_orthogonal", SMALL_WEAKVALUE, "theta_grid_deg: [30.0, 84.0]",
     "theta_grid_deg: {start: -90.0, stop: 0.0, num: 3}", "spin.theta_grid_deg: {"),
    ("rotation_length", SMALL_WEAKVALUE, "q_grid:", "rotation_rad_per_s: [0.0, 1.0e-4]\n  q_grid:",
     "spin.rotation_rad_per_s: a list of 2 must have 3 components"),
    # 6 epochs x 8 scan points x 2 terminals: 95 photons leave every scan point empty
    ("photon_budget_below_one_pulse_per_point", SMALL_FORECAST, "photon_budget: 96000",
     "photon_budget: 95",
     "noise.photon_budget: 95 must be 0 (noiseless) or >= 2*n_epochs*scan_points (96)"),
    # q * meter_width overflowed to inf: run exited 0 and wrote inf and nan columns
    ("q_kick_overflow", SMALL_WEAKVALUE, "q_grid: [1.0e-3, 1.0e-1]",
     "meter_width: 1.0e+10\n  q_grid: [1.0e-3, 1.0e+300]",
     "spin.q_grid: [1] = 1e+300 times meter_width 1e+10 must be finite\n"),
    # q * meter_width * tan(theta) overflowed: run warned, exited 0 and wrote shift_weak = inf
    ("weak_shift_overflow", SMALL_WEAKVALUE, "[30.0, 84.0]\n  q_grid: [1.0e-3, 1.0e-1]",
     "[89.99999999]\n  q_grid: [1.0e+300]",
     "spin.q_grid: [0] = 1e+300 times meter_width 1 times max|tan theta| 5.72958e+09 "
     "must be finite\n"),
    # a redshift section that is not a mapping was ignored, and alpha silently 0
    ("redshift_not_a_mapping", SMALL_PASS, "sweep:", "redshift: 3.0e-4\nsweep:",
     "redshift: expected a mapping\n"),
    # a NUL in a path: validate passed it and run exited 3, or validate itself exited 3, with
    # "error[ValueError]: embedded null byte"
    ("output_dir_nul", SMALL_PASS, "output_dir: ignored", 'output_dir: "out\\0dir"',
     "output_dir: expected a non-empty string with no NUL character, got 'out\\x00dir'\n"),
    ("constants_output_dir_nul", "mode: constants\noutput_dir: {out}\n", "output_dir: ignored",
     'output_dir: "out\\0dir"', "output_dir: expected a non-empty string with no NUL character"),
    ("ephemeris_path_nul", SMALL_PASS, "semi_major_axis_m: 6.771e+6",
     'ephemeris_path: "leo\\0sample.cpf"', "orbit.ephemeris_path: expected a non-empty string "
     "with no NUL character, got 'leo\\x00sample.cpf'\n"),
    # the sweep's span overflowed: run printed numpy's overflow and invalid-value warnings,
    # then exited 3 with "BadAltitude: ... at epoch [0] (t = nan s)"
    ("sweep_span_past_float_range", SMALL_PASS, "t_start_s: -60.0\n  t_end_s: 60.0",
     "t_start_s: -1.0e+308\n  t_end_s: 1.0e+308",
     "sweep: t_end_s - t_start_s is past the float range\n"),
    # the pair Hamiltonian overflowed: run warned three times, then exited 3 with
    # "error[LinAlgError]: Eigenvalues did not converge"
    ("pair_hamiltonian_overflow", SMALL_WEAKVALUE, "q_grid:",
     "gravity_mps2: 1.0e+300\n  coupling_k: 1.0e+300\n  q_grid:", "spin: rotation_rad_per_s, "
     "gravity_mps2, coupling_k and exchange_joule take the pair Hamiltonian past the float "
     "range\n"),
    # every entry finite, but a row sum of |entries|, which bounds the eigenvalues, is not:
    # run exited 0 and printed eigenvalues of -inf and inf
    ("pair_eigenvalues_overflow", SMALL_WEAKVALUE, "q_grid:",
     "gravity_mps2: 2.8e+50\n  coupling_k: 1.0e+300\n  exchange_joule: 1.7e+308\n  q_grid:",
     "spin: rotation_rad_per_s, gravity_mps2, coupling_k and exchange_joule take the pair "
     "Hamiltonian past the float range\n"),
]


def _long_list(key, entry, at):
    """A 101-decimal list for key with entry at index at, and the list it replaces."""
    values = [f"{0.5 * k + 0.25}" for k in range(101)]
    values[at] = entry
    old = "[1.0e-3, 1.0e-1]" if key == "q_grid" else "[30.0, 84.0]"
    return f"{key}: {old}", f"{key}: [{', '.join(values)}]"


# A list of decimals is read in one step; one entry that is not a finite number, first,
# in the middle or last, still gets the violation of the entry-by-entry check
DEFECTS += [
    (f"{key}_{name}_{where}", SMALL_WEAKVALUE, *_long_list(key, entry, at),
     f"spin.{key}: expected a finite number, got {shown}\n")
    for key in ("q_grid", "theta_grid_deg")
    for name, entry, shown in (("nan", ".nan", "nan"), ("inf", ".inf", "inf"),
                               ("bool", "true", "True"), ("string", "'0.5'", "'0.5'"))
    for where, at in (("first", 0), ("middle", 50), ("last", 100))
]


class TestValidateConfig:
    @pytest.mark.parametrize(
        "scenario", SCENARIO_FILES, ids=lambda p: p.name
    )
    def test_shipped_scenarios_are_valid(self, scenario):
        assert validate_config(str(scenario)) == []

    def test_shipped_scenario_count(self):
        assert len(SCENARIO_FILES) >= 6

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            validate_config(str(tmp_path / "absent.yaml"))

    def test_broken_yaml(self, tmp_path):
        path = write_yaml(tmp_path, "mode: [unterminated\n")
        problems = validate_config(path)
        assert len(problems) == 1
        assert "not valid YAML" in problems[0]

    def test_non_mapping_top_level(self, tmp_path):
        path = write_yaml(tmp_path, "- 1\n- 2\n")
        problems = validate_config(path)
        assert "must be a mapping" in problems[0]

    def test_collects_every_violation(self, tmp_path):
        problems = validate_config(write_yaml(tmp_path, MULTI_PROBLEM))
        text = "\n".join(problems)
        assert "exclusive" in text
        assert "station.latitude_deg" in text
        assert "optical.wavelength_m" in text
        assert "t_start_s" in text
        assert "sweep.n_epochs" in text
        assert len(problems) >= 5

    def test_stochastic_mode_requires_seed(self, tmp_path):
        cfg = SMALL_FORECAST.format(out="out").replace("seed: 11\n", "")
        cfg = cfg.replace("trials: 10", "trials: 5")
        problems = validate_config(write_yaml(tmp_path, cfg))
        text = "\n".join(problems)
        assert "seed: required for stochastic mode" in text
        assert "forecast.trials" in text

    def test_unknown_mode(self, tmp_path):
        problems = validate_config(write_yaml(tmp_path, "mode: warp-drive\n"))
        assert any(p.startswith("mode:") for p in problems)

    def test_spin_grid_shapes(self, tmp_path):
        bad = """
mode: weakvalue-scan
spin:
  theta_grid_deg: {start: 0.0, stop: 85.0}
  q_grid: [0.1, -0.2]
"""
        problems = validate_config(write_yaml(tmp_path, bad))
        text = "\n".join(problems)
        assert "theta_grid_deg.num" in text
        assert "q_grid" in text

    @pytest.mark.parametrize("key, bad", [("q_grid", "-1.0"), ("theta_grid_deg", "90.0")])
    def test_long_list_violation_names_only_the_failing_entry(self, tmp_path, capsys, key,
                                                              bad):
        # one bad entry among 301 once printed the whole list, 2.7 KB on one line
        grid = [f"{0.1 * (k + 1):.1f}" for k in range(301)]
        grid[150] = bad
        cfg = SMALL_WEAKVALUE.format(out="ignored").replace(
            f"{key}: {'[1.0e-3, 1.0e-1]' if key == 'q_grid' else '[30.0, 84.0]'}",
            f"{key}: [{', '.join(grid)}]")
        assert main(["validate", write_yaml(tmp_path, cfg)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"violation: spin.{key}: [150] = {bad} ")
        assert len(line) < 100

    @pytest.mark.parametrize("key, bad", [("q_grid", "[]"), ("rotation_rad_per_s", "5")])
    def test_a_number_list_is_a_non_empty_list(self, tmp_path, key, bad):
        cfg = SMALL_WEAKVALUE.format(out="ignored") + f"  {key}: {bad}\n"
        cfg = cfg.replace("  q_grid: [1.0e-3, 1.0e-1]\n", "", key == "q_grid")
        assert validate_config(write_yaml(tmp_path, cfg)) == [
            f"spin.{key}: expected a non-empty list of numbers, got {yaml.safe_load(bad)!r}"]

    @pytest.mark.parametrize("dark_rate, valid", [("0.2", True), ("0.21", False)])
    def test_noise_window_probability_at_most_one(self, tmp_path, dark_rate, valid):
        # efficiency 1, visibility 1: 0.375 + 3 * dark_rate must stay <= 1
        cfg = SMALL_FRINGE.format(out="out", vis="1.0") + f"  dark_rate: {dark_rate}\n"
        problems = validate_config(write_yaml(tmp_path, cfg))
        assert [p.split(":")[0] for p in problems] == ([] if valid else ["noise"])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(visibility=1.0, efficiency=0.9923887631356604, dark_rate=0.2092847379413758)
    @given(visibility=st.floats(0.0, 1.0), efficiency=st.floats(0.0, 1.0),
           dark_rate=st.one_of(st.floats(0.0, 0.4), st.integers(-4, 4)))
    def test_noise_window_violation_is_what_the_draws_reject(self, visibility, efficiency,
                                                             dark_rate):
        # an integer k stands for the dark rate k ulps from where the window sum reaches 1
        if isinstance(dark_rate, int):
            edge = (1.0 - efficiency * (0.25 + 0.125 * visibility)) / 3.0
            dark_rate = edge + dark_rate * math.ulp(edge)
        try:
            outcome_probabilities(0.0, visibility, efficiency, dark_rate)
            rejected = []
        except ValueError:
            rejected = ["noise: efficiency*(0.25 + 0.125*visibility) + 3*dark_rate must be <= 1"]
        tree = {"mode": "fringe-demo", "seed": 7, "output_dir": "out",
                "fringe": {"base_phase_rad": 0.7, "scan_points": 8, "n_per_point": 20000},
                "noise": {"visibility": visibility, "efficiency": efficiency,
                          "dark_rate": dark_rate}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(tree, fh)
            assert validate_config(path) == rejected

    def test_window_sum_just_over_one_exits_two(self, tmp_path, monkeypatch, capsys):
        # 0.375 * efficiency + 3 * dark_rate rounds to <= 1 here, but the window probabilities
        # the cascade draws from sum to just over 1: validate once printed "config valid" and
        # run exited 3 with "window probabilities sum to 1.000 > 1"
        text = (SCENARIOS / "fringe_demo.yaml").read_text(encoding="utf-8")
        assert "efficiency: 1.0\n  dark_rate: 0.0\n  visibility: 1.0" in text
        text = text.replace("efficiency: 1.0", "efficiency: 0.9923887631356604")
        path = write_yaml(tmp_path, text.replace("dark_rate: 0.0", "dark_rate: 0.2092847379413758"))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert ("violation: noise: efficiency*(0.25 + 0.125*visibility) + 3*dark_rate "
                    "must be <= 1") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("altitude, valid", [("3.0e+5", True), ("4.0e+5", False)])
    def test_station_below_analytic_orbit(self, tmp_path, altitude, valid):
        # semi_major_axis_m 6.771e6 sits 4.0e5 m above R_EARTH = 6.371e6 m
        cfg = SMALL_PASS.format(out="out").replace(
            "longitude_deg: 0.0", f"longitude_deg: 0.0\n  altitude_m: {altitude}")
        problems = validate_config(write_yaml(tmp_path, cfg))
        assert [p.split(":")[0] for p in problems] == ([] if valid else ["station.altitude_m"])

    @pytest.mark.parametrize("altitude, valid", [("3.0e+5", True), ("1.0e+6", False)])
    def test_station_below_ephemeris_orbit(self, tmp_path, monkeypatch, capsys, altitude,
                                           valid):
        # leo_sample.cpf flies about 4e5 m above R_EARTH = 6.371e6 m
        cfg = SMALL_EPHEMERIS.format(out="ignored", cpf=SAMPLE_CPF, t_end="900.0").replace(
            "longitude_deg: 0.0", f"longitude_deg: 0.0\n  altitude_m: {altitude}")
        path = write_yaml(tmp_path, cfg)
        problems = validate_config(path)
        assert [p.split(":")[0] for p in problems] == ([] if valid else ["station.altitude_m"])
        if not valid:
            monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
            assert main(["run", path]) == 2
            assert "violation: station.altitude_m:" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("budget, valid", [("0", True), ("95", False), ("96", True)])
    def test_photon_budget_zero_or_one_pulse_per_scan_point(self, tmp_path, budget, valid):
        cfg = SMALL_FORECAST.format(out="out").replace("photon_budget: 96000",
                                                       f"photon_budget: {budget}")
        problems = validate_config(write_yaml(tmp_path, cfg))
        assert [p.split(":")[0] for p in problems] == ([] if valid else ["noise.photon_budget"])

    @pytest.mark.parametrize("target", ["-1.0e-5", "0.0", "-0.0", ".inf", ".nan"])
    def test_target_sigma_not_positive_and_finite_is_a_violation(self, tmp_path, target):
        # the budget line divides by the target, so validate admits only positive finite ones
        cfg = SMALL_FORECAST.format(out="out") + f"  target_sigma_alpha: {target}\n"
        problems = validate_config(write_yaml(tmp_path, cfg))
        assert [p.split(":")[0] for p in problems] == ["forecast.target_sigma_alpha"]

    def test_shipped_forecast_with_a_starved_budget_exits_two(self, tmp_path, monkeypatch,
                                                               capsys):
        # 100 photons over 25 epochs x 8 points x 2 terminals once ran noiseless and exited 0
        text = (SCENARIOS / "alpha_forecast.yaml").read_text(encoding="utf-8")
        assert "photon_budget: 16000000" in text
        path = write_yaml(tmp_path, text.replace("photon_budget: 16000000", "photon_budget: 100"))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert ("violation: noise.photon_budget: 100 must be 0 (noiseless) or "
                    ">= 2*n_epochs*scan_points (400)") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dark_rate", ["0.0", "1.0e-6", "1.0e-3"])
    def test_forecast_that_detects_no_photon_exits_two(self, tmp_path, monkeypatch, capsys,
                                                       dark_rate):
        # at efficiency 0 every central peak holds dark counts alone, so no trial's fit
        # can run: run once exited 3 after validate printed "config valid"
        cfg = SMALL_FORECAST.format(out="out").replace(
            "photon_budget: 96000",
            f"photon_budget: 96000\n  efficiency: 0\n  dark_rate: {dark_rate}")
        path = write_yaml(tmp_path, cfg)
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert "violation: noise.efficiency: 0 detects no photon" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert validate_config(write_yaml(tmp_path, cfg.replace("96000", "0"))) == []

    @pytest.mark.parametrize("old, new", [
        ("wavelength_m: 800.0e-9", "wavelength_m: 1.0e-300"),
        ("group_index: 1.0", "group_index: 1.0e+308"),
    ], ids=["wavelength", "group_index"])
    def test_phase_scale_that_overflows_exits_two(self, tmp_path, monkeypatch, capsys, old,
                                                  new):
        # omega0*tau_l overflowed to inf: both commands once exited 0, and run wrote
        # inf and nan columns
        text = (SCENARIOS / "redshift_pass.yaml").read_text(encoding="utf-8")
        assert old in text
        path = write_yaml(tmp_path, text.replace(old, new))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert (capsys.readouterr().err
                    == "violation: optical: omega0*tau_l = inf must be finite\n")
        assert not (tmp_path / "out").exists()

    def test_span_error_does_not_hide_the_station_altitude(self, tmp_path, monkeypatch,
                                                           capsys):
        cfg = SMALL_EPHEMERIS.format(out="ignored", cpf=SAMPLE_CPF, t_end="2400.0").replace(
            "longitude_deg: 0.0", "longitude_deg: 0.0\n  altitude_m: 1.0e+6")
        path = write_yaml(tmp_path, cfg)
        problems = validate_config(path)
        assert [p.split(":")[0] for p in problems] == ["orbit.ephemeris_path",
                                                       "station.altitude_m"]
        assert problems[0].startswith("orbit.ephemeris_path: OutOfRange: sweep [300, 2400] s")
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["validate", path]) == 2
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.count("violation: orbit.ephemeris_path: OutOfRange") == 2
        assert err.count("violation: station.altitude_m:") == 2
        assert not (tmp_path / "out").exists()

    def test_exponent_without_dot_names_the_yaml_rule(self, tmp_path):
        cfg = SMALL_PASS.format(out="out").replace("6.771e+6", "6.771e6")
        (problem,) = validate_config(write_yaml(tmp_path, cfg))
        assert problem.startswith("orbit.semi_major_axis_m: expected a finite number")
        assert "PyYAML" in problem and "write 6.771e+6" in problem

    def test_negative_seed_rejected(self, tmp_path):
        cfg = SMALL_FRINGE.format(out="out", vis="1.0").replace("seed: 7", "seed: -7")
        assert validate_config(write_yaml(tmp_path, cfg))[0].startswith("seed:")

    @pytest.mark.parametrize("records, t_end, error", [
        (None, "900.0", "FileUnreadable"),
        (0, "900.0", "EmptyEphemeris"),
        (3, "100.0", "InsufficientRecords"),
        (41, "2400.0", "OutOfRange"),
    ], ids=["missing", "empty", "three_records", "past_span"])
    def test_validate_reads_the_ephemeris(self, tmp_path, capsys, records, t_end, error):
        cpf = tmp_path / "orbit.cpf"
        if records is not None:
            lines = SAMPLE_CPF.read_text(encoding="utf-8").splitlines()
            cpf.write_text("\n".join(lines[2:2 + records]), encoding="utf-8")
        cfg = SMALL_EPHEMERIS.format(out="out", cpf=cpf.name, t_end=t_end)
        cfg = cfg.replace("t_start_s: 300.0", "t_start_s: 0.0")
        assert main(["validate", write_yaml(tmp_path, cfg)]) == 2
        assert f"violation: orbit.ephemeris_path: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, template, old, new, prefix", DEFECTS,
                             ids=[d[0] for d in DEFECTS])
    def test_defect_inputs_exit_two(self, tmp_path, monkeypatch, capsys,
                                    name, template, old, new, prefix):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        text = template.format(out="ignored", vis="1.0")
        assert old in text
        path = write_yaml(tmp_path, text.replace(old, new))
        assert main(["validate", path]) == 2
        assert f"violation: {prefix}" in capsys.readouterr().err
        assert main(["run", path]) == 2
        assert f"violation: {prefix}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _defect_text(template, old, new):
    return template.format(out="ignored", vis="1.0").replace(old, new)


# YAML of mixed block and flow nesting, for the bound config._load skips its depth scan by.
# A node is a scalar or (kind, style, items): a "seq" holds nodes, a "map" holds (key,
# explicit "? " key, value or None) triples. A "flow" collection holds only flow ones, and
# a one-entry "pair" map in a flow sequence is written bare, as in [? k: v].
_YAML_SCALARS = st.sampled_from(["a", "0.5", "-3", "b c", "'x: y'", '"[{-?:}]"',
                                 "'- # not a comment'", '"? k"', "'{a: [1]}'", "''"])
_YAML_KEYS = st.sampled_from(["k", "key2", "'k: ?'", '"[-]"', "'# k'"])


def _yaml_collections(children):
    return st.one_of(
        st.tuples(st.just("seq"), st.sampled_from(["block", "flow"]),
                  st.lists(children, max_size=3)),
        st.tuples(st.just("map"), st.sampled_from(["block", "flow", "pair"]), st.lists(
            st.tuples(_YAML_KEYS, st.booleans(), st.none() | children), max_size=3)))


def _entry_text(key, explicit, value) -> str:
    """One flow map entry; an explicit key with no value has no ':'."""
    text = ("? " if explicit else "") + key
    return text if explicit and value is None else text + ": " + _flow_text(value)


def _flow_text(node, in_sequence=False) -> str:
    if node is None or isinstance(node, str):
        return node or ""
    kind, style, items = node
    if kind == "seq":
        return "[" + ", ".join(_flow_text(item, True) for item in items) + "]"
    entries = ", ".join(_entry_text(*item) for item in items)
    return entries if style == "pair" and in_sequence and len(items) == 1 else "{" + entries + "}"


def _block_text(node, indent: int) -> str:
    """The text after a '-', ':' or '? ' indicator: the node inline, or its lines."""
    if node is None or isinstance(node, str) or node[1] != "block" or not node[2]:
        return " " + _flow_text(node) + "\n"
    pad, (kind, _, items) = " " * indent, node
    if kind == "seq":
        return "\n" + "".join(pad + "-" + _block_text(item, indent + 2) for item in items)
    return "\n" + "".join(
        pad + "? " + key + "\n" if explicit and value is None
        else (pad + "? " + key + "\n" + pad + ":" if explicit else pad + key + ":")
        + _block_text(value, indent + 2) for key, explicit, value in items)


def _depth(node) -> int:
    if node is None or isinstance(node, str):
        return 0
    items = node[2] if node[0] == "seq" else [value for _, _, value in node[2]]
    return 1 + max(map(_depth, items), default=0)


def _pyyaml_base(loader: type) -> type:
    """The loader itself if PyYAML's, else the PyYAML loader it derives from."""
    return next(c for c in loader.__mro__ if c.__module__.partition(".")[0] == "yaml")


# Plain decimals that config._LOADER reads in one step (sign, digits, a dot, digits, and
# maybe an exponent with its sign), and texts that YAML 1.1 reads otherwise or that only
# look alike: underscores, sexagesimal, an unsigned exponent (a string), no digit before
# the dot, inf and nan, ints, quoted decimals and explicit !!float and !!str tags.
_LOADER_SCALARS = st.one_of(
    st.builds("{}{}.{}{}".format, st.sampled_from(["", "-", "+"]),
              st.text("0123456789", min_size=1, max_size=4),
              st.text("0123456789", max_size=4),
              st.sampled_from(["", "e+5", "E-12", "e+0", "e-400", "E+400"])),
    st.sampled_from(["1_0.5", "1:30.5", "1.0e5", "1.0E5", ".5", "-.5e+1", "+1.", "-0.0",
                     ".inf", "-.inf", ".nan", "12", "-7", "0x1F", "0o17", "1_000", "'1.5'",
                     '"2.5e+3"', "!!float 1.5", "!!float 1", "!!float 1_0.5", "!!float .inf",
                     "!!str 1.5", "!!str 2.", "1.5.5", "1.0e+5x", "1.0 e+5", "2024-02-01",
                     "~", "true", "a1.5", "1.5e+", "1.5e"]))


_YAML_DOCUMENTS = st.lists(st.recursive(_YAML_SCALARS, _yaml_collections, max_leaves=24),
                           min_size=1, max_size=3)


class TestYamlLoader:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(documents=[("map", "block", [("k", False, ("map", "block", [("k", False, "a")]))])],
             flags=[(False, False)] * 3)  # "k:\n  k: a\n", the count equal to the depth
    @example(documents=[("seq", "block", [("seq", "flow", [("map", "pair",
                                                              [("k", True, None)])])])],
             flags=[(False, False)] * 3)  # "- [? k]\n"
    @given(documents=_YAML_DOCUMENTS, flags=st.lists(st.tuples(st.booleans(), st.booleans()),
                                                     min_size=3, max_size=3))
    def test_indicator_count_bounds_the_depth(self, documents, flags):
        # _load scans the events only when the count of '-', '?', ':', '[' and '{' exceeds
        # _MAX_DEPTH, since every collection start needs one of these characters of its own
        texts = []
        for k, (node, (marker, comment)) in enumerate(zip(documents, flags)):
            body = _block_text(node, 0)
            body = body[1:] if body.startswith("\n") else body.lstrip(" ")
            if comment:  # a comment line full of indicators, after the first line
                body = body.replace("\n", "\n# - ? : [ {\n", 1)
            texts.append("--- # doc\n" + body if k or marker else body)
        text = "".join(texts)
        steps = (isinstance(e, yaml.CollectionStartEvent) - isinstance(e, yaml.CollectionEndEvent)
                 for e in yaml.parse(text, Loader=gravlink.config._LOADER))
        depth = max(itertools.accumulate(steps, initial=0))
        assert depth == max(map(_depth, documents))
        assert depth <= sum(map(text.count, "-?:[{"))

    def test_libyaml_parses_when_present(self):
        assert issubclass(gravlink.config._LOADER,
                          yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

    @pytest.mark.parametrize(
        "text", [p.read_text(encoding="utf-8") for p in SCENARIO_FILES]
        + [_defect_text(*d[1:4]) for d in DEFECTS] + [MULTI_PROBLEM],
        ids=[p.name for p in SCENARIO_FILES] + [d[0] for d in DEFECTS] + ["multi_problem"])
    def test_same_tree_as_the_python_loader(self, text):
        # repr tells 1 from 1.0 and True, and a nan equals itself in it
        assert repr(yaml.load(text, Loader=gravlink.config._LOADER)) == repr(
            yaml.load(text, Loader=yaml.SafeLoader))

    def test_no_path_resolver_so_the_resolver_steps_may_do_nothing(self):
        # _LOADER's descend_resolver and ascend_resolver do nothing, as PyYAML's own do
        # only while no path resolver is registered
        assert gravlink.config._LOADER.yaml_path_resolvers == {}
        base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        for path in SCENARIO_FILES:
            text = path.read_text(encoding="utf-8")
            assert repr(yaml.load(text, Loader=gravlink.config._LOADER)) == repr(
                yaml.load(text, Loader=base)), path.name

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scalars=st.lists(st.tuples(_LOADER_SCALARS, st.booleans(), st.integers(0, 5)),
                            min_size=1, max_size=12))
    def test_decimals_load_as_the_safe_loader_reads_them(self, scalars):
        # block values, some anchored, and a flow sequence of the same texts with aliases
        values, aliases = [], []
        for k, (text, anchored, alias) in enumerate(scalars):
            if anchored:
                values.append(f"&a{k} {text}")
                aliases.append(f"*a{k}")
            elif aliases and alias == 0:
                values.append(aliases[-1])
            else:
                values.append(text)
        text = "".join(f"k{k}: {value}\n" for k, value in enumerate(values))
        text += "seq: [" + ", ".join([t for t, _, _ in scalars] + aliases) + "]\n"
        # repr tells 1.0 from 1 and '1.0', and -0.0 from 0.0
        assert repr(yaml.load(text, Loader=gravlink.config._LOADER)) == repr(
            yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("text", ["mode: [unterminated\n", "mode: constants\nseed: 2024-02-30\n",
                                      "mode: constants\n\tseed: 1\n", "a: b: c\n"])
    def test_invalid_yaml_is_one_violation(self, tmp_path, text):
        problems = validate_config(write_yaml(tmp_path, text))
        assert len(problems) == 1 and problems[0].startswith("config is not valid YAML: ")

    @pytest.mark.parametrize("text, nested", [
        ("mode: constants\nx: " + "[" * 99 + "]" * 99, False),
        ("mode: constants\nx: " + "[" * 100 + "]" * 100, True),
        ("mode: constants\nx:\n" + "".join(" " * k + "- \n" for k in range(150)), True),
        ("mode: constants\nx: " + "{a: " * 3000 + "}" * 3000, True),
    ], ids=["100_levels", "101_levels", "151_block_levels", "3001_flow_mapping_levels"])
    @pytest.mark.parametrize("loader", [gravlink.config._LOADER, yaml.SafeLoader],
                             ids=lambda loader: _pyyaml_base(loader).__name__)
    def test_deep_nesting_is_a_violation(self, tmp_path, monkeypatch, capsys, text, nested,
                                         loader):
        monkeypatch.setattr(gravlink.config, "_LOADER", loader)
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        path = write_yaml(tmp_path, text)
        problem = "config nests deeper than 100 levels" if nested else "x: unknown key"
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err == f"violation: {problem}\n"
        assert not (tmp_path / "out").exists()

    def test_nesting_that_would_overflow_the_c_stack_exits_two(self, tmp_path):
        # libyaml's composer recursed past the C stack (a segfault) near 30000 levels
        path = write_yaml(tmp_path, "mode: constants\nx: " + "[" * 10**5 + "]" * 10**5)
        src = str(Path(gravlink.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-m", "gravlink.cli", "validate", path],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 2, result.stderr
        assert result.stderr == "violation: config nests deeper than 100 levels\n"


def _angles_text(n: int) -> str:
    """A weak-value scan config that lists n selection angles."""
    angles = ", ".join(f"{10.0 + 70.0 * k / n:.6f}" for k in range(n))
    return f"mode: weakvalue-scan\nspin:\n  theta_grid_deg: [{angles}]\n  q_grid: [1.0e-3]\n"


RECURSIVE_ALIAS = ("mode: weakvalue-scan\nspin:\n  theta_grid_deg: &a [10.0, *a]\n"
                   "  q_grid: [1.0e-3]\n")


class _RaisingLoader(gravlink.config._LOADER):
    def construct_document(self, node):
        raise RuntimeError("raised while constructing")


class TestCollectorPause:
    """_load pauses the cyclic garbage collector while PyYAML composes the config, and
    leaves it as it found it."""

    def test_a_long_angle_list_loads_without_a_collection(self, tmp_path):
        path = write_yaml(tmp_path, _angles_text(10**4))
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()  # every generation's count starts from 0, wherever the suite stands
        gc.callbacks.append(record)
        try:
            cfg = load_config(path)
        finally:
            gc.callbacks.remove(record)
        assert len(cfg.spin.theta_grid) == 10**4
        assert starts == []

    @pytest.mark.parametrize("text, raised", [
        (_angles_text(720), []),
        ("mode: [unterminated\n", [ConfigInvalid]),
        (RECURSIVE_ALIAS, [ConfigInvalid]),
        (None, [RuntimeError, RuntimeError]),
    ], ids=["valid", "not_yaml", "recursive_alias", "raises_inside_pyyaml"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
    def test_the_collector_is_left_as_it_was(self, tmp_path, monkeypatch, text, raised,
                                             enabled):
        if text is None:
            monkeypatch.setattr(gravlink.config, "_LOADER", _RaisingLoader)
        path = write_yaml(tmp_path, text or _angles_text(3))
        seen, before = [], gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for load in (load_config, validate_config):
                try:
                    load(path)
                except (ConfigInvalid, RuntimeError) as exc:
                    seen.append(type(exc))
                assert gc.isenabled() is enabled, load.__name__
        finally:
            (gc.enable if before else gc.disable)()
        assert seen == raised

    def test_a_recursive_alias_is_still_a_violation(self, tmp_path):
        path = write_yaml(tmp_path, RECURSIVE_ALIAS)
        assert validate_config(path) == [
            "spin.theta_grid_deg: expected a finite number, got [10.0, [...]]"]


# The required keys of each mode, and every attribute each then reads, defaults included.
PASS_KEYS = {
    "orbit": {"semi_major_axis_m": 6.771e6},
    "station": {"latitude_deg": 0.0, "longitude_deg": 0.0},
    "optical": {"wavelength_m": 800.0e-9, "delay_length_m": 6000.0},
    "sweep": {"t_start_s": -60.0, "t_end_s": 60.0, "n_epochs": 12},
}
PASS_VALUES = {
    "orbit": {"semi_major_axis": 6.771e6, "inclination": 0.0, "raan": 0.0, "phase": 0.0,
              "ephemeris_path": None},
    "station": {"latitude": 0.0, "longitude": 0.0, "altitude": 0.0},
    "optical": {"lambda0": 800.0e-9, "delay_length": 6000.0, "group_index": 1.0,
                "tau_l": 6000.0 / C_LIGHT, "scale": phase_scale(800.0e-9, 6000.0 / C_LIGHT)},
    "sweep": {"t_start": -60.0, "t_end": 60.0, "n_epochs": 12},
}
NOISE_VALUES = {"photon_budget": 0, "efficiency": 1.0, "dark_rate": 0.0, "visibility": 1.0}
MINIMAL = {
    "redshift-pass": (PASS_KEYS, PASS_VALUES),
    "alpha-forecast": (
        {"seed": 3, **PASS_KEYS, "noise": {}, "forecast": {"trials": 10}},
        {"seed": 3, **PASS_VALUES, "noise": NOISE_VALUES,
         "forecast": {"trials": 10, "scan_points": 8, "target_sigma_alpha": 1e-5}}),
    "fringe-demo": (
        {"seed": 3, "fringe": {}, "noise": {}},
        {"seed": 3, "noise": NOISE_VALUES,
         "fringe": {"base_phase": 0.0, "scan_points": 16, "n_per_point": 1000000}}),
    "weakvalue-scan": (
        {"spin": {"theta_grid_deg": [30.0], "q_grid": [1.0e-3]}},
        {"spin": {"gravity": 9.80665, "rotation": (0.0, 0.0, 7.2921159e-5), "coupling_k": 1.0,
                  "exchange": 0.0, "duration": 1.0, "theta_grid": (math.radians(30.0),),
                  "q_grid": (1.0e-3,), "meter_width": 1.0, "kicks": (1.0e-3,)}}),
    "constants": ({}, {}),
}
SECTIONS = ("orbit", "station", "optical", "sweep", "noise", "forecast", "fringe", "spin")


class TestLoadConfig:
    def test_shipped_pass_roundtrip(self, monkeypatch):
        monkeypatch.delenv("GRAVLINK_OUTPUT_DIR", raising=False)
        cfg = load_config(str(SCENARIOS / "redshift_pass.yaml"))
        assert cfg.mode == "redshift-pass"
        assert cfg.orbit.semi_major_axis == 6.771e6
        assert cfg.orbit.ephemeris_path is None
        assert cfg.station.latitude == 0.0
        assert cfg.optical.lambda0 == 800e-9
        assert cfg.sweep.n_epochs == 100
        assert cfg.redshift.alpha == 0.0
        assert cfg.output_dir == "out/redshift_pass"

    def test_the_ephemeris_path_is_resolved_at_load(self, tmp_path, monkeypatch, capsys):
        # from another working directory, the view holds the file the run opens
        monkeypatch.delenv("GRAVLINK_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        config = str(SCENARIOS / "ephemeris_pass.yaml")
        assert load_config(config).orbit.ephemeris_path == str(SAMPLE_CPF)
        assert main(["run", config]) == 0
        written, tracked = (root / "out" / "ephemeris_pass" / "pass_sweep.txt"
                            for root in (tmp_path, SCENARIOS.parent))
        assert written.read_bytes() == tracked.read_bytes()

    def test_angles_arrive_in_radians(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GRAVLINK_OUTPUT_DIR", raising=False)
        text = SMALL_PASS.format(out="out").replace(
            "latitude_deg: 0.0", "latitude_deg: 45.0"
        ).replace("semi_major_axis_m: 6.771e+6",
                  "semi_major_axis_m: 6.771e+6\n  inclination_deg: 51.6")
        cfg = load_config(write_yaml(tmp_path, text))
        assert cfg.station.latitude == pytest.approx(math.radians(45.0))
        assert cfg.orbit.inclination == pytest.approx(math.radians(51.6))

    def test_spin_theta_grid_degrees(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GRAVLINK_OUTPUT_DIR", raising=False)
        cfg = load_config(write_yaml(tmp_path, SMALL_WEAKVALUE.format(out="out")))
        assert cfg.spin.theta_grid == pytest.approx(
            (math.radians(30.0), math.radians(84.0))
        )
        assert cfg.spin.q_grid == (1e-3, 1e-1)

    @pytest.mark.parametrize("key", ["q_grid", "theta_grid_deg"])
    @pytest.mark.parametrize("at", [0, 50, 100], ids=["first", "middle", "last"])
    def test_an_int_in_a_long_number_list_reads_as_a_float(self, tmp_path, monkeypatch, key,
                                                           at):
        # the list is no longer all floats, so each entry goes through _number
        monkeypatch.delenv("GRAVLINK_OUTPUT_DIR", raising=False)
        old, new = _long_list(key, "3", at)
        cfg = load_config(write_yaml(tmp_path, SMALL_WEAKVALUE.format(out="out").replace(old, new)))
        values = [0.5 * k + 0.25 for k in range(101)]
        values[at] = 3.0
        got = getattr(cfg.spin, "q_grid" if key == "q_grid" else "theta_grid")
        assert all(type(v) is float for v in got)
        assert got == (tuple(values) if key == "q_grid" else tuple(map(math.radians, values)))

    @pytest.mark.parametrize("mode", MODES)
    def test_minimal_config_pins_every_default(self, tmp_path, monkeypatch, mode):
        monkeypatch.delenv("GRAVLINK_OUTPUT_DIR", raising=False)
        keys, values = MINIMAL[mode]
        cfg = load_config(write_yaml(tmp_path, yaml.safe_dump({"mode": mode, **keys})))

        def nested(view):  # the config as dicts, its sections included
            return {k: nested(v) if isinstance(v, type(cfg)) else v for k, v in vars(view).items()}

        got = nested(cfg)
        if cfg.spin:  # dict == cannot compare arrays; single = (hbar/2)(g/c - omega) sigma_z
            s = 0.5 * HBAR * (G_STD / C_LIGHT - OMEGA_EARTH)
            np.testing.assert_allclose(got["spin"].pop("hamiltonian"),
                                       np.diag([2.0 * s, 0.0, 0.0, -2.0 * s]), rtol=1e-14)
            assert not cfg.spin.hamiltonian.flags.writeable
        assert got == {
            "mode": mode, "seed": None, "output_dir": "gravlink-out", "redshift": {"alpha": 0.0},
            **dict.fromkeys(SECTIONS), **values}
        with pytest.raises(AttributeError):
            cfg.seed = 1
        with pytest.raises(AttributeError):
            del cfg.seed
        for name in ("redshift", *(s for s in SECTIONS if s in values)):
            section = getattr(cfg, name)
            with pytest.raises(AttributeError):
                setattr(section, next(iter(vars(section))), 0.0)
            with pytest.raises(AttributeError):
                delattr(section, next(iter(vars(section))))

    @pytest.mark.parametrize("scenario", SCENARIO_FILES, ids=lambda p: p.stem)
    def test_the_config_and_its_sections_share_one_type(self, monkeypatch, scenario):
        monkeypatch.delenv("GRAVLINK_OUTPUT_DIR", raising=False)
        cfg = load_config(str(scenario))
        sections = (getattr(cfg, name) for name in ("redshift", *SECTIONS))
        assert {type(section) for section in sections if section is not None} == {type(cfg)}

    def test_invalid_raises_with_violation_list(self, tmp_path):
        with pytest.raises(ConfigInvalid) as err:
            load_config(write_yaml(tmp_path, MULTI_PROBLEM))
        assert len(err.value.violations) >= 5

    def test_env_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        cfg = load_config(str(SCENARIOS / "redshift_pass.yaml"))
        assert cfg.output_dir == str(tmp_path / "elsewhere")

    def test_empty_env_output_dir_is_a_violation(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", "")
        monkeypatch.chdir(tmp_path)
        path = str(SCENARIOS / "redshift_pass.yaml")
        assert validate_config(path) == ["GRAVLINK_OUTPUT_DIR: expected a non-empty string, "
                                         "got ''"]
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert "violation: GRAVLINK_OUTPUT_DIR:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCliBasics:
    def test_constants_command(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert "acceleration_energy_scale" in out
        assert "rotation_to_acceleration_ratio" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_repeated_calls_in_one_process_answer_alike(self, tmp_path, monkeypatch, capsys):
        # main builds its parser on the first call and reuses it
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        scenario = str(SCENARIOS / "weakvalue_scan.yaml")
        gravlink.cli._parser.cache_clear()
        for argv, code in ((["--version"], ("exit", 0)), ([], ("exit", 2)),
                           (["bogus"], ("exit", 2)), (["constants"], 0),
                           (["validate", scenario], 0), (["run", scenario], 0)):
            answers = []
            for _ in range(3):
                try:
                    answer = main(argv)
                except SystemExit as exc:
                    answer = ("exit", exc.code)
                answers.append((answer, *capsys.readouterr()))
            assert answers[0][0] == code, argv
            assert answers[1:] == answers[:1] * 2, argv
        assert gravlink.cli._parser.cache_info().misses == 1

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_validate_ok(self, capsys):
        assert main(["validate", str(SCENARIOS / "constants.yaml")]) == 0
        assert "config valid" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        path = write_yaml(tmp_path, MULTI_PROBLEM)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert err.count("violation: ") >= 5

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.yaml")]) == 2
        assert "error[FileUnreadable]" in capsys.readouterr().err

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        path = write_yaml(tmp_path, MULTI_PROBLEM)
        assert main(["run", path]) == 2
        assert "violation: " in capsys.readouterr().err

    def test_run_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.yaml")]) == 2
        assert "error[FileUnreadable]" in capsys.readouterr().err

    def test_import_leaves_scipy_unloaded(self):
        # numpy and PyYAML are the only runtime dependencies
        code = "import sys, gravlink, gravlink.cli; assert 'scipy' not in sys.modules"
        src = str(Path(gravlink.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


# Every gravlink run loads these; each mode adds only the modules it runs.
RUN_MODULES = {"cli", "config", "constants", "errors", "kinematics", "link_model"}
MODULES_BY_SCENARIO = {
    "redshift_pass": RUN_MODULES,
    "ephemeris_pass": RUN_MODULES | {"ephemeris"},
    "alpha_forecast": RUN_MODULES | {"estimator", "interferometer"},
    "fringe_demo": RUN_MODULES | {"interferometer"},
    "weakvalue_scan": RUN_MODULES | {"spin_weak"},
    "constants": RUN_MODULES | {"spin_weak"},
}
# the submodules that `import gravlink` used to load eagerly
PACKAGE_MODULES = ("config", "constants", "ephemeris", "errors", "estimator", "interferometer",
                   "kinematics", "link_model", "spin_weak")


def fresh_submodules(code, env=()):
    """The gravlink submodules loaded after code runs in a fresh interpreter."""
    show = ("\nimport sys\nprint(*sorted(n.partition('.')[2] for n in sys.modules "
            "if n.startswith('gravlink.')))")
    src = str(Path(gravlink.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code + show],
                            env={**os.environ, "PYTHONPATH": src, **dict(env)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


class TestColdStart:
    def test_package_import_loads_no_submodule(self):
        assert fresh_submodules("import gravlink") == set()

    def test_every_submodule_resolves_as_an_attribute(self):
        code = ("import gravlink\n"
                f"for name in {PACKAGE_MODULES!r}:\n"
                "    assert getattr(gravlink, name).__name__ == 'gravlink.' + name\n"
                "assert not hasattr(gravlink, 'absent')")
        assert fresh_submodules(code) == set(PACKAGE_MODULES)

    def test_an_attribute_loads_its_submodule_and_an_unknown_one_raises(self):
        code = ("import sys\nimport gravlink\n"
                "assert not [n for n in sys.modules if n.startswith('gravlink.')]\n"
                "assert gravlink.spin_weak is sys.modules['gravlink.spin_weak']\n"
                "try:\n    gravlink.nope\nexcept AttributeError as error:\n"
                "    assert str(error) == \"module 'gravlink' has no attribute 'nope'\", error\n"
                "else:\n    raise AssertionError('gravlink.nope resolved')")
        assert fresh_submodules(code) == {"spin_weak", "constants", "errors"}

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
    def test_run_loads_only_what_its_mode_runs(self, tmp_path, path):
        code = f"from gravlink.cli import main\nassert main(['run', {str(path)!r}]) == 0"
        loaded = fresh_submodules(code, {"GRAVLINK_OUTPUT_DIR": str(tmp_path / "out")})
        assert loaded == MODULES_BY_SCENARIO[path.stem]

    def test_constants_command_loads_the_constants_set(self):
        code = "from gravlink.cli import main\nassert main(['constants']) == 0"
        assert fresh_submodules(code) == MODULES_BY_SCENARIO["constants"]


def run_shipped_forecast(tmp_path, monkeypatch, trials):
    """Rows of forecast_trials.txt from scenarios/alpha_forecast.yaml at its
    seed, with the trial count replaced."""
    text = (SCENARIOS / "alpha_forecast.yaml").read_text(encoding="utf-8")
    assert "  trials: 12\n" in text
    path = write_yaml(tmp_path, text.replace("  trials: 12\n", f"  trials: {trials}\n"),
                      f"forecast_{trials}.yaml")
    monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / f"out_{trials}"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", path]) == 0
    return (tmp_path / f"out_{trials}" / "forecast_trials.txt").read_bytes().splitlines()


SPECIAL_VALUES = np.array([[0.0, -0.0, 5e-324, -2.2250738585072e-308],
                           [np.inf, -np.inf, np.nan, -1.0e300],
                           [-1.0, 1.0 / 3.0, 123456.789, -9.999999999995e-5]])


@st.composite
def mixed_columns(draw):
    # 0 to 5 columns, each int64 or float64, that broadcast to a table of n rows or of
    # n x m rows: full size, (n, 1), (m,) or 0-d. Small and large integers, so that a '%d'
    # column's text grows and shrinks between blocks; nan, infinities, subnormals, near-ties
    # and powers of ten among the floats
    n, m = draw(st.integers(0, 12)), draw(st.none() | st.integers(0, 6))
    shapes = [(n,), ()] if m is None else [(n, m), (n, 1), (m,), ()]
    floats = st.floats(allow_subnormal=True) | st.sampled_from(
        [0.0, -0.0, 1e12, 99.0, 9.9999999999995e-5, -2.5e-300, 1.0000000000005, -2.5e-7,
         1e22, 1e-296, np.nan, -np.inf])
    ints = st.integers(-9, 9) | st.integers(-2**63, 2**63 - 1) | st.sampled_from(
        [2**53 + 1, -(2**53 + 1), -2**63])
    return [draw(hnp.arrays(np.int64, shape, elements=ints) if draw(st.booleans())
                 else hnp.arrays(np.float64, shape, elements=floats))
            for shape in (draw(st.sampled_from(shapes)) for _ in range(draw(st.integers(0, 5))))]


def percent_rows(columns):
    # the reference: '%d' or '%.12e' per entry, joined by single spaces
    specs = ["%d" if column.dtype.kind == "i" else "%.12e" for column in columns]
    return "".join(" ".join(spec % v for spec, v in zip(specs, row)) + "\n"
                   for row in zip(*(column.tolist() for column in columns)))


def table_bytes(header, columns):
    return b"".join(_table(header, columns))


class TestTable:
    @settings(max_examples=200, deadline=None)
    @example(rows=SPECIAL_VALUES)
    @example(rows=np.empty((0, 3)))
    @given(rows=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 12)),
                           elements=st.floats(allow_nan=True, allow_infinity=True,
                                              allow_subnormal=True)))
    def test_matches_savetxt_byte_for_byte(self, rows):
        # negatives, zeros of both signs, subnormals, infinities and nan
        reference = io.StringIO()
        np.savetxt(reference, rows, fmt="%.12e", comments="# ", header="a b c")
        assert table_bytes("a b c", rows.T) == reference.getvalue().encode()

    def test_no_columns_no_rows(self):
        # the rows come from the columns: with none, the header alone
        assert table_bytes("h", []) == table_bytes("h", np.empty((3, 0)).T) == b"# h\n"

    def test_integer_and_float_columns(self):
        text = table_bytes("i x", [np.arange(3), np.array([0.5, -2.0, np.nan])])
        assert text == b"# i x\n0 5.000000000000e-01\n1 -2.000000000000e+00\n2 nan\n"

    def test_integers_beyond_the_float_mantissa_are_exact(self):
        # a float cast would print 2^53 + 1 as 9007199254740992
        big = np.array([2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63 - 1), -2**63])
        assert table_bytes("n x", [big, np.zeros(5)]) == (
            "# n x\n" + "".join(f"{v} 0.000000000000e+00\n" for v in big.tolist())).encode()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(columns=[], block=1)
    @example(columns=[np.empty(0, np.int64), np.empty(0)], block=1)
    @example(columns=[np.array([1, -22, 4444, 10**18, 5, -2**63]), np.arange(6.0)], block=2)
    @example(columns=[np.array([[0.5], [np.inf], [-0.0]]), np.array([2**53 + 1, -7]),
                      np.array(np.nan), np.full((3, 2), 1e22)], block=5)
    @example(columns=[np.arange(4)[:, None], np.linspace(-1.0, 1.0, 7)], block=2)
    @given(columns=mixed_columns(), block=st.sampled_from([1, 2, 5, gravlink.cli._BLOCK]))
    def test_matches_percent_row_by_row(self, columns, block):
        # any mix of integer and float columns at full size or broadcast, blocks of one
        # row and up: the text of the materialized columns, and of '%' row by row
        flat = [column.ravel() for column in np.broadcast_arrays(*columns)]
        with mock.patch.object(gravlink.cli, "_BLOCK", block):
            text = table_bytes("h", columns)
            assert text == table_bytes("h", flat) == ("# h\n" + percent_rows(flat)).encode()

    @staticmethod
    def assert_matches_savetxt(values):
        # three columns, enough rows to cross several blocks of the writer
        rows = np.resize(values, (max(gravlink.cli._BLOCK + 1, -(-values.size // 3)), 3))
        assert rows.size > 3 * gravlink.cli._BLOCK
        reference = io.StringIO()
        np.savetxt(reference, rows, fmt="%.12e", comments="# ", header="a b c")
        assert table_bytes("a b c", rows.T) == reference.getvalue().encode()

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(12)
        self.assert_matches_savetxt(rng.integers(0, 2**64, 60000, dtype=np.uint64).view(np.float64))

    def test_decimal_ties_of_both_signs(self):
        # (m + 0.5) 10^k: exact ties at k = 0, the nearest doubles otherwise
        rng = np.random.default_rng(13)
        m = rng.integers(10**12, 10**13, 30000).astype(np.float64)
        k = rng.integers(-30, 30, m.size)
        k[::3] = 0
        sign = rng.choice([-1.0, 1.0], m.size)
        self.assert_matches_savetxt(sign * (m + 0.5) * 10.0 ** k)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = 10.0 ** np.arange(-323, 309)
        near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        self.assert_matches_savetxt(np.concatenate([near, -near]))

    def test_carries_into_the_exponent(self):
        carries = 9.9999999999995 * 10.0 ** np.arange(-300, 300)
        near = np.concatenate([carries, np.nextafter(carries, 0.0), np.nextafter(carries, np.inf)])
        self.assert_matches_savetxt(np.concatenate([near, -near]))

    def test_zeros_subnormals_infinities_and_nan(self):
        rng = np.random.default_rng(14)
        subnormal = rng.integers(1, 2**52, 3000, dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1e-280, np.nextafter(1e-280, 0.0), 1e300, np.nextafter(1e300, 0.0),
                   np.finfo(np.float64).max, -np.finfo(np.float64).max]
        self.assert_matches_savetxt(np.concatenate([np.tile(special, 300), subnormal, -subnormal]))

    def test_mixed_row_format_matches_percent(self):
        # an integer and two float columns over several blocks
        rng = np.random.default_rng(15)
        x, y = rng.standard_normal(5000) * 1e3, rng.standard_normal(5000) * 1e-3
        x[::7], y[::7] = np.nan, np.inf
        x[::11], y[::11] = -0.0, 0.0
        columns = [np.arange(5000), x, y]
        assert table_bytes("i x y", columns) == ("# i x y\n" + percent_rows(columns)).encode()


class TestForecastStream:
    def test_more_trials_only_append_rows(self, tmp_path, monkeypatch):
        # trial k draws from SeedSequence((seed, k)) alone, whichever block fits it;
        # a trial is 25 epochs x 8 scan points x 2 terminals, so twenty span two blocks
        monkeypatch.setattr(gravlink.estimator, "_BLOCK_POINTS", 4096)  # ten trials a block
        assert gravlink.estimator._BLOCK_POINTS // 400 < 20
        ten = run_shipped_forecast(tmp_path, monkeypatch, 10)
        twenty = run_shipped_forecast(tmp_path, monkeypatch, 20)
        assert ten[0].startswith(b"# trial") and len(ten) == 12 and len(twenty) == 22
        assert ten[:11] == twenty[:11]

    def test_blocks_bound_the_memory_of_a_forecast(self, tmp_path):
        # the shipped forecast at 10^3 and 10^4 trials, each in a fresh interpreter that
        # prints its peak RSS in KiB: one block of every trial would hold 96 MB of counts
        # at 10^4, so ten times the trials may add only the rows the run keeps
        text = (SCENARIOS / "alpha_forecast.yaml").read_text(encoding="utf-8")
        run = ("import contextlib, io, resource, sys\n"
               "from gravlink.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert main(['run', sys.argv[1]]) == 0\n"
               "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        src = str(Path(gravlink.__file__).resolve().parents[1])
        peak_mib = []
        for trials in (1000, 10000):
            path = write_yaml(tmp_path, text.replace("  trials: 12\n", f"  trials: {trials}\n"),
                              f"forecast_{trials}.yaml")
            result = subprocess.run(
                [sys.executable, "-c", run, path], capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": src,
                     "GRAVLINK_OUTPUT_DIR": str(tmp_path / f"out_{trials}")})
            assert result.returncode == 0, result.stderr
            peak_mib.append(int(result.stdout.split()[-1]) / 1024.0)
        assert abs(peak_mib[1] - peak_mib[0]) < 4.0, peak_mib

    def test_thousand_trials_are_calibrated(self, tmp_path, monkeypatch):
        lines = run_shipped_forecast(tmp_path, monkeypatch, 1000)
        rows = np.loadtxt(lines, comments="#")
        assert rows.shape == (1000, 4)
        chi2 = rows[:, 3]
        # standard error of the mean chi2/dof, from the trials themselves
        stderr = float(np.std(chi2, ddof=1)) / math.sqrt(len(chi2))
        assert abs(float(np.mean(chi2)) - 1.0) <= 4.0 * stderr
        ratio = float(np.std(rows[:, 1], ddof=1)) / float(np.mean(rows[:, 2]))
        assert 0.7 <= ratio <= 1.3


class TestCliRuns:
    def test_constants_mode_writes_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(SCENARIOS / "constants.yaml")]) == 0
        table = (tmp_path / "out" / "constants.txt").read_text()
        assert "equivalent_magnetic_field" in table
        assert "rotation_to_acceleration_ratio" in capsys.readouterr().out

    def test_redshift_pass_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        path = write_yaml(tmp_path, SMALL_PASS.format(out="ignored"))
        assert main(["run", path]) == 0
        sweep = np.loadtxt(tmp_path / "out" / "pass_sweep.txt")
        assert sweep.shape == (12, 8)
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "Doppler-to-gravity phase ratio" in summary
        assert "Doppler-to-gravity phase ratio" in capsys.readouterr().out

    def test_ephemeris_driven_pass(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(SCENARIOS / "ephemeris_pass.yaml")]) == 0
        sweep = np.loadtxt(tmp_path / "out" / "pass_sweep.txt")
        assert sweep.shape == (60, 8)

    def test_byte_order_mark_before_the_first_record(self, tmp_path, monkeypatch):
        # the mark once hid the first record: run exited 0 with the sweep pinned to the
        # 60 s record, and phi_sc at t = 0 read -8.22e5 rad against -14.4 rad
        lines = SAMPLE_CPF.read_text(encoding="utf-8").splitlines(keepends=True)
        records_first = "".join(lines[2:] + lines[:2])
        sweeps = []
        for mark in ("", "\ufeff"):
            directory = tmp_path / f"mark{len(mark)}"
            directory.mkdir()
            (directory / "leo_sample.cpf").write_text(mark + records_first, encoding="utf-8")
            path = write_yaml(directory, (SCENARIOS / "ephemeris_pass.yaml").read_text())
            monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(directory / "out"))
            assert main(["run", path]) == 0
            sweeps.append((directory / "out" / "pass_sweep.txt").read_bytes())
        shipped = SCENARIOS.parent / "out" / "ephemeris_pass" / "pass_sweep.txt"
        assert sweeps[1] == sweeps[0] == shipped.read_bytes()

    @staticmethod
    def infinite_epoch_pass(tmp_path, name, records, mjd):
        """A [0, 200] s pass over the sample CPF's first records, the last one at mjd."""
        lines = [line for line in SAMPLE_CPF.read_text(encoding="utf-8").splitlines()
                 if line.startswith("10 ")][:records]
        tokens = lines[-1].split()
        lines[-1] = " ".join(tokens[:2] + [mjd] + tokens[3:])
        (tmp_path / f"{name}.cpf").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = SMALL_EPHEMERIS.format(out="ignored", cpf=f"{name}.cpf", t_end="200.0")
        return write_yaml(tmp_path, cfg.replace("t_start_s: 300.0", "t_start_s: 0.0"),
                          f"{name}.yaml"), tmp_path / name

    def test_infinite_epoch_is_a_malformed_record(self, tmp_path, monkeypatch, capsys):
        # an mjd of 305 nines puts the last record at epoch inf, where no later record's
        # monotonicity check catches it: validate once accepted it and run exited 3 with
        # "|position| = nan", after two numpy warnings
        path, out = self.infinite_epoch_pass(tmp_path, "infinite", 5, "9" * 305)
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", path]) == 2
            assert main(["run", path]) == 3
        problem = "line 5: epoch mjd*86400 + sod = inf s is not finite\n"
        assert capsys.readouterr().err == (f"violation: orbit.ephemeris_path: MalformedRecord: "
                                           f"{problem}error[MalformedRecord]: {problem}")
        assert not out.exists()

    @staticmethod
    def infinite_epoch_pass_geometry(records, mjd):
        """The link geometry of a [0, 200] s pass over the sample CPF's first records, the
        last one at mjd: parse_cpf refuses an infinite epoch, so the table is built from
        the records, which can still hold one."""
        table = parse_cpf(SAMPLE_CPF.read_text(encoding="utf-8"))
        rows = table.records[:records].copy()
        rows["mjd"][-1] = mjd
        trajectory = EphemerisTrajectory(EphemerisTable(rows))
        return build_pass(GroundStation(0.0, 0.0), trajectory, 0.0, 200.0, 6)[1]

    def test_infinite_epoch_in_a_window_the_pass_never_uses(self):
        # an mjd of 305 nines puts the last of 10 records at epoch inf; the sweep uses only
        # the first 8-node window, so the trajectory's denominators of the window with the
        # infinite epoch must not warn, and the pass is that over the finite table
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            finite, infinite = (self.infinite_epoch_pass_geometry(10, mjd)
                                for mjd in (61267.0, float("9" * 305)))
        assert [str(w.message) for w in caught] == []
        for name in (f.name for f in dataclasses.fields(finite)):
            np.testing.assert_array_equal(getattr(infinite, name), getattr(finite, name))

    def test_infinite_epoch_in_the_only_window(self):
        # with 5 records the one window holds the infinite epoch: the basis is nan and the
        # pass names the first nan position, and numpy warns of none of the basis's products
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BadAltitude) as raised:
                self.infinite_epoch_pass_geometry(5, float("9" * 305))
        assert str(raised.value) == "|position| = nan m is below 6.3e+06 m at epoch [0] (t = 0 s)"
        assert [str(w.message) for w in caught] == []

    def test_alpha_forecast_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        path = write_yaml(tmp_path, SMALL_FORECAST.format(out="ignored"))
        assert main(["run", path]) == 0
        trials = (tmp_path / "out" / "forecast_trials.txt").read_text()
        assert trials.startswith("# trial")
        out = capsys.readouterr().out
        assert "sigma_alpha empirical" in out
        assert "photon budget for sigma_alpha" in out

    def test_tiny_budget_target_extrapolates_to_inf(self, tmp_path, monkeypatch, capsys):
        # the extrapolation squared the sigma ratio with **, which raised OverflowError,
        # so run exited 3 and wrote nothing
        text = (SCENARIOS / "alpha_forecast.yaml").read_text(encoding="utf-8")
        assert "target_sigma_alpha: 1.0e-5" in text
        path = write_yaml(tmp_path, text.replace("target_sigma_alpha: 1.0e-5",
                                                 "target_sigma_alpha: 1.0e-300"))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", path]) == 0
        assert "photon budget for sigma_alpha = 1.0e-300: inf " in capsys.readouterr().out
        assert (tmp_path / "out" / "forecast_trials.txt").exists()

    @pytest.mark.parametrize("factor", [0.99, 1.01], ids=["below_the_cap", "above_the_cap"])
    def test_budget_line_past_the_cap_says_so(self, tmp_path, monkeypatch, capsys, factor):
        # a recommended budget above photon_budget's cap is one that no config can run;
        # the target moves the recommendation to factor * (2^31 - 1), and not the trials
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        text = SMALL_FORECAST.format(out="ignored")
        assert main(["run", write_yaml(tmp_path, text)]) == 0
        footer = (tmp_path / "out" / "forecast_trials.txt").read_text().splitlines()[-1]
        analytic = float(re.search(r"sigma_alpha_analytic=(\S+)", footer)[1])
        target = analytic * math.sqrt(96000 / (factor * (2**31 - 1)))
        text = text.replace("scan_points: 8", f"scan_points: 8\n  target_sigma_alpha: {target:.17e}")
        capsys.readouterr()
        assert main(["run", write_yaml(tmp_path, text)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("photon budget for sigma_alpha")]
        assert line.endswith("(1/sqrt(N) extrapolation; target precision is ~1e-5)"
                             + ("; above 2147483647, the largest noise.photon_budget that "
                                "validate accepts" if factor > 1 else ""))
        needed = float(re.search(r": (\S+) \(", line)[1])
        assert needed == pytest.approx(factor * (2**31 - 1), rel=1e-3)

    def test_weakvalue_scan_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        path = write_yaml(tmp_path, SMALL_WEAKVALUE.format(out="ignored"))
        assert main(["run", path]) == 0
        rows = np.loadtxt(tmp_path / "out" / "weakvalue_scan.txt")
        assert rows.shape == (4, 7)
        assert "max |Re weak value|" in capsys.readouterr().out

    def test_huge_kick_runs_without_a_warning(self, tmp_path, monkeypatch):
        # the kick's square overflows in the pointer's Gaussian factor, which warned,
        # though the factor it feeds is exact
        text = (SCENARIOS / "weakvalue_scan.yaml").read_text(encoding="utf-8")
        path = write_yaml(tmp_path, re.sub(r"q_grid: .*", "q_grid: [1.0e+200]", text))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", path]) == 0
        rows = np.loadtxt(tmp_path / "out" / "weakvalue_scan.txt")
        assert np.all(np.isfinite(rows)) and np.all(rows[:, 1] == 1.0e200)

    def test_kick_near_the_float_range_runs_without_a_warning(self, tmp_path, monkeypatch):
        # q * (a - b) for the eigenvalue gap 2 overflowed and warned; the weak shift
        # q * tan(30 deg) stays finite, so validate passes it
        text = (SCENARIOS / "weakvalue_scan.yaml").read_text(encoding="utf-8")
        text = re.sub(r"q_grid: .*", "q_grid: [1.0e+308]", text)
        path = write_yaml(tmp_path, re.sub(r"theta_grid_deg:\n(    .*\n)+",
                                           "theta_grid_deg: [30.0]\n", text))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", path]) == 0
        (row,) = np.loadtxt(tmp_path / "out" / "weakvalue_scan.txt", ndmin=2)
        assert np.all(np.isfinite(row)) and row[1] == 1.0e308

    def test_fringe_demo_byte_identical_reruns(self, tmp_path, monkeypatch):
        path = write_yaml(tmp_path, SMALL_FRINGE.format(out="ignored", vis="1.0"))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "a"))
        assert main(["run", path]) == 0
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "b"))
        assert main(["run", path]) == 0
        first = (tmp_path / "a" / "fringe_scan.txt").read_bytes()
        second = (tmp_path / "b" / "fringe_scan.txt").read_bytes()
        assert first == second

    def test_fringe_partial_failure_is_reported_not_fatal(
        self, tmp_path, monkeypatch, capsys
    ):
        # zero visibility leaves the phase unidentifiable; the step is
        # marked failed in the summary but the run still completes
        cfg = SMALL_FRINGE.format(out="ignored", vis="0.0")
        cfg = cfg.replace("n_per_point: 20000", "n_per_point: 50000")
        path = write_yaml(tmp_path, cfg)
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", path]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "[FAILED] fringe fit: DegenerateVisibility" in summary
        assert (tmp_path / "out" / "fringe_scan.txt").exists()

    @pytest.mark.parametrize("base", [-math.pi, 3.0 * math.pi])
    def test_fringe_true_phase_is_wrapped_as_the_fit(self, tmp_path, monkeypatch, capsys, base):
        # both wrap to pi in (-pi, pi], the range of fit_phase; [-pi, pi] gave -pi for both
        path = write_yaml(tmp_path, SMALL_FRINGE.format(out="ignored", vis="1.0").replace(
            "base_phase_rad: 0.7", f"base_phase_rad: {base!r}"))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", path]) == 0
        assert "(true, wrapped: 3.141593)" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario", ["fringe_demo", "constants"])
    @pytest.mark.parametrize("under_a_file, error", [(False, "FileExistsError"),
                                                     (True, "NotADirectoryError")])
    def test_unwritable_output_dir_exits_three(self, tmp_path, monkeypatch, capsys, scenario,
                                               under_a_file, error):
        # an output directory that is a file, or lies under one, once raised out of main
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(taken / "out" if under_a_file else taken))
        assert main(["run", str(SCENARIOS / f"{scenario}.yaml")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error[{error}]: ") and "Traceback" not in err
        assert taken.read_text(encoding="utf-8") == ""

    def test_runtime_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "empty.cpf").write_text("", encoding="utf-8")
        cfg = SMALL_PASS.format(out="ignored").replace(
            "semi_major_axis_m: 6.771e+6", "ephemeris_path: empty.cpf"
        )
        path = write_yaml(tmp_path, cfg)
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", path]) == 3
        assert "error[EmptyEphemeris]" in capsys.readouterr().err

    def test_sweep_past_ephemeris_span_fails_before_output(self, tmp_path, monkeypatch,
                                                           capsys):
        cfg = SMALL_EPHEMERIS.format(out="ignored", cpf=SAMPLE_CPF, t_end="2400.0")
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", write_yaml(tmp_path, cfg)]) == 3
        assert "error[OutOfRange]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_parses_the_ephemeris_once(self, tmp_path, monkeypatch):
        calls = []
        parse = gravlink.ephemeris.parse_cpf
        monkeypatch.setattr(gravlink.ephemeris, "parse_cpf",
                            lambda text: calls.append(1) or parse(text))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        cfg = SMALL_EPHEMERIS.format(out="ignored", cpf=SAMPLE_CPF, t_end="900.0")
        assert main(["run", write_yaml(tmp_path, cfg)]) == 0
        assert len(calls) == 1

    def test_library_value_error_exits_three(self, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(gravlink.spin_weak, "amplification_scan", diverge)
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        path = write_yaml(tmp_path, SMALL_WEAKVALUE.format(out="ignored"))
        assert main(["run", path]) == 3
        assert "error[LinAlgError]: Eigenvalues did not converge" in capsys.readouterr().err

    def test_memory_error_exits_three(self, tmp_path, monkeypatch, capsys):
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 48.0 GiB")

        monkeypatch.setattr(gravlink.cli, "build_pass", exhaust)
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", write_yaml(tmp_path, SMALL_PASS.format(out="ignored"))]) == 3
        assert "error[MemoryError]: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["redshift_pass", "ephemeris_pass"])
    def test_pass_signal_matches_tracked_output(self, tmp_path, monkeypatch, name):
        # the batched pipeline reproduces the tracked s column within the
        # 1e-8 rad equivalence gate (phases near 1e6 rad round at ~1e-10 rad)
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(SCENARIOS / f"{name}.yaml")]) == 0
        fresh = np.loadtxt(tmp_path / "out" / "pass_sweep.txt")
        tracked = np.loadtxt(SCENARIOS.parent / "out" / name / "pass_sweep.txt")
        assert fresh.shape == tracked.shape
        np.testing.assert_array_equal(fresh[:, 0], tracked[:, 0])
        assert np.max(np.abs(fresh[:, 4] - tracked[:, 4])) <= 1e-8

    @pytest.mark.parametrize("scenario", SCENARIO_FILES, ids=lambda p: p.stem)
    def test_scenario_reproduces_tracked_output(self, tmp_path, monkeypatch, scenario):
        # text between numbers must match exactly; numbers may differ by another
        # numpy's last-bit rounding
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(scenario)]) == 0
        tracked_dir = SCENARIOS.parent / "out" / scenario.stem
        names = sorted(f.name for f in tracked_dir.iterdir())
        assert sorted(f.name for f in tmp_path.iterdir()) == names
        for name in names:
            fresh = _NUMBER.split((tmp_path / name).read_text(encoding="utf-8"))
            tracked = _NUMBER.split((tracked_dir / name).read_text(encoding="utf-8"))
            assert fresh[0::2] == tracked[0::2], name
            np.testing.assert_allclose(np.array(fresh[1::2], dtype=float),
                                       np.array(tracked[1::2], dtype=float),
                                       rtol=1e-9, atol=1e-8, err_msg=name)

    @pytest.mark.parametrize("scenario", SCENARIO_FILES, ids=lambda p: p.stem)
    def test_scenario_regenerates_tracked_output_byte_for_byte(self, tmp_path, monkeypatch,
                                                               scenario):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(scenario)]) == 0
        tracked_dir = SCENARIOS.parent / "out" / scenario.stem
        names = sorted(f.name for f in tracked_dir.iterdir())
        assert sorted(f.name for f in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (tracked_dir / name).read_bytes(), name


def _leaves(node, path=()):
    """Key paths to every scalar in a parsed YAML tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


CONTRACT_TREES = [yaml.safe_load(text) for text in (
    SMALL_PASS.format(out="ignored"),
    SMALL_FORECAST.format(out="ignored"),
    SMALL_FRINGE.format(out="ignored", vis="1.0"),
    SMALL_WEAKVALUE.format(out="ignored"),
    SMALL_EPHEMERIS.format(out="ignored", cpf=SAMPLE_CPF, t_end="900.0"),
)]
HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, "x", True, None, [], {}, "6.771e6"]),
    st.floats(min_value=-1e6, max_value=-1e-6),
    st.integers(min_value=-3, max_value=12),  # capped so that every run stays short
)


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_hostile_leaf(self, data):
        tree = copy.deepcopy(data.draw(st.sampled_from(CONTRACT_TREES)))
        *parents, last = data.draw(st.sampled_from(_leaves(tree)))
        node = tree
        for key in parents:
            node = node[key]
        node[last] = data.draw(HOSTILE)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(tree, fh)
            err = io.StringIO()
            with (mock.patch.dict(os.environ, {"GRAVLINK_OUTPUT_DIR": os.path.join(tmp, "out")}),
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                validated = main(["validate", path])
                ran = main(["run", path])
        assert validated in (0, 2)
        assert ran in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if validated == 0:
            assert ran != 2, err.getvalue()
