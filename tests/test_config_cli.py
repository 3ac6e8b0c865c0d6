"""Scenario config validation and the command-line front end."""

import contextlib
import copy
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gravlink
import gravlink.config
from gravlink import __version__
from gravlink.cli import _table, main
from gravlink.config import load_config, validate_config
from gravlink.errors import ConfigInvalid, FileUnreadable

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
    ("unknown_section_key", SMALL_FRINGE, "visibility: 1.0",
     "visibility: 1.0\n  dark_rte: 0.6", "noise.dark_rte: unknown key"),
    ("unknown_top_level_key", SMALL_PASS, "sweep:", "sweeps: {}\nsweep:", "sweeps: unknown key"),
    ("unknown_grid_key", SMALL_WEAKVALUE, "theta_grid_deg: [30.0, 84.0]",
     "theta_grid_deg: {start: 0.0, stop: 85.0, num: 4, step: 1.0}",
     "spin.theta_grid_deg.step: unknown key"),
    # 6 epochs x 8 scan points x 2 terminals: 95 photons leave every scan point empty
    ("photon_budget_below_one_pulse_per_point", SMALL_FORECAST, "photon_budget: 96000",
     "photon_budget: 95",
     "noise.photon_budget: 95 must be 0 (noiseless) or >= 2*n_epochs*scan_points (96)"),
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

    @pytest.mark.parametrize("dark_rate, valid", [("0.2", True), ("0.21", False)])
    def test_noise_window_probability_at_most_one(self, tmp_path, dark_rate, valid):
        # efficiency 1, visibility 1: 0.375 + 3 * dark_rate must stay <= 1
        cfg = SMALL_FRINGE.format(out="out", vis="1.0") + f"  dark_rate: {dark_rate}\n"
        problems = validate_config(write_yaml(tmp_path, cfg))
        assert [p.split(":")[0] for p in problems] == ([] if valid else ["noise"])

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

    def test_invalid_raises_with_violation_list(self, tmp_path):
        with pytest.raises(ConfigInvalid) as err:
            load_config(write_yaml(tmp_path, MULTI_PROBLEM))
        assert len(err.value.violations) >= 5

    def test_env_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        cfg = load_config(str(SCENARIOS / "redshift_pass.yaml"))
        assert cfg.output_dir == str(tmp_path / "elsewhere")


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


class TestTable:
    @settings(max_examples=200, deadline=None)
    @example(rows=SPECIAL_VALUES)
    @example(rows=np.empty((0, 3)))
    @given(rows=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                        max_side=12),
                           elements=st.floats(allow_nan=True, allow_infinity=True,
                                              allow_subnormal=True)))
    def test_matches_savetxt_byte_for_byte(self, rows):
        # negatives, zeros of both signs, subnormals, infinities and nan
        reference = io.StringIO()
        np.savetxt(reference, rows, fmt="%.12e", comments="# ", header="a b c")
        row_fmt = " ".join(["%.12e"] * rows.shape[1])
        assert _table("a b c", row_fmt, rows) == reference.getvalue()

    def test_mixed_formats_and_footer(self):
        rows = np.column_stack([np.arange(3), [0.5, -2.0, np.nan]])
        text = _table("i x", "%d %.3e", rows, footer="# done\n")
        assert text == "# i x\n0 5.000e-01\n1 -2.000e+00\n2 nan\n# done\n"


class TestForecastStream:
    def test_more_trials_only_append_rows(self, tmp_path, monkeypatch):
        # trial k draws from SeedSequence((seed, k)) alone
        ten = run_shipped_forecast(tmp_path, monkeypatch, 10)
        twenty = run_shipped_forecast(tmp_path, monkeypatch, 20)
        assert ten[0].startswith(b"# trial") and len(ten) == 12 and len(twenty) == 22
        assert ten[:11] == twenty[:11]

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

    def test_alpha_forecast_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        path = write_yaml(tmp_path, SMALL_FORECAST.format(out="ignored"))
        assert main(["run", path]) == 0
        trials = (tmp_path / "out" / "forecast_trials.txt").read_text()
        assert trials.startswith("# trial")
        out = capsys.readouterr().out
        assert "sigma_alpha empirical" in out
        assert "photon budget for sigma_alpha" in out

    def test_weakvalue_scan_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        path = write_yaml(tmp_path, SMALL_WEAKVALUE.format(out="ignored"))
        assert main(["run", path]) == 0
        rows = np.loadtxt(tmp_path / "out" / "weakvalue_scan.txt")
        assert rows.shape == (4, 7)
        assert "max |Re weak value|" in capsys.readouterr().out

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
        parse = gravlink.config.parse_cpf
        monkeypatch.setattr(gravlink.config, "parse_cpf",
                            lambda text: calls.append(1) or parse(text))
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        cfg = SMALL_EPHEMERIS.format(out="ignored", cpf=SAMPLE_CPF, t_end="900.0")
        assert main(["run", write_yaml(tmp_path, cfg)]) == 0
        assert len(calls) == 1

    def test_library_value_error_exits_three(self, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(gravlink.cli, "amplification_scan", diverge)
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
