"""End-to-end checks of the gravlink command: every shipped scenario against `out/`, the
north-star scales (a 10^5-epoch pass, a day-long CPF, 10^3- and 10^4-trial forecasts, a
3*10^5-row weak scan), and inputs that must be refused by name, without a traceback.

Run from the repository root with `python -m pytest checks`; gravlink must be installed or
on `PYTHONPATH=src`. The checks call the `gravlink` on PATH when there is one, the installed
console script, and `python -m gravlink.cli` otherwise."""

import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
SHIPPED = sorted(SCENARIOS.glob("*.yaml"))
GRAVLINK = ([shutil.which("gravlink")] if shutil.which("gravlink")
            else [sys.executable, "-m", "gravlink.cli"])
NO_NUMPY_WARNING = {"PYTHONWARNINGS": "error::RuntimeWarning"}


def strict(out):
    """The environment of a run that writes to out, with numpy's warnings as errors."""
    return {**NO_NUMPY_WARNING, "GRAVLINK_OUTPUT_DIR": str(out)}


def scenario(name, edits, directory):
    """Write the shipped scenario `name` to directory/name.yaml with edits, a mapping of
    dotted keys ("sweep.n_epochs") to values, and return its path. A key the scenario does
    not hold raises KeyError, so that no edit is lost to a misspelling."""
    tree = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"))
    for key, value in edits.items():
        *sections, field = key.split(".")
        node = tree
        for section in sections:
            node = node.get(section) if isinstance(node, dict) else None
        if not (isinstance(node, dict) and field in node):
            raise KeyError(f"{name}.yaml has no {key}")
        node[field] = value
    path = Path(directory) / f"{name}.yaml"
    path.write_text(yaml.safe_dump(tree, sort_keys=False, default_flow_style=None),
                    encoding="utf-8")
    return path


def run(*args, env=None):
    """Run gravlink with args from the repository root, with env over the environment; return
    its exit status, stdout and stderr, and fail if it printed a traceback."""
    done = subprocess.run([*GRAVLINK, *map(str, args)], capture_output=True, text=True,
                          cwd=REPO, env={**os.environ, **(env or {})})
    print(done.stdout + done.stderr)
    assert "Traceback" not in done.stderr
    return done.returncode, done.stdout, done.stderr


def summary_value(text, key):
    """The number that a run's summary prints after `key:` or `key =`."""
    for label in (f"{key}:", f"{key} ="):
        if label in text:
            return float(text.split(label, 1)[1].split()[0])
    raise AssertionError(f"no {key!r} in the summary")


def assert_savetxt_bytes(path):
    """Assert that a written table is byte for byte np.savetxt's text of its rows under its
    header line; return the rows."""
    table, rows = path.read_bytes(), np.loadtxt(path)
    reference = io.StringIO()
    np.savetxt(reference, rows, fmt="%.12e", comments="# ",
               header=table[:table.index(b"\n")].decode().removeprefix("# "))
    assert table == reference.getvalue().encode(), f"{path.name} differs from np.savetxt"
    return rows


def assert_same_tree(got, want):
    """diff -r: the same file names, each with the same bytes."""
    names = sorted(p.relative_to(want) for p in want.rglob("*") if p.is_file())
    assert sorted(p.relative_to(got) for p in got.rglob("*") if p.is_file()) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), f"{name} differs"


def assert_shipped_runs_match_out(directory, env):
    for config in SHIPPED:
        out = directory / config.stem
        assert run("run", config, env={**env, "GRAVLINK_OUTPUT_DIR": str(out)})[0] == 0
        assert_same_tree(out, REPO / "out" / config.stem)


def assert_residual_within_bound(summary):
    residual = summary_value(summary, "residual")
    bound = summary_value(summary, "bound 10*beta_max^3*scale")
    assert residual < bound, f"residual {residual} rad is not below its bound {bound} rad"


def test_scenario_refuses_an_absent_or_misspelled_key(tmp_path):
    for key in ("sweep.n_epoch", "sweeps.n_epochs", "n_epochs", "sweep.n_epochs.num"):
        with pytest.raises(KeyError, match="redshift_pass.yaml has no "):
            scenario("redshift_pass", {key: 1}, tmp_path)
    assert not any(tmp_path.iterdir())


def test_pyyaml_has_libyaml():
    # the parser gravlink.config and the benchmark use
    assert yaml.__with_libyaml__, "PyYAML lacks libyaml"


def test_imports_load_no_third_party_module_but_numpy_and_yaml():
    # top-level modules loaded from a spec, against a bare interpreter, so that .pth
    # imports (such as _distutils_hack) and Cython's in-memory modules do not count
    show = ("import sys; print(*{n.partition('.')[0] for n, m in list(sys.modules.items())"
            " if getattr(m, '__spec__', None) is not None})")
    bare, package, cli = (
        set(subprocess.run([sys.executable, "-c", pre + show], capture_output=True, text=True,
                           check=True, cwd=REPO).stdout.split()) - set(sys.stdlib_module_names)
        for pre in ("", "import gravlink; ", "import gravlink.cli; "))
    third_party = package - bare - {"gravlink"}
    assert third_party == set(), f"import gravlink loads {sorted(third_party)}"
    third_party = cli - bare - {"gravlink"}
    assert third_party == {"numpy", "yaml"}, f"gravlink.cli imports {sorted(third_party)}"


def test_validate_every_shipped_scenario_with_no_numpy_warning():
    # validate builds each trajectory, an ephemeris one with its window denominators
    for config in SHIPPED:
        assert run("validate", config, env=NO_NUMPY_WARNING)[0] == 0
    assert run("constants", env=NO_NUMPY_WARNING)[0] == 0


def test_run_every_shipped_scenario_with_no_numpy_warning(tmp_path):
    assert_shipped_runs_match_out(tmp_path, NO_NUMPY_WARNING)


def test_every_shipped_scenario_writes_the_same_bytes_with_simd_dispatch_off(tmp_path):
    # every dispatched target this machine supports is disabled, and numpy must then read
    # each target of its dispatch list as off: no byte pin may rest on one CPU's kernels
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    env = {**NO_NUMPY_WARNING, "NPY_DISABLE_CPU_FEATURES": " ".join(
        name for name in __cpu_dispatch__ if __cpu_features__[name])}
    print(f"NPY_DISABLE_CPU_FEATURES={env['NPY_DISABLE_CPU_FEATURES']}")
    probe = ("from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
             "assert __cpu_dispatch__, 'numpy dispatches no target'\n"
             "on = [name for name in __cpu_dispatch__ if __cpu_features__[name]]\n"
             "assert not on, f'still dispatched: {on}'\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, **env})
    assert done.returncode == 0, done.stderr
    assert_shipped_runs_match_out(tmp_path, env)


def test_weak_scan_reads_its_angles_as_a_list_of_decimals(tmp_path):
    # the grid {start, stop, num} written out as plain decimals that YAML 1.1 reads back
    # exactly, so the loader's one-step decimal path and the writer run end to end
    spin = yaml.safe_load((SCENARIOS / "weakvalue_scan.yaml").read_text())["spin"]
    grid = spin["theta_grid_deg"]
    angles = np.linspace(grid["start"], grid["stop"], grid["num"]).tolist()
    path = scenario("weakvalue_scan", {"spin.theta_grid_deg": angles}, tmp_path)
    listed = yaml.safe_load(path.read_text())["spin"]["theta_grid_deg"]
    assert listed == angles and all(type(a) is float for a in listed), listed
    assert run("run", path, env={"GRAVLINK_OUTPUT_DIR": str(tmp_path / "out")})[0] == 0
    assert_same_tree(tmp_path / "out", REPO / "out" / "weakvalue_scan")


def test_pass_of_1e5_epochs_holds_its_bound_and_writes_savetxt_bytes(tmp_path):
    # the north-star pass size; the second-order model must still hold to its own bound,
    # and the table writer, about 100 blocks, write np.savetxt's text byte for byte
    path = scenario("redshift_pass", {"sweep.n_epochs": 100000}, tmp_path)
    status, out, _ = run("run", path, env=strict(tmp_path / "out"))
    assert status == 0 and out.startswith("mode: redshift-pass (100000 epochs")
    assert_residual_within_bound(out)
    assert_savetxt_bytes(tmp_path / "out" / "pass_sweep.txt")


def test_weak_scan_of_1e4_angles_by_30_couplings_writes_savetxt_bytes(tmp_path):
    # 3*10^5 rows, about 260 blocks of the writer, from angles and couplings listed as
    # plain decimals; theta, q, Re A_w and Im A_w are broadcast into each block, so the
    # rows must come out theta major and byte for byte as np.savetxt writes them
    angles = np.linspace(0.0, 89.0, 10**4 + 2)[1:-1]  # 10^4 angles in (0, 89) degrees
    path = scenario("weakvalue_scan", {"spin.theta_grid_deg": angles.tolist(),
                                       "spin.q_grid": np.geomspace(1e-4, 30.0, 30).tolist()},
                    tmp_path)
    status, out, _ = run("run", path, env=strict(tmp_path / "out"))
    assert status == 0
    assert out.startswith("mode: weakvalue-scan (10000 theta values, 30 couplings)")
    rows = assert_savetxt_bytes(tmp_path / "out" / "weakvalue_scan.txt")
    assert rows.shape == (300000, 7), f"{rows.shape[0]} rows of {rows.shape[1:]}"
    theta, q = rows[:, 0].reshape(10**4, 30), rows[:, 1].reshape(10**4, 30)
    assert (theta == theta[:, :1]).all() and (np.diff(theta[:, 0]) > 0).all(), "not theta major"
    assert (q == q[:1]).all() and (np.diff(q[0]) > 0).all(), "q does not run within each theta"


def test_pass_of_1e4_epochs_over_a_day_long_cpf(tmp_path):
    # 1440 records at 60 s of a circular orbit rotated into the Earth-fixed frame, written
    # with serialize_cpf; validated first, then run, and the light-time loop interpolates
    # positions only
    from gravlink.constants import GM_EARTH, OMEGA_EARTH
    from gravlink.ephemeris import EphemerisRecord, EphemerisTable, serialize_cpf

    a, inc, raan = 6.871e6, math.radians(51.6), math.radians(30.0)
    t = 60.0 * np.arange(1440)
    u = math.sqrt(GM_EARTH / a**3) * t
    x, y, z = a * np.cos(u), a * np.sin(u) * math.cos(inc), a * np.sin(u) * math.sin(inc)
    x, y = x * math.cos(raan) - y * math.sin(raan), x * math.sin(raan) + y * math.cos(raan)
    c, s = np.cos(OMEGA_EARTH * t), np.sin(OMEGA_EARTH * t)  # R_z(wt)^T r
    fixed = np.stack([c * x + s * y, c * y - s * x, z], axis=-1)
    records = [EphemerisRecord(61267, float(sod), tuple(map(float, r)))
               for sod, r in zip(t, fixed)]
    source = ("H1 CPF 2 GRL 2026 8 15 1 day_long\n"
              "H2 2600901 2600 901 DAY-LONG 61267 0 61267 86340 60 1 1 0 0")
    text = serialize_cpf(EphemerisTable(records=records, source=source))
    assert text.count("\n10 ") == 1440, "not 1440 records"
    (tmp_path / "day.cpf").write_text(text)
    path = scenario("ephemeris_pass", {"orbit.ephemeris_path": "day.cpf", "sweep.t_end_s": 86000.0,
                                       "sweep.n_epochs": 10000}, tmp_path)
    assert run("validate", path, env=NO_NUMPY_WARNING)[0] == 0
    status, out, _ = run("run", path, env=strict(tmp_path / "out"))
    assert status == 0 and out.startswith("mode: redshift-pass (10000 epochs")
    assert_residual_within_bound(out)


def test_forecast_of_1e3_trials_matches_its_sigma_and_alpha(tmp_path):
    # the north-star forecast size; the trials' spread must match the fitted sigma_alpha
    # and their mean the injected alpha
    path = scenario("alpha_forecast", {"forecast.trials": 1000}, tmp_path)
    status, out, _ = run("run", path, env=strict(tmp_path / "out"))
    assert status == 0 and out.startswith("mode: alpha-forecast (1000 trials,")
    alpha, mean, sigma_emp, sigma_analytic = (summary_value(out, key) for key in (
        "injected alpha", "mean alpha_hat", "sigma_alpha empirical", "sigma_alpha analytic"))
    ratio = sigma_emp / sigma_analytic
    assert 0.9 <= ratio <= 1.1, f"sigma_emp / sigma_analytic = {ratio}"
    pull = (mean - alpha) / (sigma_emp / math.sqrt(1000))
    assert abs(pull) <= 5.0, f"mean alpha_hat is {pull} sigma_emp / sqrt(1000) from alpha"
    print(f"sigma_emp / sigma_analytic = {ratio:.3f}, "
          f"mean offset = {pull:.2f} sigma_emp / sqrt(N)")


@pytest.mark.parametrize("alpha, budget, trials", [(0.0, 0, 10), (3.0e-4, 2147483647, 10000)])
def test_inclined_pass_forecast_recovers_alpha(tmp_path, alpha, budget, trials):
    # an ISS-like pass, where a regression on a truncated signal model reads 5e-6 at
    # alpha 0: noiseless, every trial must read alpha itself; at the config's largest
    # photon budget and 10^4 trials, the mean alpha_hat must lie within
    # 5 sigma_emp / sqrt(N) of alpha
    path = scenario("alpha_forecast", {
        "orbit.semi_major_axis_m": 6.871e6, "orbit.inclination_deg": 51.6, "orbit.raan_deg": 30.0,
        "station.latitude_deg": 20.0, "station.longitude_deg": 35.0, "sweep.t_start_s": 130.0,
        "sweep.t_end_s": 500.0, "redshift.alpha": alpha, "noise.photon_budget": budget,
        "forecast.trials": trials}, tmp_path)
    status, out, _ = run("run", path, env=strict(tmp_path / "out"))
    assert status == 0 and out.startswith(
        f"mode: alpha-forecast ({trials} trials, 25 epochs, photon budget {budget})")
    alpha_hat = np.loadtxt(tmp_path / "out" / "forecast_trials.txt")[:, 1]
    if alpha == 0.0:  # noiseless
        worst = float(np.max(np.abs(alpha_hat - alpha)))
        assert worst <= 1e-10, f"a noiseless alpha_hat is {worst:.3e} from alpha"
        print(f"noiseless: every alpha_hat within {worst:.3e} of alpha")
    else:
        assert summary_value(out, "injected alpha") == alpha
        pull = ((summary_value(out, "mean alpha_hat") - alpha)
                / (summary_value(out, "sigma_alpha empirical") / math.sqrt(len(alpha_hat))))
        assert abs(pull) <= 5.0, f"mean alpha_hat is {pull} sigma_emp / sqrt(N) from alpha"
        print(f"mean offset = {pull:.2f} sigma_emp / sqrt(N) over {len(alpha_hat)} trials")


@pytest.mark.parametrize("line, old, new, kept, sweep, error", [
    (3, "10 0 ", "10 x ", None, {}, "line 3: non-numeric field"),
    # a copy that ends at a record whose mjd of 305 nines puts its epoch at inf, which no
    # later record's monotonicity check catches: validate once accepted it and run exited 3
    # with "|position| = nan" after two numpy warnings
    (7, "10 0 61267 ", f"10 0 {'9' * 305} ", 7, {"sweep.t_start_s": 0.0, "sweep.t_end_s": 200.0},
     "line 7: epoch mjd*86400 + sod = inf s is not finite"),
    # a coordinate spelled with "_", which numpy's reader refuses and Python's float reads:
    # it validates and runs to the tracked pass of the plain spelling
    (4, " 6756542.784673 ", " 6_756_542.784673 ", None, {}, None),
    # a flag spelled 1.0, which older numpy readers took as the int 1 with a warning
    (5, "10 0 ", "10 1.0 ", None, {}, "line 5: non-numeric field"),
], ids=["non-numeric", "infinite-epoch", "underscore", "flag-1.0"])
def test_malformed_cpf_line_is_named_without_a_traceback(tmp_path, line, old, new, kept, sweep,
                                                         error):
    lines = (SCENARIOS / "leo_sample.cpf").read_text().splitlines(keepends=True)[:kept]
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    (tmp_path / "leo_sample.cpf").write_text("".join(lines))
    path = scenario("ephemeris_pass", sweep, tmp_path)
    env = {"GRAVLINK_OUTPUT_DIR": str(tmp_path / "out")}
    (validated, _, validate_err), (ran, _, run_err) = run("validate", path, env=env), run(
        "run", path, env=env)
    if error is None:
        assert validated == ran == 0
        assert ((tmp_path / "out" / "pass_sweep.txt").read_bytes()
                == (REPO / "out" / "ephemeris_pass" / "pass_sweep.txt").read_bytes())
    else:
        assert (validated, ran) == (2, 3)
        assert error in validate_err and error in run_err


def test_weak_shift_past_the_float_range_is_a_violation(tmp_path):
    # q * meter_width * tan(theta) = 1e300 * 5.7e9 overflows: run once warned, exited 0
    # and wrote shift_weak = inf
    path = scenario("weakvalue_scan", {"spin.meter_width": 1.0, "spin.q_grid": [1.0e300],
                                       "spin.theta_grid_deg": [89.99999999]}, tmp_path)
    for command in ("validate", "run"):
        status, _, err = run(command, path, env=strict(tmp_path / "out"))
        assert status == 2
        assert any(line.startswith("violation: spin.q_grid: ") for line in err.splitlines())
    assert not (tmp_path / "out").exists()


def test_output_directory_that_is_a_file_is_reported(tmp_path):
    (tmp_path / "taken").touch()
    status, _, err = run("run", SCENARIOS / "fringe_demo.yaml",
                         env={"GRAVLINK_OUTPUT_DIR": str(tmp_path / "taken")})
    assert status == 3 and "error[FileExistsError]" in err
