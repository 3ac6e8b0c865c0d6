"""Seeded inputs for the four benchmark workloads, and the checks on their outputs.

Every input the program reads is written here: one YAML config per
workload and, for ``pass_ephemeris``, a day-long CPF table. The seed moves
the geometry (station, orbit plane, altitude, selection angles, meter
width) and never the amount of work, so run times stay comparable across
seeds. The same seed gives byte-identical files.

The output checks read the files the program wrote and return a list of
problems; an empty list means the run is correct.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Physical constants, kept here rather than imported so that the checks do
# not move when the program's own modules change.
C_LIGHT = 2.99792458e8
GM_EARTH = 3.986004418e14
R_EARTH = 6.371e6
OMEGA_EARTH = 7.2921159e-5

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_TOL_RAD = 1e-8  # the per-epoch equivalence gate on s

WAVELENGTH_M = 800.0e-9
DELAY_LENGTH_M = 6000.0
PHASE_SCALE = 2.0 * math.pi * DELAY_LENGTH_M / WAVELENGTH_M  # omega0 * tau_l

PASS_EPOCHS = 3000
EPHEMERIS_RECORDS = 1440      # one day at 60 s cadence
EPHEMERIS_STEP_S = 60.0
EPHEMERIS_EPOCHS = 300
EPHEMERIS_MJD = 61267
FORECAST_EPOCHS = 25
FORECAST_TRIALS = 60
FORECAST_SCAN_POINTS = 8
FORECAST_ALPHA = 3.0e-4
FORECAST_BUDGET = 16000000
WEAK_THETAS = 720
WEAK_THETA_MAX_DEG = 89.0
WEAK_Q_GRID = tuple(float(q) for q in np.geomspace(1e-4, 30.0, 10))

# Both sides of each weak-scan value are printed with 13 significant digits
# and the program integrates on a grid whose truncation error is far below
# that, so 1e-9 of the value's scale leaves a wide margin while still
# catching any real change.
WEAK_REL_TOL = 1e-9

WORKLOADS = ("pass_analytic", "pass_ephemeris", "forecast", "weak_scan")


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload, and what its output check needs."""

    workload: str
    seed: int
    config: Path
    items: int            # work items per run: epochs, trials or meter shifts
    epochs: int           # sweep epochs per run, 0 when there is no sweep
    cpf: Path | None = None
    spec: dict = field(default_factory=dict)


def _num(x: float) -> str:
    """A float as YAML 1.1 reads it back exactly (a dot is mandatory)."""
    text = repr(float(x))
    mantissa, _, exponent = text.partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    return mantissa + ("e" + exponent if exponent else "")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _rot_z(angle: np.ndarray) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return np.stack([np.stack([c, -s, zero], -1),
                     np.stack([s, c, zero], -1),
                     np.stack([zero, zero, one], -1)], -2)


def _pass_geometry(rng: np.random.Generator) -> dict:
    """A station and a circular orbit that crosses its zenith at t = 0.

    The orbit plane contains the station direction at t = 0 and the
    direction of motion there is drawn at random, so every seed gives a
    different pass over a different station.
    """
    lat = math.radians(rng.uniform(-60.0, 60.0))
    lon = math.radians(rng.uniform(-180.0, 180.0))
    alt = float(rng.uniform(0.0, 2000.0))
    a = float(rng.uniform(6.771e6, 7.171e6))
    heading = float(rng.uniform(0.0, 2.0 * math.pi))

    up = np.array([math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
                   math.sin(lat)])
    east = np.array([-math.sin(lon), math.cos(lon), 0.0])
    north = np.cross(up, east)
    motion = math.cos(heading) * north + math.sin(heading) * east
    normal = np.cross(up, motion)
    inclination = math.acos(max(-1.0, min(1.0, normal[2])))
    raan = math.atan2(normal[0], -normal[1])
    node = np.array([math.cos(raan), math.sin(raan), 0.0])
    phase = math.atan2(up @ np.cross(normal, node), up @ node)
    return {
        "lat_deg": math.degrees(lat), "lon_deg": math.degrees(lon), "alt_m": alt,
        "a_m": a, "inc_deg": math.degrees(inclination),
        "raan_deg": math.degrees(raan), "phase_deg": math.degrees(phase),
    }


def _circular_positions(g: dict, t: np.ndarray) -> np.ndarray:
    """Inertial positions of the orbit in ``g`` at times t, shape (n, 3)."""
    a = g["a_m"]
    u = math.radians(g["phase_deg"]) + math.sqrt(GM_EARTH / a**3) * t
    plane = np.stack([a * np.cos(u), a * np.sin(u), np.zeros_like(u)], -1)
    ci, si = math.cos(math.radians(g["inc_deg"])), math.sin(math.radians(g["inc_deg"]))
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, ci, -si], [0.0, si, ci]])
    rot = _rot_z(np.array(math.radians(g["raan_deg"]))) @ rot_x
    return plane @ rot.T


def _beta_max(g: dict) -> float:
    v_orbit = math.sqrt(GM_EARTH / g["a_m"])
    v_station = OMEGA_EARTH * (R_EARTH + g["alt_m"]) * math.cos(math.radians(g["lat_deg"]))
    return max(v_orbit, v_station) / C_LIGHT


def _header(mode: str, seed: int, output_dir: str, comment: str) -> list[str]:
    lines = [f"# {comment}", f"mode: {mode}"]
    if seed is not None:
        lines.append(f"seed: {seed}")
    lines.append(f"output_dir: {output_dir}")
    return lines


def _station_optical_lines(g: dict) -> list[str]:
    return [
        "station:",
        f"  latitude_deg: {_num(g['lat_deg'])}",
        f"  longitude_deg: {_num(g['lon_deg'])}",
        f"  altitude_m: {_num(g['alt_m'])}",
        "optical:",
        f"  wavelength_m: {_num(WAVELENGTH_M)}",
        f"  delay_length_m: {_num(DELAY_LENGTH_M)}",
    ]


def _analytic_orbit_lines(g: dict) -> list[str]:
    return [
        "orbit:",
        f"  semi_major_axis_m: {_num(g['a_m'])}",
        f"  inclination_deg: {_num(g['inc_deg'])}",
        f"  raan_deg: {_num(g['raan_deg'])}",
        f"  phase_deg: {_num(g['phase_deg'])}",
    ]


def _sweep_lines(t_start: float, t_end: float, n: int) -> list[str]:
    return ["sweep:", f"  t_start_s: {_num(t_start)}", f"  t_end_s: {_num(t_end)}",
            f"  n_epochs: {n}"]


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _pass_spec(g: dict, seed: int, workload: str, t_start: float, t_end: float,
               n: int) -> dict:
    ref = REFERENCE_DIR / f"{workload}.s.txt"
    return {
        "t_start": t_start, "t_end": t_end, "n_epochs": n,
        "residual_bound": 10.0 * _beta_max(g) ** 3 * PHASE_SCALE,
        "reference": ref if seed == DEFAULT_SEED else None,
    }


def _gen_pass_analytic(seed: int, directory: Path) -> Inputs:
    g = _pass_geometry(_rng("pass_analytic", seed))
    t0, t1 = -240.0, 240.0
    lines = (_header("redshift-pass", None, "out/pass_analytic",
                     f"perfbench pass_analytic, seed {seed}")
             + _analytic_orbit_lines(g) + _station_optical_lines(g)
             + _sweep_lines(t0, t1, PASS_EPOCHS) + ["redshift:", "  alpha: 0.0"])
    config = _write(directory / "pass_analytic.yaml", lines)
    return Inputs("pass_analytic", seed, config, items=PASS_EPOCHS, epochs=PASS_EPOCHS,
                  spec=_pass_spec(g, seed, "pass_analytic", t0, t1, PASS_EPOCHS))


def _cpf_text(g: dict, seed: int) -> str:
    """Day-long CPF of the orbit in ``g``, rotated into the Earth-fixed frame."""
    from gravlink.ephemeris import EphemerisRecord, EphemerisTable, serialize_cpf

    t = EPHEMERIS_STEP_S * np.arange(EPHEMERIS_RECORDS)
    eci = _circular_positions(g, t)
    ecef = np.einsum("nji,nj->ni", _rot_z(OMEGA_EARTH * t), eci)  # R_z(wt)^T r
    records = tuple(
        EphemerisRecord(mjd=EPHEMERIS_MJD, sod=float(sod), position=tuple(map(float, p)))
        for sod, p in zip(t, ecef)
    )
    source = "\n".join([
        f"H1 CPF 2 PBN 2026 8 15 1 perfbench_seed_{seed}",
        f"H2 2600901 2600 901 PERFBENCH {EPHEMERIS_MJD} 0 {EPHEMERIS_MJD} "
        f"{int(t[-1])} {int(EPHEMERIS_STEP_S)} 1 1 0 0",
    ])
    return serialize_cpf(EphemerisTable(records=records, source=source))


def _gen_pass_ephemeris(seed: int, directory: Path) -> Inputs:
    g = _pass_geometry(_rng("pass_ephemeris", seed))
    cpf = directory / "pass_ephemeris.cpf"
    cpf.write_text(_cpf_text(g, seed), encoding="utf-8")
    t0, t1 = 300.0, 86000.0
    lines = (_header("redshift-pass", None, "out/pass_ephemeris",
                     f"perfbench pass_ephemeris, seed {seed}")
             + ["orbit:", f"  ephemeris_path: {cpf.name}"]
             + _station_optical_lines(g)
             + _sweep_lines(t0, t1, EPHEMERIS_EPOCHS) + ["redshift:", "  alpha: 0.0"])
    config = _write(directory / "pass_ephemeris.yaml", lines)
    return Inputs("pass_ephemeris", seed, config, items=EPHEMERIS_EPOCHS,
                  epochs=EPHEMERIS_EPOCHS, cpf=cpf,
                  spec=_pass_spec(g, seed, "pass_ephemeris", t0, t1, EPHEMERIS_EPOCHS))


def _gen_forecast(seed: int, directory: Path) -> Inputs:
    rng = _rng("forecast", seed)
    g = _pass_geometry(rng)
    program_seed = int(rng.integers(0, 2**31 - 1))
    lines = (_header("alpha-forecast", program_seed, "out/forecast",
                     f"perfbench forecast, seed {seed}")
             + _analytic_orbit_lines(g) + _station_optical_lines(g)
             + _sweep_lines(-240.0, 240.0, FORECAST_EPOCHS)
             + ["redshift:", f"  alpha: {_num(FORECAST_ALPHA)}",
                "noise:", f"  photon_budget: {FORECAST_BUDGET}",
                "  efficiency: 1.0", "  dark_rate: 0.0", "  visibility: 1.0",
                "forecast:", f"  trials: {FORECAST_TRIALS}",
                f"  scan_points: {FORECAST_SCAN_POINTS}",
                "  target_sigma_alpha: 1.0e-5"])
    config = _write(directory / "forecast.yaml", lines)
    return Inputs("forecast", seed, config, items=FORECAST_TRIALS, epochs=FORECAST_EPOCHS,
                  spec={"trials": FORECAST_TRIALS, "alpha": FORECAST_ALPHA})


def _gen_weak_scan(seed: int, directory: Path) -> Inputs:
    rng = _rng("weak_scan", seed)
    thetas = np.sort(rng.uniform(0.0, WEAK_THETA_MAX_DEG, WEAK_THETAS))
    width = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    exchange = 3.45e-42 * float(rng.uniform(0.5, 2.0))
    lines = (_header("weakvalue-scan", None, "out/weak_scan",
                     f"perfbench weak_scan, seed {seed}")
             + ["spin:", "  gravity_mps2: 9.80665",
                "  rotation_rad_per_s: [0.0, 0.0, 7.2921159e-5]",
                "  coupling_k: 1.0", f"  exchange_joule: {_num(exchange)}",
                "  duration_s: 1.0", f"  meter_width: {_num(width)}",
                "  theta_grid_deg: [" + ", ".join(_num(t) for t in thetas) + "]",
                "  q_grid: [" + ", ".join(_num(q) for q in WEAK_Q_GRID) + "]"])
    config = _write(directory / "weak_scan.yaml", lines)
    return Inputs("weak_scan", seed, config, items=WEAK_THETAS * len(WEAK_Q_GRID), epochs=0,
                  spec={"theta": np.radians(thetas), "q": np.array(WEAK_Q_GRID) * width,
                        "width": width})


_GENERATORS = {
    "pass_analytic": _gen_pass_analytic,
    "pass_ephemeris": _gen_pass_ephemeris,
    "forecast": _gen_forecast,
    "weak_scan": _gen_weak_scan,
}


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the inputs of ``workload`` for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](int(seed), directory)


# --------------------------------------------------------------------------
# output checks


def _read_rows(path: Path, columns: int) -> tuple[np.ndarray, list[str]]:
    """Numeric rows of a columnar output; '#' lines are skipped."""
    problems: list[str] = []
    rows = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != columns:
            problems.append(f"{path.name}:{line_no}: {len(fields)} columns, expected {columns}")
            continue
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            problems.append(f"{path.name}:{line_no}: non-numeric field")
    table = np.array(rows, dtype=float).reshape(-1, columns)
    if not np.all(np.isfinite(table)):
        problems.append(f"{path.name}: non-finite values")
    return table, problems


def failed_steps(summary: str) -> int:
    """Number of ``[FAILED]`` step lines in a run summary."""
    return sum(1 for line in summary.splitlines() if line.startswith("[FAILED]"))


def _check_pass(inputs: Inputs, out_dir: Path) -> list[str]:
    spec = inputs.spec
    rows, problems = _read_rows(out_dir / "pass_sweep.txt", 8)
    if problems:
        return problems
    n = spec["n_epochs"]
    if len(rows) != n:
        return [f"pass_sweep.txt has {len(rows)} rows, expected {n}"]
    t, phi_sc, phi_gs, s, expanded = rows[:, 0], rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 6]
    grid = np.linspace(spec["t_start"], spec["t_end"], n)
    if np.max(np.abs(t - grid)) > 1e-6:
        problems.append("epoch column does not match the configured sweep")
    resid = np.abs(s - expanded)
    bound = spec["residual_bound"]
    bad = np.flatnonzero(resid > bound)
    if bad.size:
        problems.append(f"{bad.size} rows with |s - expanded| > 10*beta_max^3*scale = "
                        f"{bound:.3e} rad (first at row {bad[0]}: {resid[bad[0]]:.3e})")
    # s is printed next to the phases it combines; phases near 1e6 rad carry
    # about 1e-7 rad of print rounding each.
    combo = np.abs(s - (phi_sc - 0.5 * phi_gs))
    if np.max(combo) > 1e-5:
        problems.append(f"s differs from phi_sc - phi_gs/2 by {np.max(combo):.3e} rad")
    ref_path = spec.get("reference")
    if ref_path is not None:
        ref = np.loadtxt(ref_path)
        if ref.shape != s.shape:
            problems.append(f"reference {ref_path.name} has {ref.size} values, expected {n}")
        else:
            dev = float(np.max(np.abs(s - ref)))
            if dev > REFERENCE_TOL_RAD:
                problems.append(f"s deviates from the reference by {dev:.3e} rad "
                                f"(gate {REFERENCE_TOL_RAD:.0e})")
    return problems


def _check_forecast(inputs: Inputs, out_dir: Path) -> list[str]:
    spec = inputs.spec
    rows, problems = _read_rows(out_dir / "forecast_trials.txt", 4)
    if failed_steps((out_dir / "summary.txt").read_text(encoding="utf-8")):
        problems.append("summary.txt has [FAILED] lines")
    if problems:
        return problems
    trials = spec["trials"]
    if len(rows) != trials:
        return [f"forecast_trials.txt has {len(rows)} rows, expected {trials}"]
    if not np.array_equal(rows[:, 0], np.arange(trials)):
        problems.append("trial indices are not 0..trials-1")
    alpha_hat, sigma = rows[:, 1], rows[:, 2]
    if np.any(sigma <= 0.0) or np.any(rows[:, 3] < 0.0):
        problems.append("non-positive sigma_alpha or negative chi2/dof")
        return problems
    sigma_emp = float(np.std(alpha_hat, ddof=1))
    sigma_analytic = float(np.mean(sigma))
    offset = abs(float(np.mean(alpha_hat)) - spec["alpha"])
    if offset > 4.0 * sigma_emp / math.sqrt(trials):
        problems.append(f"|mean alpha_hat - alpha| = {offset:.3e} exceeds "
                        f"4 sigma_emp/sqrt(trials) = {4 * sigma_emp / math.sqrt(trials):.3e}")
    ratio = sigma_emp / sigma_analytic
    if not 0.7 <= ratio <= 1.3:
        problems.append(f"sigma_emp/sigma_analytic = {ratio:.3f} outside [0.7, 1.3]")
    return problems


def pointer_closed_form(theta: np.ndarray, q: np.ndarray, width: float):
    """Exact pointer shift and post-selection probability for the scan.

    Observable sigma_x, pre-selection |0>, post-selection
    cos(theta)|0> + sin(theta)|1>. The post-selected pointer is
    sum_a w_a psi(x - q a) over the eigenvalues a; two Gaussians of rms
    width s displaced by q a and q b overlap by exp(-q^2 (a-b)^2 / 8 s^2)
    and their product has mean q (a + b) / 2, so the norm and the mean are
    finite sums over eigenvalue pairs. Inputs broadcast against each other.
    """
    eigvals, eigvecs = np.linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pre = np.array([1.0, 0.0])
    theta, q = np.broadcast_arrays(np.asarray(theta, float), np.asarray(q, float))
    post = np.stack([np.cos(theta), np.sin(theta)], -1)
    w = (post @ eigvecs) * (eigvecs.T @ pre)          # <f|a><a|i>, real here
    norm = np.zeros(theta.shape)
    first = np.zeros(theta.shape)
    for i, a in enumerate(eigvals):
        for j, b in enumerate(eigvals):
            pair = w[..., i] * w[..., j] * np.exp(-(q * (a - b)) ** 2 / (8.0 * width**2))
            norm += pair
            first += pair * q * (a + b) / 2.0
    return first / norm, norm


def _close(value: np.ndarray, expected: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return np.abs(value - expected) <= WEAK_REL_TOL * scale


def _check_weak_scan(inputs: Inputs, out_dir: Path) -> list[str]:
    spec = inputs.spec
    rows, problems = _read_rows(out_dir / "weakvalue_scan.txt", 7)
    if problems:
        return problems
    theta = np.repeat(spec["theta"], spec["q"].size)
    q = np.tile(spec["q"], spec["theta"].size)
    if len(rows) != theta.size:
        return [f"weakvalue_scan.txt has {len(rows)} rows, expected {theta.size}"]
    shift, prob = pointer_closed_form(theta, q, spec["width"])
    tan = np.tan(theta)
    columns = {
        "theta_rad": (rows[:, 0], theta, np.abs(theta) + 1e-3),
        "q": (rows[:, 1], q, q),
        "re_weak_value": (rows[:, 2], tan, np.abs(tan) + 1.0),
        "im_weak_value": (rows[:, 3], np.zeros_like(tan), np.abs(tan) + 1.0),
        # |shift_exact| <= q * max(1, |A_w|) for every q, so q * (|A_w| + 1) bounds it
        "shift_exact": (rows[:, 4], shift, q * (np.abs(tan) + 1.0)),
        "shift_weak": (rows[:, 5], q * tan, q * (np.abs(tan) + 1.0)),
        "postselection_prob": (rows[:, 6], prob, prob),
    }
    for name, (got, want, scale) in columns.items():
        ok = _close(got, want, scale)
        if not np.all(ok):
            i = int(np.flatnonzero(~ok)[0])
            problems.append(f"{name} row {i}: {got[i]:.12e}, closed form {want[i]:.12e}")
    return problems


_CHECKS = {
    "pass_analytic": _check_pass,
    "pass_ephemeris": _check_pass,
    "forecast": _check_forecast,
    "weak_scan": _check_weak_scan,
}


def check(inputs: Inputs, out_dir: Path) -> list[str]:
    """Problems found in the outputs of one run; empty when they are correct."""
    try:
        return _CHECKS[inputs.workload](inputs, out_dir)
    except OSError as exc:
        return [f"cannot read output: {exc}"]
