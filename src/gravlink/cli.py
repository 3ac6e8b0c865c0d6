"""Command-line front end: validate configs and run scenario pipelines.

Commands:
    gravlink run <config.yaml>       execute the configured mode
    gravlink validate <config.yaml>  report all config violations
    gravlink constants               print the coupling benchmark table

Exit codes: 0 success, 2 configuration problem, 3 runtime (pipeline) error.
A run reads the loaded config alone and writes a machine-readable columnar file plus
summary.txt into the output directory (config output_dir, overridden by GRAVLINK_OUTPUT_DIR),
and prints the summary. Each file is whole or absent, and summary.txt, written last, describes
the table beside it. Identical config and seed give byte-identical columnar outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from . import __version__
from .config import MAX_COUNT, ScenarioConfig, load_config, trajectories, validate_config
from .constants import C_LIGHT, G_STD, GM_EARTH, R_EARTH
from .errors import ConfigInvalid, FileUnreadable, GravlinkError
from .kinematics import _norm, build_pass
from .link_model import expanded_signal, gravitational_phase, phase_pair


def _write(out_dir: Path, name: str, chunks, stale=()) -> None:
    """Format chunks into a temporary sibling, remove the files in stale, rename it to name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    temporary = out_dir / f".{name}.{os.getpid()}"  # "wb": a killed run's leftover is reused
    try:
        with open(temporary, "wb") as fh:
            fh.writelines(chunks)
        for other in stale:
            (out_dir / other).unlink(missing_ok=True)
        os.replace(temporary, out_dir / name)
    finally:
        temporary.unlink(missing_ok=True)


# The '%.12e' text of a number is five uint32 words, "-d.d" "dddd" "dddd"
# "ddde" "+ddd", taken from tables of their bytes. Zero bytes are padding.
_SCALE = np.array([float(f"1e{k}") if k <= 308 else 0.0  # correctly rounded 10^(12 - e),
                   for k in range(321, -298, -1)])  # by exponent e + 309
_DIGITS = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).copy()  # "0000" to "9999"
# by sign, then the two leading digits, or 100 for "1.0" when rint carries to 10^13
_HEAD = _DIGITS[np.tile(np.r_[0:100, 10], 2)[:, None], [0, 2, 0, 3]]
_HEAD[:, 0], _HEAD[:, 2] = np.repeat([0, 45], 101), 46
_TRIPLE_E = np.roll(_DIGITS[:1000], -1, axis=1)  # "ddde"
_TRIPLE_E[:, 3] = ord("e")
_EXP = _DIGITS[np.abs(np.arange(-309, 310))]  # by exponent + 309
_EXP[:, 0] = np.repeat([45, 43], [309, 310])
_EXP[309 - 99:309 + 100, 1] = 0  # two digits for |exponent| < 100
_HEAD, _QUAD, _TRIPLE_E, _EXP = (t.view(np.uint32).ravel() for t in (_HEAD, _DIGITS, _TRIPLE_E, _EXP))
_BLOCK = 8192  # entries formatted at a time


def _e12(x: np.ndarray, out: np.ndarray) -> None:
    """Write '%.12e' % x[i, j] as the five words out[i, j, :5]."""
    a, zero = np.abs(x), x == 0.0
    e = (np.log10(a + zero) + 309).astype(np.intp)  # 309 + E, E floor(log10 a) or one off
    y = a * _SCALE.take(e, mode="clip")  # a 10^(12 - E); 0 for |x| < 1e-296
    # The power and the product round once each, by <= 2^-53, so |y - Y| <
    # 2.3e-16 y < 0.0025 for Y = a 10^(12 - E) exactly, as y < 1.1e13 where kept.
    # Where |y - d| < 0.4975 for d = rint(y), Y is within 0.5 of d: '%' rounds
    # it to d as well, and it is no tie. d = 10^13 carries into the exponent.
    # Where E is one off floor(log10 a), a kept y is within 0.0025 of 10^12 or
    # 10^13, and either exponent gives the same text.
    d = np.rint(y)
    keep = (np.abs(y - d) < 0.4975) & (y >= 1e12) & (d <= 1e13) | zero
    d = d.astype(np.intp)  # 13 digits, split by exact integer division: 6 + 7, 2 + 4, 4 + 3
    hi = d // 10**7
    lo = d - hi * 10**7
    head = hi // 10**4
    quad = lo // 1000
    out[..., 0] = _HEAD.take(head + 101 * np.signbit(x), mode="clip")
    out[..., 1] = _QUAD.take(hi - head * 10**4, mode="clip")
    out[..., 2] = _QUAD.take(quad, mode="clip")
    out[..., 3] = _TRIPLE_E.take(lo - quad * 1000, mode="clip")
    out[..., 4] = _EXP.take(e + (d == 10**13), mode="clip")
    if not keep.all():  # '%' formats nan, inf, tiny and near-tie entries
        i, j = np.nonzero(~keep)
        out[i, j, :5] = np.array(["%.12e" % v for v in x[i, j].tolist()], "S20").view(
            np.uint32).reshape(-1, 5)


def _table(header: str, columns):
    """Columnar text as UTF-8 byte chunks, yielded block by block: '# header', then one
    line per row of the arrays columns broadcast to (n,) or (n, m), in C order (a 2-D
    array's .T works too), entries separated by one space. A column of integer dtype is
    written '%d' from the integers themselves, every other column '%.12e'; with float
    columns only, byte for byte the text of np.savetxt(fmt='%.12e', comments='# ').
    No columns, no rows.

    A block of at most _BLOCK entries, whole rows or part of one, fills one
    zero-padded buffer of uint32 words: per entry a slot of five words, the
    most either '%.12e' or the '%d' text of a 64-bit integer takes, and a
    separator word, ' ' or '\n', written once. _e12 fills the slots of each
    run of adjacent full-size columns, integer columns then overwrite theirs,
    the slots of a smaller column, formatted once, are broadcast in, and one
    bytes.translate per block drops the padding. '%' formats each entry _e12
    cannot prove exact: nan, inf, |x| < 1e-296, values within 0.0025 of a
    rounding tie and some just below a power of ten."""
    yield f"# {header}\n".encode()
    shape = np.broadcast(*columns).shape
    n, m = shape + (1,) * (2 - len(shape))
    if not len(columns) or n * m == 0:
        return
    step = min(max(1, _BLOCK // len(columns)), n * m)
    buf = np.zeros((step, len(columns), 6), np.uint32)
    buf[:, :, 5], buf[:, -1:, 5] = ord(" "), ord("\n")
    full, fixed = {}, []  # full-size columns raveled, by index; (index, slots at (n, m, 5))
    for j, column in enumerate(columns):
        if column.size == n * m:
            full[j] = column.reshape(-1)
            continue
        slots = np.empty((column.size, 1, 5), np.uint32)
        with np.errstate(all="ignore"):
            _e12(column.reshape(-1, 1).astype(float), slots)
        if column.dtype.kind in "iu":
            slots[:, 0] = column.reshape(-1).astype("S20").view(np.uint32).reshape(-1, 5)
        fixed.append((j, np.broadcast_to(slots.reshape(column.shape + (5,)), (n, m, 5))))
    runs = [list(g) for is_full, g in groupby(range(len(columns)), full.__contains__) if is_full]
    ints = [j for j in full if columns[j].dtype.kind in "iu"]
    per, width = max(1, step // m), min(m, step)  # a block: per rows of width entries each
    for o in range(0, n, per):
        for a in range(0, m, width):
            k, w = min(per, n - o), min(width, m - a)
            span, rows = slice(o * m + a, o * m + a + k * w), buf[:k * w]
            with np.errstate(all="ignore"):  # nan and inf go to '%'
                for run in runs:
                    _e12(np.stack([full[j][span] for j in run], axis=1, dtype=float),
                         rows[:, run[0]:run[-1] + 1])
            for j in ints:
                rows[:, j, :5] = full[j][span].astype("S20").view(np.uint32).reshape(-1, 5)
            for j, slots in fixed:
                rows.reshape(k, w, -1, 6)[:, :, j, :5] = slots[o:o + k, a:a + w]
            yield rows.tobytes().translate(None, b"\0")


# Each mode's runner takes the loaded config alone and returns (columnar file name, its byte
# chunks, yet to be formatted from the columns alone, summary lines); _run writes both files.
def _run_redshift_pass(cfg: ScenarioConfig) -> tuple:
    station, orbit = trajectories(cfg)
    scale, alpha = cfg.optical.scale, cfg.redshift.alpha
    epochs, geom = build_pass(station, orbit, cfg.sweep.t_start, cfg.sweep.t_end,
                              cfg.sweep.n_epochs)
    pair = phase_pair(geom, scale, alpha)
    du = geom.U2 - geom.U1
    doppler_phase = scale * (geom.d1 - geom.d2)
    expanded = scale * expanded_signal(geom, alpha)
    resid = pair.s_signal - expanded
    table = _table("t_s dU phi_sc_rad phi_gs_rad s_rad doppler_phase_rad expanded_s_rad "
                   "residual_rad", [epochs, du, pair.phi_sc, pair.phi_gs, pair.s_signal,
                                    doppler_phase, expanded, resid])  # formatted once geom is freed

    max_doppler = float(np.max(np.abs(doppler_phase)))
    max_gravity = float(np.max(np.abs(scale * du)))
    max_resid = float(np.max(np.abs(resid)))
    beta_max = float(max(np.max(_norm(geom.beta1)), np.max(_norm(geom.beta2))))
    # the spacecraft at reception, from U2 = GM / (c^2 r): no second state evaluation
    mean_orbit_radius = float(np.mean(GM_EARTH / (C_LIGHT**2 * geom.U2)))
    height = mean_orbit_radius - (R_EARTH + cfg.station.altitude)
    phi_uniform = gravitational_phase(scale, G_STD, height, alpha)
    ratio = max_doppler / max_gravity if max_gravity > 0 else math.inf

    summary = [
        f"mode: redshift-pass ({len(epochs)} epochs, "
        f"t in [{cfg.sweep.t_start:g}, {cfg.sweep.t_end:g}] s)",
        f"uniform-field gravitational fringe phase: {phi_uniform:.4f} rad "
        f"(expected scale: a few radians)",
        f"max |one-way gravitational phase|: {max_gravity:.4f} rad",
        f"max |first-order Doppler phase|: {max_doppler:.4e} rad",
        f"Doppler-to-gravity phase ratio: {ratio:.3e} (expected ~1e5 for LEO)",
        f"max |exact - second-order| signal residual: {max_resid:.3e} rad "
        f"(bound 10*beta_max^3*scale = {10 * beta_max**3 * scale:.3e} rad)",
    ]
    return "pass_sweep.txt", table, summary


def _run_alpha_forecast(cfg: ScenarioConfig) -> tuple:
    from .estimator import precision_forecast

    station, orbit = trajectories(cfg)
    _, geom = build_pass(station, orbit, cfg.sweep.t_start, cfg.sweep.t_end, cfg.sweep.n_epochs)
    noise, budget = cfg.noise, cfg.noise.photon_budget
    est = precision_forecast(geom, cfg.optical.scale, cfg.redshift.alpha, budget,
                             cfg.forecast.trials, cfg.seed, scan_points=cfg.forecast.scan_points,
                             visibility=noise.visibility, efficiency=noise.efficiency,
                             dark_rate=noise.dark_rate)
    empirical = float(np.std(est.alpha_hat, ddof=1))
    analytic = float(np.mean(est.sigma_alpha))
    table = chain(_table("trial alpha_hat sigma_alpha chi2_per_dof", [
        np.arange(cfg.forecast.trials), est.alpha_hat, est.sigma_alpha, est.chi2_per_dof]),
        [f"# summary sigma_alpha_empirical={empirical:.12e} "
         f"sigma_alpha_analytic={analytic:.12e} photon_budget={budget}\n".encode()])

    mean_alpha = float(np.mean(est.alpha_hat))
    summary = [
        f"mode: alpha-forecast ({cfg.forecast.trials} trials, "
        f"{cfg.sweep.n_epochs} epochs, photon budget {budget})",
        f"injected alpha: {cfg.redshift.alpha:.3e}",
        f"mean alpha_hat: {mean_alpha:.6e}",
        f"sigma_alpha empirical: {empirical:.6e}",
        f"sigma_alpha analytic:  {analytic:.6e}",
    ]
    target = cfg.forecast.target_sigma_alpha
    if budget > 0:  # validate made the target positive and finite
        ratio = analytic / target
        # 1/sqrt(N) scaling; inf past the float range, where ** would raise
        needed = budget * (ratio * ratio)
        summary.append(f"photon budget for sigma_alpha = {target:.1e}: {needed:.3e} "
                       f"(1/sqrt(N) extrapolation; target precision is ~1e-5)"
                       + (f"; above {MAX_COUNT}, the largest noise.photon_budget that "
                          f"validate accepts" if needed > MAX_COUNT else ""))
    else:
        summary.append("noiseless run: budget extrapolation skipped")
    return "forecast_trials.txt", table, summary


def _run_fringe_demo(cfg: ScenarioConfig) -> tuple:
    from .interferometer import _wrap_phase, fit_phase, fringe_scan

    offsets = np.linspace(0.0, 2.0 * math.pi, cfg.fringe.scan_points, endpoint=False)
    scan = fringe_scan(
        offsets,
        cfg.fringe.base_phase,
        cfg.noise.visibility,
        cfg.fringe.n_per_point,
        cfg.noise.efficiency,
        cfg.seed,
        dark_rate=cfg.noise.dark_rate,
    )
    table = _table("offset_rad counts_early counts_central counts_late n_sent",
                   [offsets, *scan.counts.T, np.full(offsets.size, scan.n_sent)])

    early, central, late = scan.counts[np.argmax(scan.counts[:, 1])]
    side = 0.5 * (early + late)
    ratio = central / side if side > 0 else math.inf
    summary = [
        f"mode: fringe-demo ({cfg.fringe.scan_points} scan points, "
        f"{cfg.fringe.n_per_point} pulses/point)",
        f"base phase: {cfg.fringe.base_phase:.6f} rad, "
        f"visibility: {cfg.noise.visibility:g}",
        f"central/side count ratio at fringe maximum: {ratio:.3f} "
        f"(expected 4 at full visibility)",
    ]

    try:
        fit = fit_phase(scan)
    except GravlinkError as exc:  # a failed fit is reported, not fatal
        summary.append(f"[FAILED] fringe fit: {type(exc).__name__}: {exc}")
    else:
        summary.append(
            f"fitted phase: {fit.phi_hat:.6f} rad "
            f"(true, wrapped: {_wrap_phase(cfg.fringe.base_phase):.6f}), "
            f"sigma_phi: {fit.sigma_phi:.2e} rad, visibility_hat: {fit.visibility_hat:.4f}"
        )
    return "fringe_scan.txt", table, summary


def _run_weakvalue_scan(cfg: ScenarioConfig) -> tuple:
    from .spin_weak import amplification_scan, constants_report

    spin = cfg.spin
    columns = amplification_scan(spin.theta_grid, spin.kicks, spin.meter_width)
    table = _table(
        "theta_rad q re_weak_value im_weak_value shift_exact shift_weak postselection_prob",
        columns)

    _, q, re_aw, _, exact, weak, _ = columns
    max_aw = float(np.max(np.abs(re_aw)))
    small = (weak != 0.0) & (q <= 1e-2 * spin.meter_width)
    weak_devs = np.abs(exact[small] - weak[small]) / np.abs(weak[small])
    summary = [
        f"mode: weakvalue-scan ({len(spin.theta_grid)} theta values, "
        f"{len(spin.q_grid)} couplings)",
        f"max |Re weak value|: {max_aw:.4f} "
        f"(eigenvalue range of the observable is [-1, 1])",
    ]
    if weak_devs.size:
        summary.append(
            f"max |exact - weak| relative deviation at q <= 0.01*width: "
            f"{weak_devs.max():.3e}"
        )
    eigs = np.linalg.eigvalsh(spin.hamiltonian)
    summary.append("two-spin Hamiltonian eigenvalues [J]: " + " ".join(f"{e:.6e}" for e in eigs))
    for row in constants_report(spin.gravity):
        summary.append(
            f"{row.name}: {row.value:.4e} {row.units} "
            f"(reference {row.reference:.3e}, deviation {row.rel_deviation:.2%})"
        )
    return "weakvalue_scan.txt", table, summary


_RUNNERS = {"redshift-pass": _run_redshift_pass, "alpha-forecast": _run_alpha_forecast,
            "fringe-demo": _run_fringe_demo, "weakvalue-scan": _run_weakvalue_scan}


def _run_constants(cfg: ScenarioConfig | None) -> int:
    """Print the constants table, and write constants.txt when run from a config."""
    from .spin_weak import constants_report

    table = "".join(["# name value units reference rel_deviation\n"] + [
        f"{row.name} {row.value:.6e} {row.units or '-'} {row.reference:.6e} "
        f"{row.rel_deviation:.3e}\n" for row in constants_report()])
    if cfg is not None:
        _write(Path(cfg.output_dir), "constants.txt", [table.encode()])
    sys.stdout.write(table)
    return 0


def _run(config_path: str) -> int:
    cfg = load_config(config_path)
    if cfg.mode == "constants":
        return _run_constants(cfg)
    name, table, summary = _RUNNERS[cfg.mode](cfg)
    text = "\n".join(summary + [f"columnar output: {name}"]) + "\n"
    _write(Path(cfg.output_dir), name, table, stale=["summary.txt"])
    _write(Path(cfg.output_dir), "summary.txt", [text.encode()])
    sys.stdout.write(text)
    return 0


def _validate(config_path: str) -> int:
    problems = validate_config(config_path)
    if problems:
        raise ConfigInvalid(problems)
    print("config valid")
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravlink",
        description="Satellite optical-link red-shift and spin-gravity "
                    "weak-measurement toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to the YAML scenario file")
    val_p = sub.add_parser("validate", help="list config violations")
    val_p.add_argument("config", help="path to the YAML scenario file")
    sub.add_parser("constants", help="print the coupling benchmark table")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "constants":
        return _run_constants(None)

    try:
        return _validate(args.config) if args.command == "validate" else _run(args.config)
    except ConfigInvalid as exc:
        for p in exc.violations:
            print(f"violation: {p}", file=sys.stderr)
        return 2
    except (GravlinkError, ValueError, OverflowError, MemoryError, OSError) as exc:
        # FileUnreadable, exit 2: a file that cannot be read; ValueError: library
        # argument checks and numpy's LinAlgError; OverflowError: integers beyond
        # numpy's int64; MemoryError: an epoch batch too large to allocate;
        # OSError: an output directory that cannot be made or written
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FileUnreadable) else 3


if __name__ == "__main__":
    sys.exit(main())
