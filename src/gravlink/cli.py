"""Command-line front end: validate configs and run scenario pipelines.

Commands:
    gravlink run <config.yaml>       execute the configured mode
    gravlink validate <config.yaml>  report all config violations
    gravlink constants               print the coupling benchmark table

Exit codes: 0 success, 2 configuration problem, 3 runtime (pipeline) error.
Each run writes a machine-readable columnar file plus summary.txt into the
output directory (config output_dir, overridden by GRAVLINK_OUTPUT_DIR),
and prints the summary. Identical config and seed give byte-identical
columnar outputs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, load_config, trajectories, validate_config
from .constants import C_LIGHT, G_STD, GM_EARTH, R_EARTH
from .errors import ConfigInvalid, FileUnreadable, GravlinkError
from .kinematics import build_pass
from .link_model import (
    expanded_signal,
    first_order_doppler_shift,
    gravitational_phase,
    phase_pair,
)


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


# The '%.12e' text of a number is five uint32 words, "-d.d" "dddd" "dddd"
# "ddde" "+ddd", taken from tables of their bytes. Zero bytes are padding.
_POW10 = np.array([float(10**k) for k in range(309)])  # correctly rounded
_DIGITS = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).copy()  # "0000" to "9999"
_HEAD = _DIGITS[np.arange(200)[:, None] % 100, [0, 2, 0, 3]]  # by sign, two leading digits
_HEAD[:, 0], _HEAD[:, 2] = np.repeat([0, 45], 100), 46
_TRIPLE_E = np.roll(_DIGITS[:1000], -1, axis=1)  # "ddde"
_TRIPLE_E[:, 3] = ord("e")
_EXP = _DIGITS[np.abs(np.arange(-309, 310))]  # by exponent + 309
_EXP[:, 0] = np.repeat([45, 43], [309, 310])
_EXP[309 - 99:309 + 100, 1] = 0  # two digits for |exponent| < 100
_HEAD, _QUAD, _TRIPLE_E, _EXP = (t.view(np.uint32).ravel() for t in (_HEAD, _DIGITS, _TRIPLE_E, _EXP))
_BLOCK = 4096  # entries formatted at a time


def _e12(x: np.ndarray) -> np.ndarray:
    """'%.12e' % x for each entry of x, as (..., 20) bytes padded with zeros."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a < 1e300)  # no nan, inf, zero or subnormal
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10.take(12 - e, mode="clip")  # a 10^(12 - e)
    np.divide(a, _POW10.take(e - 12, mode="clip"), out=y, where=e > 12)
    # The power and the product or quotient round once each, by <= 2^-53, so
    # |y - a 10^(12-e)| < 2.3e-16 y < 0.0025. Where |y - rint(y)| < 0.495 the
    # exact value is within 0.4975 of d = rint(y), so it rounds to d and is
    # no tie: the margin is twice the error bound. With
    # y >= 1e12 and d <= 1e13, e is exact, or one short and d carries to 1e13;
    # y < 1e12 where log10 rounded up to e, and '%' formats those entries.
    d = np.rint(y)
    fast &= (y >= 1e12) & (d <= 1e13) & (np.abs(y - d) < 0.495)
    carry, zero = d == 1e13, x == 0.0
    d = np.where(zero, 0, np.where(carry, 1e12, d)).astype(np.int64)
    text = np.stack([_HEAD.take(d // 10**11 + 100 * np.signbit(x), mode="clip"),
                     _QUAD.take(d // 10**7 % 10000), _QUAD.take(d // 1000 % 10000),
                     _TRIPLE_E.take(d % 1000), _EXP.take(e + carry + 309, mode="clip")], axis=-1)
    slow = ~(fast | zero)  # '%' formats nan, inf, tiny, huge and near-tie entries
    text[slow] = np.array(["%.12e" % v for v in x[slow].tolist()], "S20").view(np.uint32).reshape(-1, 5)
    return text.view(np.uint8)


def _table(header: str, row_fmt: str, rows: np.ndarray, footer: str = "") -> str:
    """Columnar text: '# header', then row_fmt % row for each row of the 2-D
    float array rows, then footer; with '%.12e' columns, byte for byte the
    text of np.savetxt(fmt='%.12e', comments='# ').

    Blocks of at most _BLOCK entries are formatted into zero-padded byte
    arrays, so memory does not grow with the table. _e12 formats '%.12e'
    columns as arrays. '%' formats the other columns, and each entry _e12
    cannot prove exact: nan, inf, |x| < 1e-280 or >= 1e300, and values within
    0.005 of a rounding tie or whose log10 rounds up to an integer."""
    parts = re.split(r"(%[^a-zA-Z%]*[a-zA-Z])", row_fmt + "\n")  # literals and specs
    ecols = [k for k in range(1, len(parts), 2) if parts[k] == "%.12e"]
    step = max(1, _BLOCK // max(1, len(parts) // 2))
    texts = [f"# {header}\n"]
    for block in (rows[i:i + step] for i in range(0, len(rows), step)):
        etext, columns = _e12(block[:, [k // 2 for k in ecols]]), []
        for k, part in enumerate(parts):
            if k % 2 == 0:
                columns.append(np.frombuffer((part * len(block)).encode(), np.uint8))
            elif k in ecols:
                columns.append(etext[:, ecols.index(k)])
            else:
                columns.append(np.array([part % v for v in block[:, k // 2].tolist()], "S"))
            columns[-1] = columns[-1].view(np.uint8).reshape(len(block), -1)
        texts.append(np.concatenate(columns, axis=1).tobytes().translate(None, b"\0").decode())
    return "".join(texts + [footer])


# Each mode's runner takes (cfg, config_path) and returns (columnar file name,
# its text, summary lines); _run writes both files and prints the summary.
def _run_redshift_pass(cfg: ScenarioConfig, config_path: str) -> tuple:
    station, orbit = trajectories(cfg, config_path)
    optics, red = cfg.optical, cfg.redshift
    scale = optics.phase_scale
    epochs, geom = build_pass(station, orbit, cfg.sweep.t_start, cfg.sweep.t_end,
                              cfg.sweep.n_epochs)
    pair = phase_pair(geom, optics, red)
    du = geom.U2 - geom.U1
    doppler_phase = scale * first_order_doppler_shift(geom)
    expanded = scale * expanded_signal(geom, red)
    resid = pair.s_signal - expanded
    columns = np.stack([epochs, du, pair.phi_sc, pair.phi_gs, pair.s_signal, doppler_phase,
                        expanded, resid], axis=1)
    table = _table("t_s dU phi_sc_rad phi_gs_rad s_rad doppler_phase_rad expanded_s_rad "
                   "residual_rad", " ".join(["%.12e"] * 8), columns)

    max_doppler = float(np.max(np.abs(doppler_phase)))
    max_gravity = float(np.max(np.abs(scale * du)))
    max_resid = float(np.max(np.abs(resid)))
    beta_max = float(np.max(np.linalg.norm([geom.beta1, geom.beta2], axis=-1)))
    # the spacecraft at reception, from U2 = GM / (c^2 r): no second state evaluation
    mean_orbit_radius = float(np.mean(GM_EARTH / (C_LIGHT**2 * geom.U2)))
    height = mean_orbit_radius - (R_EARTH + cfg.station.altitude)
    phi_uniform = gravitational_phase(optics, G_STD, height, red.alpha)
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


def _run_alpha_forecast(cfg: ScenarioConfig, config_path: str) -> tuple:
    from .estimator import precision_forecast

    station, orbit = trajectories(cfg, config_path)
    _, geom = build_pass(station, orbit, cfg.sweep.t_start, cfg.sweep.t_end, cfg.sweep.n_epochs)
    noise, budget = cfg.noise, cfg.noise.photon_budget
    est = precision_forecast(geom, cfg.optical, cfg.redshift, budget, cfg.forecast.trials,
                             cfg.seed, scan_points=cfg.forecast.scan_points,
                             visibility=noise.visibility, efficiency=noise.efficiency,
                             dark_rate=noise.dark_rate)
    empirical = float(np.std(est.alpha_hat, ddof=1))
    analytic = float(np.mean(est.sigma_alpha))
    rows = np.column_stack([np.arange(cfg.forecast.trials), est.alpha_hat, est.sigma_alpha,
                            est.chi2_per_dof])
    footer = (f"# summary sigma_alpha_empirical={empirical:.12e} "
              f"sigma_alpha_analytic={analytic:.12e} photon_budget={budget}\n")
    table = _table("trial alpha_hat sigma_alpha chi2_per_dof", "%d %.12e %.12e %.12e", rows,
                   footer)

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
        summary.append(f"photon budget for sigma_alpha = {target:.1e}: "
                       f"{budget * (ratio * ratio):.3e} "
                       f"(1/sqrt(N) extrapolation; target precision is ~1e-5)")
    else:
        summary.append("noiseless run: budget extrapolation skipped")
    return "forecast_trials.txt", table, summary


def _run_fringe_demo(cfg: ScenarioConfig, config_path: str) -> tuple:
    from .interferometer import fit_phase, fringe_scan

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
    rows = np.column_stack([offsets, scan.counts, np.full(offsets.size, scan.n_sent)])
    table = _table("offset_rad counts_early counts_central counts_late n_sent",
                   "%.12e %d %d %d %d", rows)

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
        wrapped = math.remainder(cfg.fringe.base_phase, 2.0 * math.pi)
        summary.append(
            f"fitted phase: {fit.phi_hat:.6f} rad "
            f"(true, wrapped: {wrapped:.6f}), sigma_phi: {fit.sigma_phi:.2e} rad, "
            f"visibility_hat: {fit.visibility_hat:.4f}"
        )
    return "fringe_scan.txt", table, summary


def _run_weakvalue_scan(cfg: ScenarioConfig, config_path: str) -> tuple:
    from .spin_weak import (GaussianMeter, SpinCouplingParams, amplification_scan,
                            constants_report, two_spin_hamiltonian)

    spin = cfg.spin
    meter = GaussianMeter(width=spin.meter_width)
    q_values = [q * spin.meter_width for q in spin.q_grid]
    rows = amplification_scan(spin.theta_grid, q_values, meter)
    table = _table(
        "theta_rad q re_weak_value im_weak_value shift_exact shift_weak postselection_prob",
        " ".join(["%.12e"] * 7), rows)

    q, re_aw, exact, weak = rows[:, [1, 2, 4, 5]].T
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

    # validate's spin bounds mirror every SpinCouplingParams check
    params = SpinCouplingParams(g=spin.gravity, omega=spin.rotation, k=spin.coupling_k,
                                exchange=spin.exchange, t=spin.duration)
    eigs = np.linalg.eigvalsh(two_spin_hamiltonian(params))
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
        _write(Path(cfg.output_dir), "constants.txt", table)
    sys.stdout.write(table)
    return 0


def _run(config_path: str) -> int:
    cfg = load_config(config_path)
    if cfg.mode == "constants":
        return _run_constants(cfg)
    name, table, summary = _RUNNERS[cfg.mode](cfg, config_path)
    text = "\n".join(summary + [f"columnar output: {name}"]) + "\n"
    _write(Path(cfg.output_dir), name, table)
    _write(Path(cfg.output_dir), "summary.txt", text)
    sys.stdout.write(text)
    return 0


def _validate(config_path: str) -> int:
    problems = validate_config(config_path)
    if problems:
        raise ConfigInvalid(problems)
    print("config valid")
    return 0


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)

    if args.command == "constants":
        return _run_constants(None)

    try:
        return _validate(args.config) if args.command == "validate" else _run(args.config)
    except (ConfigInvalid, FileUnreadable) as exc:
        if isinstance(exc, ConfigInvalid):
            for p in exc.violations:
                print(f"violation: {p}", file=sys.stderr)
        else:
            print(f"error[FileUnreadable]: {exc}", file=sys.stderr)
        return 2
    except (GravlinkError, ValueError, OverflowError, MemoryError, OSError) as exc:
        # ValueError: library argument checks and numpy's LinAlgError;
        # OverflowError: integers beyond numpy's int64; MemoryError: an epoch
        # batch too large to allocate; OSError: an output directory that
        # cannot be made or written
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
