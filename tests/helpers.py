"""Test-only helpers that the program itself never calls: a non-moving
platform for controlled geometries, the per-call ephemeris interpolation, the
stack-based rotation and the light-time loop on full states that the
ephemeris and kinematics code must match bit for bit, the LAPACK fringe fit
that the closed-form one must match, synthetic pass measurements for the
regression, qubit amplitudes and unitary evolution for the spin tests, and the
weak scan's columns laid out as table rows."""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from gravlink.constants import C_LIGHT, HBAR, OMEGA_EARTH
from gravlink.ephemeris import _MAX_WINDOW, EphemerisTable
from gravlink.errors import (DegenerateGeometry, DegenerateVisibility, FitDiverged,
                             NoConvergence, OutOfRange, reject)
from gravlink.interferometer import _MIN_VISIBILITY, FringeScan, PhaseFit, _wrap_phase
from gravlink.kinematics import (_COINCIDENT_RANGE, _LIGHT_TIME_MAX_ITER, _LIGHT_TIME_TOL,
                                 EARTH_ROTATION, LinkGeometry, _above_floor, _cross, _epochs,
                                 _norm, _states, rotate_z)
from gravlink.link_model import phase_pair
from gravlink.spin_weak import amplification_scan

_SIGMA_FLOOR = 1e-15  # rad, keeps noiseless datasets within the sigma > 0 contract


class StaticPlatform:
    """Non-moving platform, a trajectory with positions(t) and states(t); its
    position is checked on construction."""

    def __init__(self, position):
        self.position = np.asarray(position, dtype=float)
        self.states(np.zeros(1))

    def positions(self, t) -> np.ndarray:
        return np.broadcast_to(self.position, (np.size(t), 3))

    def states(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _states(self.positions(t), np.zeros((t.size, 3)), t)


def interpolate_oracle(table: EphemerisTable, t, velocities: bool):
    """Positions, velocities (or None) and epochs (N,) at t, interpolated as before
    EphemerisTrajectory computed each window's denominators once: the same windows
    and basis loop, with the denominator product formed on every call. The
    trajectory's positions and states must give these bits."""
    t_rel = _epochs(t)
    epochs = table.relative_epochs
    reject(~((epochs[0] <= t_rel) & (t_rel <= epochs[-1])), OutOfRange,
           f"t = {{:.3f}} s outside table span [0, {epochs[-1]:.3f}] s", t_rel)
    n = table.n_records
    width = min(_MAX_WINDOW, n)
    start = np.clip(np.searchsorted(epochs, t_rel) - width // 2, 0, n - width)
    window = start[:, None] + np.arange(width)
    nodes = epochs[window]
    offsets = t_rel[:, None] - nodes
    values = np.ones_like(offsets)
    derivs = np.zeros_like(offsets) if velocities else None
    denoms = np.ones_like(offsets)
    for k in range(width):
        if velocities:
            keep, derivs[:, k] = derivs[:, k].copy(), 0.0
            derivs *= offsets[:, k, None]
            derivs += values
            derivs[:, k] = keep
        for product, factor in ((values, offsets[:, k, None]), (denoms, nodes - nodes[:, k, None])):
            keep, product[:, k] = product[:, k].copy(), 0.0
            product *= factor
            product[:, k] = keep
    coords = table.positions[window]
    theta = OMEGA_EARTH * t_rel
    pos = rotate_z(theta, np.einsum("nj,njk->nk", values / denoms, coords))
    if not velocities:
        return pos, None, t_rel
    vel = rotate_z(theta, np.einsum("nj,njk->nk", derivs / denoms, coords))
    vel += _cross(EARTH_ROTATION, pos)
    return pos, vel, t_rel


def solve_light_time_oracle(t_emit, r_emit, receiver_trajectory):
    """kinematics.solve_light_time as it was before it read positions only: the same
    fixed-point loop on the receiver's full states, so that every state it evaluates
    is checked for both radius and speed. The positions loop must give these bits."""
    n = len(r_emit)
    t_emit = np.broadcast_to(_epochs(t_emit), n)
    _above_floor(r_emit, t_emit)
    t_flight = np.zeros(n)
    n_hat = np.empty_like(r_emit)
    todo = slice(None)   # epochs still iterating: all of them until one settles
    for _ in range(_LIGHT_TIME_MAX_ITER):
        received, _ = receiver_trajectory.states(t_emit[todo] + t_flight[todo])
        separation = received - r_emit[todo]
        rng = _norm(separation)
        if np.any(rng < _COINCIDENT_RANGE):
            ranges = np.full(n, np.inf)
            ranges[todo] = rng
            reject(ranges < _COINCIDENT_RANGE, DegenerateGeometry,
                   "emitter and receiver separated by {:.3e} m; direction undefined", ranges,
                   times=t_emit)
        t_new = rng / C_LIGHT
        settled = np.abs(t_new - t_flight[todo]) < _LIGHT_TIME_TOL
        t_flight[todo] = t_new
        if settled.all():
            n_hat[todo] = separation / rng[:, None]
            return t_flight, n_hat
        if settled.any():
            live = np.arange(n)[todo]
            n_hat[live[settled]] = separation[settled] / rng[settled, None]
            todo = live[~settled]
    reject(np.isin(np.arange(n), np.arange(n)[todo]), NoConvergence,
           f"light-time iteration did not settle in {_LIGHT_TIME_MAX_ITER} steps", times=t_emit)


def rotate_z_oracle(angle, vectors) -> np.ndarray:
    """Vectors (..., 3) rotated about +z by angle(s) [rad] through numpy's axis
    machinery: kinematics.rotate_z must give these bits."""
    c, s = np.cos(angle), np.sin(angle)
    x, y, z = np.moveaxis(np.asarray(vectors, dtype=float), -1, 0)
    return np.stack(np.broadcast_arrays(c * x - s * y, s * x + c * y, z), axis=-1)


def inv_fit_oracle(scan: FringeScan, first: int = 0) -> PhaseFit:
    """fit_phase as it was before its closed-form 3x3 solve: the same weighted normal
    systems in the orthonormal basis of the shared design, inverted by a batched
    np.linalg.inv (LAPACK). fit_phase must match its results and its errors."""
    reject_scan = partial(reject, what="scan", first=first)
    offsets = scan.offsets
    counts = scan.counts[..., 1].astype(float)
    reject_scan(counts.sum(axis=-1) <= 0, DegenerateVisibility,
                "no central-peak counts; phase unidentifiable")

    # every scan shares the design D = U S V^T, so one SVD of it finds a singular
    # one, and solving in the orthonormal basis U leaves only the weights'
    # spread in the normal matrices, not the conditioning of a clustered scan
    design = np.stack([np.ones_like(offsets), np.cos(offsets), np.sin(offsets)], axis=-1)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] <= s[0] * offsets.size * np.finfo(float).eps:
        resid = counts - counts @ (design @ np.linalg.pinv(design))
        reject_scan(np.ones(counts.shape[:-1], dtype=bool), FitDiverged,
                    "singular fringe-fit normal matrix; residuals: {}", resid)
    # each count is binomial(n_sent, p): variance c (1 - c / n_sent)
    w = 1.0 / np.maximum(counts * (1.0 - counts / scan.n_sent), 1.0)
    # (U^T W U) b = U^T W c per scan, coef = V S^-1 b; covariance of b is (U^T W U)^-1
    cov = np.linalg.inv(np.einsum("...p,pij->...ij", w, u[:, :, None] * u[:, None, :]))
    b = np.einsum("...ij,...j->...i", cov, (w * counts) @ u)
    coef = (b / s) @ vt
    a0, a1, a2 = coef[..., 0], coef[..., 1], coef[..., 2]
    reject_scan(a0 <= 0.0, DegenerateVisibility, "non-positive fringe baseline {:.3g}", a0)
    amp2 = a1 * a1 + a2 * a2
    vis_hat = np.sqrt(amp2) / a0
    reject_scan(vis_hat < _MIN_VISIBILITY, DegenerateVisibility,
                f"fitted visibility {{:.3f}} < {_MIN_VISIBILITY}; phase unidentifiable", vis_hat)
    # d phi / d(a0, a1, a2) = (0, a2, -a1) / (a1^2 + a2^2), taken to the basis of b
    grad = (a2[..., None] * vt[:, 1] - a1[..., None] * vt[:, 2]) / (amp2[..., None] * s)
    sigma_phi = np.sqrt(np.einsum("...i,...ij,...j->...", grad, cov, grad))
    reject_scan(~(np.isfinite(sigma_phi) & (sigma_phi > 0.0)), FitDiverged,
                "fit covariance unusable: sigma_phi = {}; residuals: {}", sigma_phi,
                counts - b @ u.T)
    # [()] turns the 0-d results of a single scan into scalars
    return PhaseFit(_wrap_phase(np.arctan2(-a2, a1))[()], sigma_phi[()], vis_hat[()])


def synthesize_measurements(
    geometries: LinkGeometry,
    scale: float,
    alpha: float,
    sigma_sc: float = 0.0,
    sigma_gs: float = 0.0,
    seed=None,
) -> np.ndarray:
    """Per-epoch measurement rows (phi_sc, sigma_sc, phi_gs, sigma_gs), (epochs, 4),
    with Gaussian phase noise, as estimate_alpha takes them.

    geometries is a LinkGeometry batch and scale its phase_scale; both phases
    are phase_pair's exact ones at alpha. With a seed, noise is drawn epoch by
    epoch, the one-way phase before the round-trip one.

    Note the phases are ~1e6 rad, so reconstructing s = phi_sc - phi_gs/2
    from the stored doubles is good to ~1e-10 rad, not machine epsilon.
    """
    pair = phase_pair(geometries, scale, alpha)
    phi_sc, phi_gs = pair.phi_sc, pair.phi_gs
    if seed is not None:
        noise = np.random.default_rng(seed).normal(0.0, [sigma_sc, sigma_gs],
                                                   (len(geometries), 2))
        phi_sc, phi_gs = phi_sc + noise[:, 0], phi_gs + noise[:, 1]
    return np.stack(np.broadcast_arrays(phi_sc, max(sigma_sc, _SIGMA_FLOOR),
                                        phi_gs, max(sigma_gs, _SIGMA_FLOOR)), axis=1)


def qubit(theta: float, phi: float = 0.0) -> np.ndarray:
    """Amplitudes of cos(theta)|0> + e^{i phi} sin(theta)|1>."""
    return np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])


def evolve(amplitudes, hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t / hbar) applied to state amplitudes (..., dim), rows the batch, by exact
    eigendecomposition (dim <= 4). H must match dim and be Hermitian within 1e-10 of its
    norm, else ValueError."""
    amps = np.asarray(amplitudes, dtype=complex)
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (amps.shape[-1],) * 2:
        raise ValueError(f"H shape {h.shape} does not match state dim {amps.shape[-1]}")
    if np.linalg.norm(h - h.conj().T) > 1e-10 * np.linalg.norm(h):
        raise ValueError("H is not Hermitian within 1e-10 of its norm")
    energies, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * t / HBAR)
    return (amps @ vectors.conj() * phases) @ vectors.T


def scan_rows(theta_values, q_values, width: float) -> np.ndarray:
    """amplification_scan's seven columns broadcast to the (n * m, 7) table rows
    (theta, q, Re A_w, Im A_w, shift_exact, shift_weak, postselection_prob),
    theta major, as the writer lays them out."""
    columns = np.broadcast_arrays(*amplification_scan(theta_values, q_values, width))
    return np.stack(columns, axis=-1).reshape(-1, 7)
