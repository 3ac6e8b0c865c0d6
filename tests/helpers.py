"""Test-only helpers that the program itself never calls: a non-moving
platform for controlled geometries, synthetic pass measurements for the
regression, and single-state preparation and unitary evolution for the spin
tests."""

from __future__ import annotations

import math

import numpy as np

from gravlink.constants import HBAR
from gravlink.kinematics import LinkGeometry, StateVector
from gravlink.link_model import (
    OpticalConfig,
    RedshiftParams,
    expanded_signal,
    phase_pair,
    roundtrip_fractional_shift,
)
from gravlink.spin_weak import QuantumState, _require_hermitian

_SIGMA_FLOOR = 1e-15  # rad, keeps noiseless datasets within the sigma > 0 contract


class StaticPlatform:
    """Non-moving platform, a trajectory with states(t) only; its position is
    checked on construction."""

    def __init__(self, position):
        self.position = np.asarray(position, dtype=float)
        self.states(np.zeros(1))

    def states(self, t) -> StateVector:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        pos = np.broadcast_to(self.position, (t.size, 3))
        return StateVector(position=pos, velocity=np.zeros((t.size, 3)), epoch=t)


def synthesize_measurements(
    geometries: LinkGeometry,
    cfg: OpticalConfig,
    red: RedshiftParams,
    sigma_sc: float = 0.0,
    sigma_gs: float = 0.0,
    seed=None,
    model: str = "expanded",
) -> np.ndarray:
    """Per-epoch measurement rows (phi_sc, sigma_sc, phi_gs, sigma_gs), (epochs, 4),
    with Gaussian phase noise, as estimate_alpha takes them.

    geometries is a LinkGeometry batch. model = "expanded" (default) builds
    the one-way phase from the second-order signal model plus half the exact
    round-trip phase, so the regression model inverts it exactly; "exact"
    uses the exact frequency ratios for both phases, which leaves the
    O(beta^3) truncation visible to the estimator. With a seed, noise is
    drawn epoch by epoch, the one-way phase before the round-trip one.

    Note the phases are ~1e6 rad, so reconstructing s = phi_sc - phi_gs/2
    from the stored doubles is good to ~1e-10 rad, not machine epsilon.
    """
    if model not in ("expanded", "exact"):
        raise ValueError(f"unknown synthesis model '{model}'")
    scale = cfg.phase_scale
    if model == "expanded":
        phi_gs = scale * roundtrip_fractional_shift(geometries)
        phi_sc = scale * expanded_signal(geometries, red) + 0.5 * phi_gs
    else:
        pair = phase_pair(geometries, cfg, red)
        phi_sc, phi_gs = pair.phi_sc, pair.phi_gs
    if seed is not None:
        noise = np.random.default_rng(seed).normal(0.0, [sigma_sc, sigma_gs],
                                                   (len(geometries), 2))
        phi_sc, phi_gs = phi_sc + noise[:, 0], phi_gs + noise[:, 1]
    return np.stack(np.broadcast_arrays(phi_sc, max(sigma_sc, _SIGMA_FLOOR),
                                        phi_gs, max(sigma_gs, _SIGMA_FLOOR)), axis=1)


def qubit(theta: float, phi: float = 0.0) -> QuantumState:
    """cos(theta)|0> + e^{i phi} sin(theta)|1>."""
    return QuantumState(
        np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])
    )


def evolve(state: QuantumState, hamiltonian: np.ndarray, t: float) -> QuantumState:
    """exp(-i H t / hbar)|psi> by exact eigendecomposition (dim <= 4)."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (state.dim, state.dim):
        raise ValueError(f"H shape {h.shape} does not match state dim {state.dim}")
    _require_hermitian(h)
    energies, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * t / HBAR)
    amps = (state.amplitudes @ vectors.conj() * phases) @ vectors.T  # rows: the batch
    return QuantumState(amps)
