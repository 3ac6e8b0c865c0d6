"""Violation-parameter regression and Monte Carlo precision forecasting.

The measured combination s = phi_sc - phi_gs/2 at each epoch, divided by
omega0*tau_l and with the modeled kinematic terms (second-order Doppler,
squared radial-projection difference, station-acceleration term)
subtracted using the known geometry, leaves (1 + alpha)(U2 - U1). A
weighted least-squares fit of that residual against the potential
difference across a pass yields alpha and its uncertainty.

Measured fringe phases are only defined modulo 2*pi while the underlying
Doppler phases reach ~1e6 rad, so the forecast pipeline unwraps each
fitted phase against the zero-violation model prediction (the standard
matched-template assumption; valid while |true - model| < pi, i.e. for
|alpha| well below 1e-2 at these geometries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingularFit, reject
from .interferometer import (FringeScan, _wrap_phase, cascade_intensities, draw_counts,
                             fit_phase, outcome_probabilities)
from .kinematics import LinkGeometry, build_link_geometry
from .link_model import (
    OpticalConfig,
    RedshiftParams,
    expanded_signal,
    phase_pair,
    roundtrip_fractional_shift,
    velocity_terms,
)

_SIGMA_FLOOR = 1e-15      # rad, keeps noiseless datasets within the sigma > 0 contract
_NOISELESS_SIGMA = 1e-12  # rad, reported uncertainty when the photon budget is off
# scan points a forecast draws and fits together; it sets the forecast's peak memory
_BLOCK_POINTS = 4096


@dataclass(frozen=True)
class PassDataset:
    """Link geometry plus measured phases over the epochs of a pass.

    geometries is a LinkGeometry batch; phase_measurements rows are
    (phi_sc, sigma_sc, phi_gs, sigma_gs) in radians, one per epoch, as an
    (epochs, 4) array or a batch (..., epochs, 4) of repeated measurements
    (a forecast's trials) of the same pass; phases must be unwrapped
    (absolute), not fringe-wrapped.
    """

    epochs: np.ndarray
    geometries: LinkGeometry
    phase_measurements: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.phase_measurements, dtype=float)
        if rows.ndim < 2 or rows.shape[-1] != 4:
            raise ValueError("measurement rows are (phi_sc, sig_sc, phi_gs, sig_gs)")
        if not len(self.epochs) == len(self.geometries) == rows.shape[-2]:
            raise ValueError("epochs, geometries, and measurements must align")
        if np.any(rows[..., 1] <= 0.0) or np.any(rows[..., 3] <= 0.0):
            raise ValueError("phase uncertainties must be positive")
        object.__setattr__(self, "epochs", np.asarray(self.epochs, dtype=float))
        object.__setattr__(self, "phase_measurements", rows)

    def __len__(self) -> int:
        return len(self.epochs)


@dataclass(frozen=True)
class AlphaEstimate:
    """Floats for one set of measurement rows, arrays (...,) for a batch of them."""

    alpha_hat: np.ndarray
    sigma_alpha: np.ndarray
    chi2_per_dof: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.sigma_alpha) <= 0.0):
            raise ValueError("sigma_alpha must be positive")


def build_pass(gs_trajectory, sc_trajectory, t_start: float, t_end: float,
               n_epochs: int) -> tuple[np.ndarray, LinkGeometry]:
    """Link geometry batch on a uniform grid of emission epochs."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    epochs = np.linspace(t_start, t_end, n_epochs)
    return epochs, build_link_geometry(gs_trajectory, sc_trajectory, epochs)


def synthesize_measurements(
    epochs: Sequence[float],
    geometries: LinkGeometry,
    cfg: OpticalConfig,
    red: RedshiftParams,
    sigma_sc: float = 0.0,
    sigma_gs: float = 0.0,
    seed=None,
    model: str = "expanded",
) -> PassDataset:
    """Generate per-epoch phase measurements with Gaussian phase noise.

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
    rows = np.stack(np.broadcast_arrays(phi_sc, max(sigma_sc, _SIGMA_FLOOR),
                                        phi_gs, max(sigma_gs, _SIGMA_FLOOR)), axis=1)
    return PassDataset(epochs=epochs, geometries=geometries, phase_measurements=rows)


def estimate_alpha(
    data: PassDataset,
    cfg: OpticalConfig,
    geometry_model: str = "expanded",
) -> AlphaEstimate:
    """Weighted least-squares estimate of the violation parameter.

    Per epoch: s = phi_sc - phi_gs/2 with variance sigma_sc^2 +
    sigma_gs^2/4; the kinematic model terms are subtracted using the true
    geometry (perfect orbit knowledge); the residual is regressed through
    the origin against the potential difference U2 - U1, giving the slope
    (1 + alpha).

    geometry_model selects how the model terms are computed: "expanded"
    subtracts the closed-form second-order terms; "exact" subtracts the
    full zero-violation ratio prediction (then restores the potential
    term), which removes the truncation error at the price of a
    ~O(beta, U) rescaling of alpha itself.

    Measurement rows (epochs, 4) give floats; a batch (..., epochs, 4) gives
    (...,) arrays, one estimate per set of rows, against model terms
    computed once. Raises SingularFit when a set has no leverage (every
    epoch has U2 = U1, or no epoch a finite nonzero weight); in a batch the
    message names the first such set, as in "... at trial [3]".
    """
    return _regress(data, _design(data.geometries, cfg, geometry_model), cfg.phase_scale)


def _design(geoms: LinkGeometry, cfg: OpticalConfig, geometry_model: str) -> tuple:
    """(x, offset, terms) of the regression of y = (s - offset)/scale - terms on x."""
    if geometry_model not in ("expanded", "exact"):
        raise ValueError(f"unknown geometry model '{geometry_model}'")
    x = geoms.U2 - geoms.U1
    if geometry_model == "expanded":
        return x, 0.0, velocity_terms(geoms)
    return x, phase_pair(geoms, cfg, RedshiftParams(0.0)).s_signal, -x


def _regress(data: PassDataset, design: tuple, scale: float, first: int = 0) -> AlphaEstimate:
    """Fit y through the origin against x (_design) for every set of rows of data;
    a SingularFit counts the batch's leading index from first."""
    x, offset, terms = design
    phi_sc, sig_sc, phi_gs, sig_gs = np.moveaxis(data.phase_measurements, -1, 0)
    y = (phi_sc - 0.5 * phi_gs - offset) / scale - terms
    weights = scale**2 / (sig_sc**2 + 0.25 * sig_gs**2)  # of y, in signal-fraction units

    leverage = np.sum(weights * x * x, axis=-1)
    reject(~(np.isfinite(leverage) & (leverage > 0.0)), SingularFit,
           "no leverage ({}): every epoch has U2 = U1 or no usable weight", leverage,
           what="trial", first=first)
    slope = np.sum(weights * x * y, axis=-1) / leverage
    resid = y - slope[..., None] * x
    dof = len(data) - 1
    chi2_per_dof = (np.sum(weights * resid**2, axis=-1) / dof if dof > 0
                    else np.zeros_like(slope))
    # [()] turns the 0-d results of one set of rows into scalars
    return AlphaEstimate(alpha_hat=(slope - 1.0)[()], sigma_alpha=(1.0 / np.sqrt(leverage))[()],
                         chi2_per_dof=chi2_per_dof[()])


@dataclass(frozen=True)
class ForecastScenario:
    """Everything precision_forecast needs to run the full pipeline."""

    gs_trajectory: object
    sc_trajectory: object
    cfg: OpticalConfig
    red: RedshiftParams
    t_start: float
    t_end: float
    n_epochs: int
    scan_points: int = 8
    visibility: float = 1.0
    efficiency: float = 1.0
    dark_rate: float = 0.0


@dataclass(frozen=True)
class ForecastResult:
    """alpha_hat, sigma_alpha and chi2_per_dof are (trials,) arrays holding
    each trial's AlphaEstimate; entry t is trial t."""

    sigma_alpha_empirical: float
    sigma_alpha_analytic: float
    alpha_hat: np.ndarray
    sigma_alpha: np.ndarray
    chi2_per_dof: np.ndarray
    photon_budget: int
    n_per_point: int

    def budget_for_target(self, target_sigma: float) -> float:
        """Photon budget at which sigma_alpha reaches the target (1/sqrt(N))."""
        if self.photon_budget <= 0:
            raise ValueError("run with a positive photon budget to extrapolate")
        if not 0.0 < target_sigma < math.inf:
            raise ValueError(f"target sigma_alpha must be positive and finite, got {target_sigma}")
        return self.photon_budget * (self.sigma_alpha_analytic / target_sigma) ** 2


def precision_forecast(scenario: ForecastScenario, photon_budget: int, trials: int,
                       seed) -> ForecastResult:
    """Monte Carlo spread of the violation estimate at a given photon budget.

    The photon budget is split evenly across epochs, scan points, and the
    two terminals; a positive budget below one pulse per scan point raises
    ValueError (0 runs noiseless). Geometry, true/model phases, the checked
    outcome probabilities of every scan point and the regression's model
    terms are computed once and shared by all trials; only photon noise is
    redrawn. Trial t draws from SeedSequence((seed, t)) alone, so its row
    does not depend on how many trials run. Trials are fitted in blocks of
    at most _BLOCK_POINTS scan points (at least one trial): one FringeScan,
    one fit_phase call and one regression per block, so memory does not
    grow with trials. A failed fit names its scan as [trial, epoch,
    terminal], terminal 0 the spacecraft (phi_sc) and 1 the ground station
    (phi_gs). The empirical spread of alpha-hat across trials should match
    the mean reported sigma_alpha within ~30%.
    """
    if trials < 10:
        raise ValueError("need >= 10 trials for a usable empirical spread")
    pulses = 2 * scenario.n_epochs * scenario.scan_points
    if 0 < photon_budget < pulses:
        raise ValueError(f"photon budget {photon_budget} is below one pulse per scan point "
                         f"({pulses}); use 0 for a noiseless run")
    n_per_point = int(photon_budget // pulses) if photon_budget > 0 else 0
    epochs, geometries = build_pass(scenario.gs_trajectory, scenario.sc_trajectory,
                                    scenario.t_start, scenario.t_end, scenario.n_epochs)
    cfg = scenario.cfg
    truth = phase_pair(geometries, cfg, scenario.red)
    model = phase_pair(geometries, cfg, RedshiftParams(0.0))
    true_phase = np.stack([truth.phi_sc, truth.phi_gs], axis=-1)       # (epochs, terminal)
    model_phase = np.stack([model.phi_sc, model.phi_gs], axis=-1)
    design = _design(geometries, cfg, "expanded")
    offsets = np.linspace(0.0, 2.0 * math.pi, scenario.scan_points, endpoint=False)
    if n_per_point > 0:
        pvals = outcome_probabilities(
            cascade_intensities(true_phase[..., None] + offsets, scenario.visibility),
            scenario.efficiency, scenario.dark_rate)

    block = max(1, _BLOCK_POINTS // pulses)
    estimates = np.empty((3, trials))
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        if n_per_point > 0:
            counts = [draw_counts(pvals, n_per_point, np.random.SeedSequence((seed, t)))
                      for t in range(start, stop)]
            scan = FringeScan(offsets, np.stack(counts), n_per_point)
            fit = fit_phase(scan, first=start)
            # unwrap against the zero-violation model
            phase, sigma = model_phase + _wrap_phase(fit.phi_hat - model_phase), fit.sigma_phi
        else:  # noiseless: one set of rows stands for every trial of the block
            phase, sigma = true_phase, np.full_like(true_phase, _NOISELESS_SIGMA)
        # rows (phi_sc, sigma_sc, phi_gs, sigma_gs) of every trial of the block
        rows = np.stack([phase, sigma], axis=-1).reshape(-1, len(epochs), 4)
        est = _regress(PassDataset(epochs, geometries, rows), design, cfg.phase_scale, first=start)
        estimates[:, start:stop] = est.alpha_hat, est.sigma_alpha, est.chi2_per_dof
    alpha_hat, sigma_alpha, chi2_per_dof = estimates
    return ForecastResult(
        sigma_alpha_empirical=float(np.std(alpha_hat, ddof=1)),
        sigma_alpha_analytic=float(np.mean(sigma_alpha)),
        alpha_hat=alpha_hat,
        sigma_alpha=sigma_alpha,
        chi2_per_dof=chi2_per_dof,
        photon_budget=int(photon_budget),
        n_per_point=n_per_point,
    )
