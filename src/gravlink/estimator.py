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

from .errors import SingularFit
from .interferometer import _wrap_phase, fit_phase, fringe_scan
from .kinematics import LinkGeometry, build_link_geometry
from .link_model import (
    OpticalConfig,
    PhasePair,
    RedshiftParams,
    expanded_signal,
    phase_pair,
    roundtrip_fractional_shift,
    velocity_terms,
)

_SIGMA_FLOOR = 1e-15      # rad, keeps noiseless datasets within the sigma > 0 contract
_NOISELESS_SIGMA = 1e-12  # rad, reported uncertainty when the photon budget is off


@dataclass(frozen=True)
class PassDataset:
    """Link geometry plus measured phases over the epochs of a pass.

    geometries is a LinkGeometry batch; phase_measurements rows are
    (phi_sc, sigma_sc, phi_gs, sigma_gs) in radians, one per epoch; phases
    must be unwrapped (absolute), not fringe-wrapped.
    """

    epochs: np.ndarray
    geometries: LinkGeometry
    phase_measurements: np.ndarray

    def __post_init__(self):
        if not (len(self.epochs) == len(self.geometries) == len(self.phase_measurements)):
            raise ValueError("epochs, geometries, and measurements must align")
        rows = np.asarray(self.phase_measurements, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise ValueError("measurement rows are (phi_sc, sig_sc, phi_gs, sig_gs)")
        if np.any(rows[:, 1] <= 0.0) or np.any(rows[:, 3] <= 0.0):
            raise ValueError("phase uncertainties must be positive")
        object.__setattr__(self, "epochs", np.asarray(self.epochs, dtype=float))
        object.__setattr__(self, "phase_measurements", rows)

    def __len__(self) -> int:
        return len(self.epochs)


@dataclass(frozen=True)
class AlphaEstimate:
    alpha_hat: float
    sigma_alpha: float
    chi2_per_dof: float

    def __post_init__(self):
        if self.sigma_alpha <= 0.0:
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

    Raises SingularFit when every epoch has U2 = U1 (no leverage).
    """
    if geometry_model not in ("expanded", "exact"):
        raise ValueError(f"unknown geometry model '{geometry_model}'")
    scale = cfg.phase_scale
    geoms = data.geometries
    phi_sc, sig_sc, phi_gs, sig_gs = data.phase_measurements.T
    x = geoms.U2 - geoms.U1
    s_meas = phi_sc - 0.5 * phi_gs
    if geometry_model == "expanded":
        y = s_meas / scale - velocity_terms(geoms)
    else:
        s_model = phase_pair(geoms, cfg, RedshiftParams(0.0)).s_signal
        y = (s_meas - s_model) / scale + x
    var_s = sig_sc**2 + 0.25 * sig_gs**2
    weights = scale**2 / var_s   # weight of y in signal-fraction units

    leverage = float(np.sum(weights * x * x))
    if leverage <= 0.0 or not math.isfinite(leverage):
        raise SingularFit("all epochs have U2 = U1; potential difference carries no signal")
    slope = float(np.sum(weights * x * y)) / leverage
    sigma_alpha = 1.0 / math.sqrt(leverage)
    resid = y - slope * x
    dof = len(data) - 1
    chi2_per_dof = float(np.sum(weights * resid**2) / dof) if dof > 0 else 0.0
    return AlphaEstimate(
        alpha_hat=slope - 1.0,
        sigma_alpha=sigma_alpha,
        chi2_per_dof=chi2_per_dof,
    )


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
        return self.photon_budget * (self.sigma_alpha_analytic / target_sigma) ** 2


def run_forecast_trial(
    truth: PhasePair,
    model_pairs: PhasePair,
    epochs: np.ndarray,
    geometries: LinkGeometry,
    cfg: OpticalConfig,
    scenario: ForecastScenario,
    n_per_point: int,
    trial_seed,
) -> AlphaEstimate:
    """One end-to-end trial: fringe scans at both terminals, phase fits,
    unwrap against the zero-violation model, regression.

    truth and model_pairs hold the true and zero-violation phases of every
    epoch of the geometry batch. The trial's scans form one (epoch,
    terminal) batch, terminal 0 the spacecraft (phi_sc) and 1 the ground
    station (phi_gs): one multinomial draw of default_rng(SeedSequence(
    trial_seed)) gives all their counts, one fit_phase call fits them, and a
    failed fit names its scan as [epoch, terminal]."""
    true_phase = np.stack([truth.phi_sc, truth.phi_gs], axis=-1)
    if n_per_point > 0:
        offsets = np.linspace(0.0, 2.0 * math.pi, scenario.scan_points, endpoint=False)
        scan = fringe_scan(offsets, true_phase, scenario.visibility, n_per_point,
                           scenario.efficiency, np.random.SeedSequence(trial_seed),
                           dark_rate=scenario.dark_rate)
        fit = fit_phase(scan)
        model = np.stack([model_pairs.phi_sc, model_pairs.phi_gs], axis=-1)
        phase, sigma = model + _wrap_phase(fit.phi_hat - model), fit.sigma_phi
    else:
        phase, sigma = true_phase, np.full_like(true_phase, _NOISELESS_SIGMA)
    # rows (phi_sc, sigma_sc, phi_gs, sigma_gs)
    rows = np.stack([phase, sigma], axis=-1).reshape(len(epochs), 4)
    dataset = PassDataset(epochs=epochs, geometries=geometries, phase_measurements=rows)
    return estimate_alpha(dataset, cfg)


def precision_forecast(
    scenario: ForecastScenario,
    photon_budget: int,
    trials: int,
    seed,
) -> ForecastResult:
    """Monte Carlo spread of the violation estimate at a given photon budget.

    The photon budget is split evenly across epochs, scan points, and the
    two terminals; a positive budget below one pulse per scan point raises
    ValueError (0 runs noiseless). Geometry and true/model phases are
    computed once and shared by all trials; only photon noise is redrawn.
    Trial t draws from SeedSequence((seed, t)) alone, so its row does not
    depend on how many trials run. The empirical spread of alpha-hat across
    trials should match the mean reported sigma_alpha within ~30%.
    """
    if trials < 10:
        raise ValueError("need >= 10 trials for a usable empirical spread")
    pulses = 2 * scenario.n_epochs * scenario.scan_points
    if 0 < photon_budget < pulses:
        raise ValueError(f"photon budget {photon_budget} is below one pulse per scan point "
                         f"({pulses}); use 0 for a noiseless run")
    n_per_point = int(photon_budget // pulses) if photon_budget > 0 else 0
    epochs, geometries = build_pass(
        scenario.gs_trajectory, scenario.sc_trajectory,
        scenario.t_start, scenario.t_end, scenario.n_epochs,
    )
    truth = phase_pair(geometries, scenario.cfg, scenario.red)
    model_pairs = phase_pair(geometries, scenario.cfg, RedshiftParams(0.0))

    estimates = np.empty((3, trials))
    for t in range(trials):
        est = run_forecast_trial(
            truth, model_pairs, epochs, geometries, scenario.cfg,
            scenario, n_per_point, (seed, t),
        )
        estimates[:, t] = est.alpha_hat, est.sigma_alpha, est.chi2_per_dof
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

