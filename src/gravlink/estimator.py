"""Violation-parameter regression and Monte Carlo precision forecasting.

The measured combination s = phi_sc - phi_gs/2 at each epoch, less the
zero-violation model s(0) that phase_pair gives for the known geometry,
is alpha times the model's exact derivative ds/dalpha (s is affine in
alpha). A weighted least-squares fit of that residual against
ds/dalpha across a pass yields alpha and its uncertainty
(estimate_alpha): the matched-template estimator. The forecast
(precision_forecast) is photon noise on one built pass: it takes the
pass's LinkGeometry batch and returns one AlphaEstimate of per-trial arrays.

Measured fringe phases are only defined modulo 2*pi while the underlying
Doppler phases reach ~1e6 rad, so the forecast pipeline unwraps each
fitted phase against the zero-violation model prediction (the standard
matched-template assumption; valid while |true - model| < pi, i.e. for
|alpha| well below 1e-2 at these geometries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularFit, reject
from .interferometer import FringeScan, _wrap_phase, draw_counts, fit_phase, outcome_probabilities
# build_pass and build_link_geometry are unused here but stay bound: perfbench's
# tracer resolves estimator.build_pass in this module (the forecast's
# estimator.pass_self_s), and its tracer test reads estimator.build_link_geometry
from .kinematics import LinkGeometry, build_link_geometry, build_pass  # noqa: F401
from .link_model import PhasePair, phase_pair

_NOISELESS_SIGMA = 1e-12  # rad, reported uncertainty when the photon budget is off
# scan points a forecast draws and fits together, which sets its peak memory: 61 trials of
# 25 epochs x 8 points x 2 terminals, chosen from the block sizes README measures
_BLOCK_POINTS = 24576


@dataclass(frozen=True)
class AlphaEstimate:
    """Floats for one set of measurement rows, arrays (...,) for a batch of them."""

    alpha_hat: np.ndarray
    sigma_alpha: np.ndarray
    chi2_per_dof: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.sigma_alpha) <= 0.0):
            raise ValueError("sigma_alpha must be positive")


def estimate_alpha(rows, model: PhasePair, first: int = 0) -> AlphaEstimate:
    """Weighted least-squares estimate of the violation parameter over a pass.

    rows are the measurements (phi_sc, sigma_sc, phi_gs, sigma_gs) in
    radians at each epoch of a pass, as an (epochs, 4) array or a batch
    (..., epochs, 4) of repeated measurements (a forecast's trials) of the
    same pass; phases must be unwrapped (absolute), not fringe-wrapped, and
    every sigma positive. model is the pass's zero-violation
    phase_pair(geometries, scale).

    Per epoch: s = phi_sc - phi_gs/2 with variance sigma_sc^2 +
    sigma_gs^2/4; the model's s_signal is subtracted using the true
    geometry (perfect orbit knowledge), and the residual y is regressed
    through the origin against x = model.ds_dalpha, all in phase units;
    the slope is alpha.

    One set of rows gives floats; a batch gives (...,) arrays, one estimate
    per set. Raises ValueError for rows of the wrong shape or a sigma that
    is not positive, and SingularFit when a set has no leverage (every epoch
    has U2 = U1, or no epoch a finite nonzero weight); in a batch the
    message names the first such set, its leading index counted from first,
    as in "... at trial [3]".
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim < 2 or rows.shape[-1] != 4:
        raise ValueError("measurement rows are (phi_sc, sig_sc, phi_gs, sig_gs)")
    epochs = len(model.s_signal)
    if rows.shape[-2] != epochs:
        raise ValueError(f"{rows.shape[-2]} epochs of measurements must align with "
                         f"{epochs} geometries")
    phi_sc, sig_sc, phi_gs, sig_gs = np.moveaxis(rows, -1, 0)
    if not (np.all(sig_sc > 0.0) and np.all(sig_gs > 0.0)):
        raise ValueError("phase uncertainties must be positive")
    x = model.ds_dalpha
    y = phi_sc - 0.5 * phi_gs - model.s_signal
    weights = 1.0 / (sig_sc**2 + 0.25 * sig_gs**2)

    leverage = np.sum(weights * x * x, axis=-1)
    reject(~(np.isfinite(leverage) & (leverage > 0.0)), SingularFit,
           "no leverage ({}): every epoch has U2 = U1 or no usable weight", leverage,
           what="trial", first=first)
    alpha_hat = np.sum(weights * x * y, axis=-1) / leverage
    resid = y - alpha_hat[..., None] * x
    chi2_per_dof = (np.sum(weights * resid**2, axis=-1) / (epochs - 1) if epochs > 1
                    else np.zeros_like(alpha_hat))
    # [()] turns the 0-d results of one set of rows into scalars
    return AlphaEstimate(alpha_hat=alpha_hat[()], sigma_alpha=(1.0 / np.sqrt(leverage))[()],
                         chi2_per_dof=chi2_per_dof[()])


def precision_forecast(geometries: LinkGeometry, scale: float, alpha: float,
                       photon_budget: int, trials: int, seed, scan_points: int = 8,
                       visibility: float = 1.0, efficiency: float = 1.0,
                       dark_rate: float = 0.0) -> AlphaEstimate:
    """Monte Carlo spread of the violation estimate over one built pass.

    geometries is the pass's LinkGeometry batch (build_pass), scale its
    phase_scale and alpha the injected violation. The photon budget is split
    evenly across epochs, scan points, and the two terminals; a positive
    budget below one pulse per scan point raises ValueError (0 runs
    noiseless). True/model phases and the checked outcome
    probabilities of every scan point are computed once and shared by all
    trials; only photon noise is redrawn, with fringe_scan's noise arguments.
    Trial t draws from SeedSequence((seed, t)) alone, so its row does not
    depend on how many trials run. Trials are fitted in blocks of at most
    _BLOCK_POINTS scan points (at least one trial): one FringeScan, one
    fit_phase call and one estimate_alpha call, against the model the unwrap
    uses, per block, so memory does not grow with trials. A failed fit names its scan
    as [trial, epoch, terminal], terminal 0 the spacecraft (phi_sc) and 1 the
    ground station (phi_gs).

    Returns one AlphaEstimate of (trials,) arrays, entry t for trial t. The
    empirical spread of alpha_hat should match the mean sigma_alpha within
    ~30%.
    """
    if trials < 10:
        raise ValueError("need >= 10 trials for a usable empirical spread")
    pulses = 2 * len(geometries) * scan_points
    if 0 < photon_budget < pulses:
        raise ValueError(f"photon budget {photon_budget} is below one pulse per scan point "
                         f"({pulses}); use 0 for a noiseless run")
    n_per_point = int(photon_budget // pulses) if photon_budget > 0 else 0
    truth = phase_pair(geometries, scale, alpha)
    model = phase_pair(geometries, scale)
    true_phase = np.stack([truth.phi_sc, truth.phi_gs], axis=-1)       # (epochs, terminal)
    model_phase = np.stack([model.phi_sc, model.phi_gs], axis=-1)
    offsets = np.linspace(0.0, 2.0 * math.pi, scan_points, endpoint=False)
    if n_per_point > 0:
        pvals = outcome_probabilities(true_phase[..., None] + offsets, visibility, efficiency,
                                      dark_rate)

    block = max(1, _BLOCK_POINTS // pulses)
    estimates = np.empty((3, trials))
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        if n_per_point > 0:
            counts = np.empty((stop - start, *pvals.shape[:-1], 3), dtype=np.int64)
            for t in range(start, stop):
                counts[t - start] = draw_counts(pvals, n_per_point,
                                                np.random.SeedSequence((seed, t)))
            scan = FringeScan(offsets, counts, n_per_point)
            fit = fit_phase(scan, first=start)
            # unwrap against the zero-violation model
            phase, sigma = model_phase + _wrap_phase(fit.phi_hat - model_phase), fit.sigma_phi
        else:  # noiseless: one set of rows stands for every trial of the block
            phase, sigma = true_phase, np.full_like(true_phase, _NOISELESS_SIGMA)
        # rows (phi_sc, sigma_sc, phi_gs, sigma_gs) of every trial of the block
        rows = np.stack([phase, sigma], axis=-1).reshape(-1, len(geometries), 4)
        est = estimate_alpha(rows, model, first=start)
        estimates[:, start:stop] = est.alpha_hat, est.sigma_alpha, est.chi2_per_dof
    return AlphaEstimate(*estimates)
