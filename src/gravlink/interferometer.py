"""Time-bin interferometer cascade: arrival peaks, photon counting, fringe fit.

A photon is split into short/long temporal modes by an unbalanced
interferometer, flies the link, and is recombined by a second one of equal
delay. At one output port the short-short and long-long paths land in
distinguishable early/late windows (amplitude 1/4 each), while the
short-long and long-short paths overlap in the central window and
interfere with relative phase phi:

    early = late = 1/16
    central = (1/8) (1 + V cos phi)

The complementary port carries (1/8)(1 - V cos phi) in its central window,
so both ports plus all windows add to 1/2; the remaining half leaves the
preparation interferometer's unused port and is never detected.

Everything works on batches of scans, as kinematics does on batches of
epochs. Window probabilities and counts hold (early, central, late) on
their last axis. A FringeScan holds a batch of scans over one set of phase
offsets: offsets (P,) and counts (..., P, 3). fit_phase fits every scan of
the batch at once and returns (...,) arrays; one scan, counts (P, 3), gives
scalars. A batch error names the first failing scan by its batch index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateVisibility, FitDiverged, InsufficientScan

_MIN_SCAN_POINTS = 4
_MIN_SCAN_SPAN = math.pi - 1e-9
_MIN_VISIBILITY = 0.05


def _check_scan_offsets(phi_offsets: Sequence[float]) -> np.ndarray:
    offsets = np.asarray(phi_offsets, dtype=float)
    if offsets.ndim != 1 or offsets.size < _MIN_SCAN_POINTS:
        raise InsufficientScan(
            f"need >= {_MIN_SCAN_POINTS} scan points, got {offsets.size}"
        )
    # the phase the offsets cover: 2 pi less the widest gap between neighbours on
    # the circle (max - min for the gap across 0), so a wrapped scan is not a wide one
    wrapped = np.sort(offsets % (2.0 * math.pi))
    span = float(min(wrapped[-1] - wrapped[0], 2.0 * math.pi - (wrapped[1:] - wrapped[:-1]).max()))
    if span < _MIN_SCAN_SPAN:
        raise InsufficientScan(f"scan span {span:.3f} rad must cover >= pi")
    return offsets


def _reject_scan(bad, error, text: str, *values) -> None:
    """Raise error(text formatted with the values) at the first scan flagged in
    bad; in a batch of several scans the message names its index."""
    if bad.any():
        i = np.unravel_index(np.argmax(bad), np.shape(bad))
        where = f" at scan [{', '.join(str(int(k)) for k in i)}]" if np.size(bad) > 1 else ""
        raise error(text.format(*(np.asarray(v)[i].tolist() for v in values)) + where)


@dataclass(frozen=True)
class FringeScan:
    """Window counts of a batch of fringe scans over shared phase offsets.

    offsets : rad, (P,); counts : (..., P, 3) non-negative integers in the
    early, central and late windows; n_sent : pulses sent per scan point.
    Raises InsufficientScan for fewer than 4 offsets or a circle coverage below pi.
    """

    offsets: np.ndarray
    counts: np.ndarray
    n_sent: int

    def __post_init__(self):
        offsets = _check_scan_offsets(self.offsets)
        counts = np.asarray(self.counts)
        if counts.shape[-2:] != (offsets.size, 3):
            raise ValueError(f"counts of shape {counts.shape} must end in ({offsets.size}, 3)")
        ints = counts.astype(np.int64)
        if (ints < 0).any() or (ints != counts).any():
            raise ValueError("counts must be non-negative integers")
        total = int(ints.sum(axis=-1).max(initial=0))
        if total > self.n_sent:
            raise ValueError(f"total counts {total} exceed n_sent {self.n_sent}")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "counts", ints)
        object.__setattr__(self, "n_sent", int(self.n_sent))


class PhaseFit(NamedTuple):
    phi_hat: np.ndarray        # rad, (...,), wrapped to (-pi, pi]
    sigma_phi: np.ndarray      # rad, (...,)
    visibility_hat: np.ndarray  # (...,)


def cascade_intensities(phi, visibility: float = 1.0) -> np.ndarray:
    """Arrival-window probabilities (..., 3) at the monitored port for the
    phase(s) phi (...,): early, central, late (not normalized across ports)."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    central = 0.125 * (1.0 + visibility * np.cos(np.asarray(phi, dtype=float)))
    side = np.full_like(central, 0.0625)
    return np.stack([side, central, side], axis=-1)


def simulate_counts(
    intensities,
    n_sent: int,
    link_efficiency: float,
    rng,
    dark_rate: float = 0.0,
) -> np.ndarray:
    """Draw shot-noise counts (..., 3) for window intensities (..., 3) in one call.

    Each setting's three windows and its no-detection outcome are one
    multinomial, so each window's count is binomial(n_sent, p) with
    p = intensity * link_efficiency + dark_rate, and no setting's total can
    exceed n_sent. dark_rate is the background click probability per window
    per sent pulse. Intensities must lie in [0, 3/8]. rng is a numpy
    Generator or anything default_rng takes (an int, a tuple of ints, a
    SeedSequence); the settings are drawn in C order.
    """
    if n_sent <= 0:
        raise ValueError("n_sent must be positive")
    if not 0.0 <= link_efficiency <= 1.0:
        raise ValueError(f"link_efficiency must lie in [0, 1], got {link_efficiency}")
    if dark_rate < 0.0:
        raise ValueError("dark_rate must be non-negative")
    inten = np.asarray(intensities, dtype=float)
    if ((inten < 0.0) | (inten > 0.375)).any():
        raise ValueError("window intensities must lie in [0, 3/8]")
    probs = inten * link_efficiency + dark_rate
    p_any = probs.sum(axis=-1, keepdims=True)
    if (p_any > 1.0).any():
        raise ValueError(f"window probabilities sum to {p_any.max():.3f} > 1")
    pvals = np.concatenate([probs, 1.0 - p_any], axis=-1)
    return np.random.default_rng(rng).multinomial(n_sent, pvals)[..., :3]


def fringe_scan(
    phi_offsets: Sequence[float],
    base_phase,
    visibility: float,
    n_per_point: int,
    efficiency: float,
    seed,
    dark_rate: float = 0.0,
) -> FringeScan:
    """A batch of scans at total phase base_phase + offset.

    base_phase is a float or an array (...,); the counts are (..., P, 3),
    the batch axes of base_phase first. One multinomial draw of one
    Generator, default_rng(seed), gives every count in C order: batch axes,
    then scan point, then window.
    """
    offsets = np.asarray(phi_offsets, dtype=float)
    phases = np.asarray(base_phase, dtype=float)[..., None] + offsets
    counts = simulate_counts(cascade_intensities(phases, visibility), n_per_point,
                             efficiency, seed, dark_rate=dark_rate)
    return FringeScan(offsets, counts, n_per_point)


def noiseless_scan(
    phi_offsets: Sequence[float],
    base_phase,
    visibility: float,
    n_per_point: int,
    efficiency: float = 1.0,
) -> FringeScan:
    """Expected counts rounded to integers, no shot noise; shapes as fringe_scan."""
    offsets = np.asarray(phi_offsets, dtype=float)
    inten = cascade_intensities(np.asarray(base_phase, dtype=float)[..., None] + offsets,
                                visibility)
    return FringeScan(offsets, np.rint(inten * efficiency * n_per_point), n_per_point)


def _wrap_phase(phi):
    """Map to (-pi, pi]. Exact: fmod rounds nothing, and neither do the 2*pi
    shifts of values already within a factor two of 2*pi."""
    r = np.fmod(phi, 2.0 * np.pi)
    return r - 2.0 * np.pi * (r > np.pi) + 2.0 * np.pi * (r <= -np.pi)


def fit_phase(scan: FringeScan) -> PhaseFit:
    """Extract the fringe phase of every scan of a batch from its central-peak counts.

    The model A (1 + V cos(phi + offset)) is linear in
    (a0, a1, a2) = (A, A V cos phi, -A V sin phi) against the columns
    (1, cos offset, sin offset): the three-parameter sine fit of IEEE Std
    1057. One weighted linear least-squares solve per scan therefore gives
    the optimum without iteration, and V = hypot(a1, a2) / a0,
    phi = atan2(-a2, a1). Each count is binomial(n_sent, p), since
    simulate_counts draws a multinomial, so it is weighted by
    1 / max(c (1 - c / n_sent), 1). All scans are solved together through
    their 3x3 weighted normal systems, written in an orthonormal basis of
    the shared design, which matches a per-scan SVD solve to ~1e-13 rad.

    Returns phi wrapped to (-pi, pi], its 1-sigma uncertainty propagated
    from the coefficient covariance (delta method), and the visibility
    estimate, each of the scan batch's shape.

    Raises
    ------
    DegenerateVisibility (no counts, non-positive baseline, or fitted
    V < 0.05), FitDiverged (singular design or unusable covariance; message
    carries the residuals). In a batch the message names the first failing
    scan.
    """
    offsets = scan.offsets
    counts = scan.counts[..., 1].astype(float)
    _reject_scan(counts.sum(axis=-1) <= 0, DegenerateVisibility,
                 "no central-peak counts; phase unidentifiable")

    # every scan shares the design D = U S V^T, so one SVD of it finds a singular
    # one, and solving in the orthonormal basis U leaves only the weights'
    # spread in the normal matrices, not the conditioning of a clustered scan
    design = np.stack([np.ones_like(offsets), np.cos(offsets), np.sin(offsets)], axis=-1)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] <= s[0] * offsets.size * np.finfo(float).eps:
        resid = counts - counts @ (design @ np.linalg.pinv(design))
        _reject_scan(np.ones(counts.shape[:-1], dtype=bool), FitDiverged,
                     "singular fringe-fit normal matrix; residuals: {}", resid)
    # each count is binomial(n_sent, p): variance c (1 - c / n_sent)
    w = 1.0 / np.maximum(counts * (1.0 - counts / scan.n_sent), 1.0)
    # (U^T W U) b = U^T W c per scan, coef = V S^-1 b; covariance of b is (U^T W U)^-1
    cov = np.linalg.inv(np.einsum("...p,pij->...ij", w, u[:, :, None] * u[:, None, :]))
    b = np.einsum("...ij,...j->...i", cov, (w * counts) @ u)
    coef = (b / s) @ vt
    a0, a1, a2 = coef[..., 0], coef[..., 1], coef[..., 2]
    _reject_scan(a0 <= 0.0, DegenerateVisibility, "non-positive fringe baseline {:.3g}", a0)
    amp2 = a1 * a1 + a2 * a2
    vis_hat = np.sqrt(amp2) / a0
    _reject_scan(vis_hat < _MIN_VISIBILITY, DegenerateVisibility,
                 f"fitted visibility {{:.3f}} < {_MIN_VISIBILITY}; phase unidentifiable", vis_hat)
    # d phi / d(a0, a1, a2) = (0, a2, -a1) / (a1^2 + a2^2), taken to the basis of b
    grad = (a2[..., None] * vt[:, 1] - a1[..., None] * vt[:, 2]) / (amp2[..., None] * s)
    sigma_phi = np.sqrt(np.einsum("...i,...ij,...j->...", grad, cov, grad))
    _reject_scan(~(np.isfinite(sigma_phi) & (sigma_phi > 0.0)), FitDiverged,
                 "fit covariance unusable: sigma_phi = {}; residuals: {}", sigma_phi,
                 counts - b @ u.T)
    # [()] turns the 0-d results of a single scan into scalars
    return PhaseFit(_wrap_phase(np.arctan2(-a2, a1))[()], sigma_phi[()], vis_hat[()])

