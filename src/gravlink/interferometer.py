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


@dataclass(frozen=True)
class PeakIntensities:
    """Per-photon detection probabilities in the three arrival windows
    at one output port (not normalized across ports)."""

    early: float
    central: float
    late: float

    def __post_init__(self):
        for name in ("early", "central", "late"):
            p = getattr(self, name)
            if not 0.0 <= p <= 0.375:
                raise ValueError(f"{name} = {p} outside [0, 3/8]")

    @property
    def total(self) -> float:
        return self.early + self.central + self.late


@dataclass(frozen=True)
class DetectionHistogram:
    """Counts in the three arrival windows for one phase setting."""

    counts_early: int
    counts_central: int
    counts_late: int
    n_sent: int
    phase_setting: float

    def __post_init__(self):
        for name in ("counts_early", "counts_central", "counts_late", "n_sent"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise ValueError(f"{name} must be a non-negative integer, got {v}")
            object.__setattr__(self, name, int(v))
        total = self.counts_early + self.counts_central + self.counts_late
        if total > self.n_sent:
            raise ValueError(f"total counts {total} exceed n_sent {self.n_sent}")


class PhaseFit(NamedTuple):
    phi_hat: float      # rad, wrapped to (-pi, pi]
    sigma_phi: float    # rad
    visibility_hat: float


def cascade_intensities(phi: float, visibility: float = 1.0) -> PeakIntensities:
    """Arrival-window probabilities at the monitored port for phase phi."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    central = 0.125 * (1.0 + visibility * math.cos(phi))
    return PeakIntensities(early=0.0625, central=central, late=0.0625)


def simulate_counts(
    intensities: PeakIntensities,
    n_sent: int,
    link_efficiency: float,
    rng_seed,
    dark_rate: float = 0.0,
    phase_setting: float = 0.0,
) -> DetectionHistogram:
    """Draw shot-noise counts for one phase setting.

    The three windows and the no-detection outcome are drawn as one
    multinomial, so each window's count is binomial(n_sent, p) with
    p = intensity * link_efficiency + dark_rate, and the total can never
    exceed n_sent. dark_rate is the background click probability per
    window per sent pulse. rng_seed may be an int or a numpy Generator.
    """
    if n_sent <= 0:
        raise ValueError("n_sent must be positive")
    if not 0.0 <= link_efficiency <= 1.0:
        raise ValueError(f"link_efficiency must lie in [0, 1], got {link_efficiency}")
    if dark_rate < 0.0:
        raise ValueError("dark_rate must be non-negative")
    probs = np.array(
        [
            intensities.early * link_efficiency + dark_rate,
            intensities.central * link_efficiency + dark_rate,
            intensities.late * link_efficiency + dark_rate,
        ]
    )
    p_any = float(probs.sum())
    if p_any > 1.0:
        raise ValueError(f"window probabilities sum to {p_any:.3f} > 1")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    early, central, late, _ = rng.multinomial(
        n_sent, np.append(probs, 1.0 - p_any)
    )
    return DetectionHistogram(
        counts_early=int(early),
        counts_central=int(central),
        counts_late=int(late),
        n_sent=n_sent,
        phase_setting=phase_setting,
    )


def _check_scan_offsets(phi_offsets: Sequence[float]) -> np.ndarray:
    offsets = np.asarray(phi_offsets, dtype=float)
    if offsets.size < _MIN_SCAN_POINTS:
        raise InsufficientScan(
            f"need >= {_MIN_SCAN_POINTS} scan points, got {offsets.size}"
        )
    span = float(offsets.max() - offsets.min())
    if span < _MIN_SCAN_SPAN:
        raise InsufficientScan(f"scan span {span:.3f} rad must cover >= pi")
    return offsets


def fringe_scan(
    phi_offsets: Sequence[float],
    base_phase: float,
    visibility: float,
    n_per_point: int,
    efficiency: float,
    seed,
    dark_rate: float = 0.0,
) -> list[DetectionHistogram]:
    """Histogram per scan offset at total phase base_phase + offset.

    Each point gets an independent child seed, so points could be drawn
    concurrently without changing the result.
    """
    offsets = _check_scan_offsets(phi_offsets)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = seq.spawn(offsets.size)
    scan = []
    for offset, child in zip(offsets, children):
        inten = cascade_intensities(base_phase + offset, visibility)
        scan.append(
            simulate_counts(
                inten,
                n_per_point,
                efficiency,
                np.random.default_rng(child),
                dark_rate=dark_rate,
                phase_setting=float(offset),
            )
        )
    return scan


def noiseless_scan(
    phi_offsets: Sequence[float],
    base_phase: float,
    visibility: float,
    n_per_point: int,
    efficiency: float = 1.0,
) -> list[DetectionHistogram]:
    """Expected-count histograms (rounded to integers), no shot noise."""
    offsets = _check_scan_offsets(phi_offsets)
    scan = []
    for offset in offsets:
        inten = cascade_intensities(base_phase + offset, visibility)
        scan.append(
            DetectionHistogram(
                counts_early=round(inten.early * efficiency * n_per_point),
                counts_central=round(inten.central * efficiency * n_per_point),
                counts_late=round(inten.late * efficiency * n_per_point),
                n_sent=n_per_point,
                phase_setting=float(offset),
            )
        )
    return scan


def _wrap_phase(phi: float) -> float:
    """Map to (-pi, pi]."""
    wrapped = math.remainder(phi, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def fit_phase(scan: Sequence[DetectionHistogram]) -> PhaseFit:
    """Extract the fringe phase from a scan of central-peak counts.

    The model A (1 + V cos(phi + offset)) is linear in
    (a0, a1, a2) = (A, A V cos phi, -A V sin phi) against the columns
    (1, cos offset, sin offset): the three-parameter sine fit of IEEE Std
    1057. One weighted linear least-squares solve therefore gives the
    optimum without iteration, and V = hypot(a1, a2) / a0,
    phi = atan2(-a2, a1). Each count is binomial(n_sent, p), since
    simulate_counts draws a multinomial, so it is weighted by
    1 / max(c (1 - c / n_sent), 1).

    Returns phi wrapped to (-pi, pi], its 1-sigma uncertainty propagated
    from the coefficient covariance (delta method), and the visibility
    estimate.

    Raises
    ------
    InsufficientScan, DegenerateVisibility (no counts, non-positive
    baseline, or fitted V < 0.05), FitDiverged (singular design or
    unusable covariance; message carries the residuals).
    """
    offsets = _check_scan_offsets([h.phase_setting for h in scan])
    counts = np.array([h.counts_central for h in scan], dtype=float)
    if counts.sum() <= 0:
        raise DegenerateVisibility("no central-peak counts; phase unidentifiable")

    design = np.column_stack([np.ones_like(offsets), np.cos(offsets), np.sin(offsets)])
    n_sent = np.array([h.n_sent for h in scan], dtype=float)
    # each count is binomial(n_sent, p): variance c (1 - c / n_sent)
    root_w = 1.0 / np.sqrt(np.maximum(counts * (1.0 - counts / n_sent), 1.0))
    # whitened least squares by SVD: coef = V S^-1 U^T (root_w counts),
    # covariance (D^T W D)^-1 = V S^-2 V^T
    u, s, vt = np.linalg.svd(root_w[:, None] * design, full_matrices=False)
    if s[-1] <= s[0] * offsets.size * np.finfo(float).eps:
        coef = np.linalg.lstsq(design, counts, rcond=None)[0]
        raise FitDiverged(
            "singular fringe-fit normal matrix; residuals: "
            f"{(counts - design @ coef).tolist()}"
        )
    coef = vt.T @ ((u.T @ (root_w * counts)) / s)
    a0, a1, a2 = (float(c) for c in coef)
    if a0 <= 0.0:
        raise DegenerateVisibility(f"non-positive fringe baseline {a0:.3g}")
    amp = math.hypot(a1, a2)
    vis_hat = amp / a0
    if vis_hat < _MIN_VISIBILITY:
        raise DegenerateVisibility(
            f"fitted visibility {vis_hat:.3f} < {_MIN_VISIBILITY}; phase unidentifiable"
        )
    # d phi / d(a0, a1, a2) = (0, a2, -a1) / (a1^2 + a2^2)
    grad = (vt[:, 1] * a2 - vt[:, 2] * a1) / (amp * amp * s)
    sigma_phi = math.sqrt(float(grad @ grad))
    if not math.isfinite(sigma_phi) or sigma_phi <= 0.0:
        raise FitDiverged(
            f"fit covariance unusable: sigma_phi = {sigma_phi}; residuals: "
            f"{(counts - design @ coef).tolist()}"
        )
    return PhaseFit(
        phi_hat=_wrap_phase(math.atan2(-a2, a1)),
        sigma_phi=sigma_phi,
        visibility_hat=vis_hat,
    )


def serialize_scan(scan: Sequence[DetectionHistogram]) -> str:
    """Columnar text: offset, three window counts, pulses sent."""
    lines = ["# offset_rad counts_early counts_central counts_late n_sent"]
    for h in scan:
        lines.append(
            f"{h.phase_setting:.12e} {h.counts_early} {h.counts_central} "
            f"{h.counts_late} {h.n_sent}"
        )
    return "\n".join(lines) + "\n"
