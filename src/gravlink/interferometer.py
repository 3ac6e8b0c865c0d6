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
preparation interferometer's unused port and is never detected. With link
efficiency eta and a dark-click probability d per window per sent pulse,
outcome_probabilities gives each setting's early, central and late clicks,
eta/16 + d, (eta/8)(1 + V cos phi) + d and eta/16 + d, then no detection.

Everything works on batches of scans, as kinematics does on batches of
epochs. Outcome probabilities hold (early, central, late, none) on their
last axis, and counts (early, central, late). A FringeScan holds a batch of
scans over one set of phase offsets: offsets (P,) and counts (..., P, 3).
fit_phase fits every scan of the batch at once and returns (...,) arrays;
one scan, counts (P, 3), gives scalars. An error in a batch names the
first failing scan, as in "... at scan [3, 1]"; one scan keeps the bare
message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateVisibility, FitDiverged, InsufficientScan, reject

_MIN_SCAN_POINTS = 4
_MIN_SCAN_SPAN = math.pi - 1e-9
_MIN_VISIBILITY = 0.05


def _check_n_sent(n_sent) -> int:
    """n_sent as an int: a positive integer (int or numpy integer, not bool) below 2**63."""
    if isinstance(n_sent, bool) or not isinstance(n_sent, (int, np.integer)) \
            or not 0 < int(n_sent) < 2**63:
        raise ValueError(f"n_sent must be a positive integer below 2**63, got {n_sent!r}")
    return int(n_sent)


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


@dataclass(frozen=True)
class FringeScan:
    """Window counts of a batch of fringe scans over shared phase offsets.

    offsets : rad, (P,); counts : (..., P, 3) non-negative integers in the early, central
    and late windows; n_sent : pulses sent per scan point, a positive integer below 2**63.
    Raises InsufficientScan for fewer than 4 offsets or a circle coverage below pi.
    """

    offsets: np.ndarray
    counts: np.ndarray
    n_sent: int

    def __post_init__(self):
        offsets = _check_scan_offsets(self.offsets)
        n_sent = _check_n_sent(self.n_sent)
        counts = np.asarray(self.counts)
        if counts.shape[-2:] != (offsets.size, 3):
            raise ValueError(f"counts of shape {counts.shape} must end in ({offsets.size}, 3)")
        try:  # int64 (every draw) is kept, other dtypes cast exactly; nan, inf or a float
            # past int64 is refused before the cast would warn, an object int past int64 by it
            ints = counts if counts.dtype == np.int64 else counts.astype(np.int64) if (
                counts.dtype.kind != "f" or (np.abs(counts) < 2.0**63).all()) else None
        except (OverflowError, TypeError, ValueError):
            ints = None
        if ints is None or not (ints is counts or (ints == counts).all()) or (ints < 0).any():
            raise ValueError("counts must be non-negative integers")
        wide = ints.max(initial=0) >= 2**63 // 3  # three such counts may wrap an int64 sum
        # added window by window: a sum over the 3-long last axis takes ten times as long
        early, central, late = np.moveaxis(ints.astype(object) if wide else ints, -1, 0)
        total = int((early + central + late).max(initial=0))
        if total > n_sent:
            raise ValueError(f"total counts {total} exceed n_sent {n_sent}")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "counts", ints)
        object.__setattr__(self, "n_sent", n_sent)


class PhaseFit(NamedTuple):
    phi_hat: np.ndarray        # rad, (...,), wrapped to (-pi, pi]
    sigma_phi: np.ndarray      # rad, (...,)
    visibility_hat: np.ndarray  # (...,)


def outcome_probabilities(phi, visibility: float, efficiency: float,
                          dark_rate: float = 0.0) -> np.ndarray:
    """Multinomial probabilities (..., 4) of the early, central and late windows and
    of no detection at the fringe phase(s) phi (...,), as the module docstring gives
    them. ValueError unless every phase is finite, visibility and efficiency lie in
    [0, 1], dark_rate >= 0 and each setting's window probabilities sum to <= 1."""
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("fringe phase must be finite")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency}")
    if not dark_rate >= 0.0:
        raise ValueError("dark_rate must be non-negative")
    central = 0.125 * (1.0 + visibility * np.cos(phi))
    side = np.full_like(central, 0.0625)
    probs = np.stack([side, central, side], axis=-1) * efficiency + dark_rate
    p_any = probs.sum(axis=-1, keepdims=True)
    if (p_any > 1.0).any():
        raise ValueError(f"window probabilities sum to {p_any.max():.3f} > 1")
    return np.concatenate([probs, 1.0 - p_any], axis=-1)


def draw_counts(pvals, n_sent: int, rng) -> np.ndarray:
    """Window counts (..., 3) of n_sent pulses per setting, outcome probabilities (..., 4).

    Each setting's three windows and its no-detection outcome are one multinomial, so
    each window's count is binomial(n_sent, p) and no setting's total can exceed n_sent,
    a positive integer below 2**63 (ValueError otherwise). rng is a numpy Generator or
    anything default_rng takes (an int, a tuple of ints, a SeedSequence); one multinomial
    call draws every setting in C order.
    """
    return np.random.default_rng(rng).multinomial(_check_n_sent(n_sent), pvals)[..., :3]


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
    pvals = outcome_probabilities(phases, visibility, efficiency, dark_rate)
    counts = draw_counts(pvals, n_per_point, seed)
    return FringeScan(offsets, counts, n_per_point)


def _wrap_phase(phi):
    """Map to (-pi, pi]. Exact: fmod rounds nothing, and neither do the 2*pi
    shifts of values already within a factor two of 2*pi."""
    r = np.fmod(phi, 2.0 * np.pi)
    return r - 2.0 * np.pi * (r > np.pi) + 2.0 * np.pi * (r <= -np.pi)


def fit_phase(scan: FringeScan, first: int = 0) -> PhaseFit:
    """Extract the fringe phase of every scan of a batch from its central-peak counts.

    The model A (1 + V cos(phi + offset)) is linear in
    (a0, a1, a2) = (A, A V cos phi, -A V sin phi) against the columns
    (1, cos offset, sin offset): the three-parameter sine fit of IEEE Std
    1057. One weighted linear least-squares solve per scan therefore gives
    the optimum without iteration, and V = hypot(a1, a2) / a0,
    phi = atan2(-a2, a1). Each count is binomial(n_sent, p), since
    draw_counts draws a multinomial, so it is weighted by
    1 / max(c (1 - c / n_sent), 1). All scans are solved together through
    their 3x3 weighted normal systems in an orthonormal basis of the shared
    design, inverted in closed form (the adjugate): within 1e-12 of LAPACK's
    inverse while max w / min w < 4500, and eps * max w / min w beyond.

    Returns phi wrapped to (-pi, pi], its 1-sigma uncertainty propagated
    from the coefficient covariance (delta method), and the visibility
    estimate, each of the scan batch's shape.

    Raises
    ------
    DegenerateVisibility (no counts, non-positive baseline, or fitted
    V < 0.05), FitDiverged (singular design or unusable covariance; message
    carries the residuals). In a batch the message names the first failing
    scan, its leading index counted from first (the index of this batch's first
    entry in a larger batch cut into blocks).
    """
    reject_scan = partial(reject, what="scan", first=first)
    offsets = scan.offsets
    central = scan.counts[..., 1]
    # points first, C order: both contractions below then read the weights in place
    counts = np.moveaxis(central, -1, 0).astype(float, order="C")
    reject_scan(~(counts > 0.0).any(axis=0), DegenerateVisibility,
                "no central-peak counts; phase unidentifiable")

    # every scan shares the design D = U S V^T, so one SVD of it finds a singular
    # one, and solving in the orthonormal basis U leaves only the weights'
    # spread in the normal matrices, not the conditioning of a clustered scan
    design = np.stack([np.ones_like(offsets), np.cos(offsets), np.sin(offsets)], axis=-1)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] <= s[0] * offsets.size * np.finfo(float).eps:
        resid = central - central.astype(float) @ (design @ np.linalg.pinv(design))
        reject_scan(np.ones(central.shape[:-1], dtype=bool), FitDiverged,
                    "singular fringe-fit normal matrix; residuals: {}", resid)
    # each count is binomial(n_sent, p): variance c (1 - c / n_sent)
    w = counts * (1.0 - counts / scan.n_sent)
    w = np.divide(1.0, np.maximum(w, 1.0, out=w), out=w)
    # M b = U^T W c per scan (M = U^T W U, coef = V S^-1 b); b's covariance M^-1 = adj M / det M
    # exactly, from M's six entries. M's eigenvalues lie in [min w, max w] (U orthonormal), so
    # like LAPACK's inverse it loses up to log10(max w / min w) digits. adj(adj M) = det(M) M
    # gives det = sum(2x2 principal minors of adj M) / trace M; a row expansion lost 500x more
    counts *= w  # W c; each (points, ...) array, and then M, is deleted once it is used
    x0, x1, x2 = np.tensordot(u, counts, (0, 0))
    del counts
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = np.tensordot(u.T[:, None] * u.T, w, (2, 0))
    c00, c01, c02 = m11 * m22 - m12 * m12, m02 * m12 - m01 * m22, m01 * m12 - m02 * m11
    c11, c12, c22 = m00 * m22 - m02 * m02, m01 * m02 - m00 * m12, m00 * m11 - m01 * m01
    adj = ((c00, c01, c02), (c01, c11, c12), (c02, c12, c22))
    det = (c00 * c11 - c01**2 + c00 * c22 - c02**2 + c11 * c22 - c12**2) / (m00 + m11 + m22)
    del w, m00, m01, m02, m11, m12, m22, _
    b = np.stack([r0 * x0 + r1 * x1 + r2 * x2 for r0, r1, r2 in adj]) / det  # (3, ...)
    a0, a1, a2 = np.tensordot(vt / s[:, None], b, (0, 0))
    reject_scan(a0 <= 0.0, DegenerateVisibility, "non-positive fringe baseline {:.3g}", a0)
    amp2 = a1 * a1 + a2 * a2
    vis_hat = np.sqrt(amp2) / a0
    reject_scan(vis_hat < _MIN_VISIBILITY, DegenerateVisibility,
                f"fitted visibility {{:.3f}} < {_MIN_VISIBILITY}; phase unidentifiable", vis_hat)
    # d phi / d(a0, a1, a2) = (0, a2, -a1) / (a1^2 + a2^2), taken to the basis of b
    g = (np.multiply.outer(vt[:, 1] / s, a2) - np.multiply.outer(vt[:, 2] / s, a1)) / amp2
    q0, q1, q2 = (r0 * g[0] + r1 * g[1] + r2 * g[2] for r0, r1, r2 in adj)
    sigma_phi = np.sqrt((g[0] * q0 + g[1] * q1 + g[2] * q2) / det)
    unusable = ~(np.isfinite(sigma_phi) & (sigma_phi > 0.0))
    if unusable.any():  # the residuals are formed only for the message
        reject_scan(unusable, FitDiverged, "fit covariance unusable: sigma_phi = {}; "
                    "residuals: {}", sigma_phi, central - np.tensordot(b, u, (0, 1)))
    # [()] turns the 0-d results of a single scan into scalars
    return PhaseFit(_wrap_phase(np.arctan2(-a2, a1))[()], sigma_phi[()], vis_hat[()])

