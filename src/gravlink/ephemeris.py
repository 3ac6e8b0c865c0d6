"""Satellite ephemeris ingestion and interpolation.

Reads a simplified CPF-style prediction format: header lines whose first
token is ``H<digit>`` are kept verbatim as the table's source block, and
position records are lines of exactly eight whitespace-separated tokens

    10 <flag> <mjd> <seconds-of-day> <leap-flag> <x> <y> <z>

with coordinates in meters, Earth-fixed frame. Every other line is ignored.
Interpolation is windowed Lagrange on position with the analytic derivative
for velocity, rotated into the inertial frame that coincides with the
Earth-fixed frame at the first record's epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import OMEGA_EARTH, SECONDS_PER_DAY
from .errors import (
    EmptyEphemeris,
    InsufficientRecords,
    MalformedRecord,
    NonMonotonicTime,
    OutOfRange,
    reject,
)
from .kinematics import StateVector, _epochs, earth_rotation_vector, rotate_z

_RECORD_FIELDS = 8
_POS_MIN = 6.4e6   # m, below any tracked orbit
_POS_MAX = 5.0e8   # m, beyond cislunar range
_MAX_WINDOW = 8    # interpolation nodes (see window note in interpolate_state)


@dataclass(frozen=True)
class EphemerisRecord:
    """One tabulated position sample.

    Attributes
    ----------
    mjd : int
        Modified Julian Day of the sample.
    sod : float
        Seconds of day, 0 <= sod < 86400.
    position : tuple of 3 floats
        Earth-fixed position in meters.
    """

    mjd: int
    sod: float
    position: tuple[float, float, float]

    def epoch_seconds(self) -> float:
        """Continuous epoch in seconds (mjd folded in)."""
        return self.mjd * SECONDS_PER_DAY + self.sod


@dataclass(frozen=True)
class EphemerisTable:
    """Immutable ordered collection of position records.

    ``source`` holds the verbatim header block (newline-joined header
    lines) so that serialization round-trips exactly. Positions are
    Earth-fixed.
    """

    records: tuple[EphemerisRecord, ...]
    source: str = ""

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def span_seconds(self) -> float:
        """Length of the covered interval [s]."""
        return float(self.relative_epochs[-1])

    @cached_property
    def relative_epochs(self) -> np.ndarray:
        """Record epochs in seconds since the first record (cached, read-only)."""
        t0 = self.records[0].epoch_seconds()
        return _read_only(np.array([r.epoch_seconds() - t0 for r in self.records]))

    @cached_property
    def positions(self) -> np.ndarray:
        """Earth-fixed record positions (n_records, 3) [m] (cached, read-only)."""
        return _read_only(np.array([r.position for r in self.records], dtype=float))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def parse_cpf(text: str) -> EphemerisTable:
    """Parse simplified CPF text into an EphemerisTable.

    Parameters
    ----------
    text : str
        Line-oriented input. Lines whose first token is "10" must carry
        exactly eight tokens (see module docstring); header lines
        ("H1", "H2", ...) are captured; anything else is skipped.

    Raises
    ------
    MalformedRecord
        A "10" line with the wrong field count, a non-numeric field,
        seconds-of-day outside [0, 86400), or a position magnitude
        outside the 6.4e6..5e8 m sanity window. Carries the line number.
    NonMonotonicTime
        Record epochs not strictly increasing. Carries the line number.
    EmptyEphemeris
        No valid position record found.
    """
    records: list[EphemerisRecord] = []
    headers: list[str] = []
    last_epoch = -math.inf
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        tag = tokens[0]
        if len(tag) == 2 and tag[0] in "Hh" and tag[1].isdigit():
            headers.append(raw.strip())
            continue
        if tag != "10":
            continue
        if len(tokens) != _RECORD_FIELDS:
            raise MalformedRecord(
                line_no, f"expected {_RECORD_FIELDS} fields, got {len(tokens)}"
            )
        try:
            mjd = int(tokens[2])
            sod = float(tokens[3])
            int(tokens[1])  # flag, parsed for shape then dropped
            int(tokens[4])  # leap-second flag, parsed then dropped
            pos = (float(tokens[5]), float(tokens[6]), float(tokens[7]))
        except ValueError as exc:
            raise MalformedRecord(line_no, f"non-numeric field: {exc}") from None
        if not 0.0 <= sod < SECONDS_PER_DAY:
            raise MalformedRecord(line_no, f"seconds-of-day {sod} outside [0, 86400)")
        mag = math.hypot(*pos)
        if not _POS_MIN <= mag <= _POS_MAX:
            raise MalformedRecord(
                line_no,
                f"|position| = {mag:.3e} m outside sanity window "
                f"[{_POS_MIN:.1e}, {_POS_MAX:.1e}]",
            )
        epoch = mjd * SECONDS_PER_DAY + sod
        if epoch <= last_epoch:
            raise NonMonotonicTime(line_no, "record epochs must strictly increase")
        last_epoch = epoch
        records.append(EphemerisRecord(mjd=mjd, sod=sod, position=pos))
    if not records:
        raise EmptyEphemeris("no valid position records in input")
    return EphemerisTable(records=tuple(records), source="\n".join(headers))


def serialize_cpf(table: EphemerisTable) -> str:
    """Render a table back to text; parse_cpf(serialize_cpf(t)) == t."""
    lines = []
    if table.source:
        lines.extend(table.source.splitlines())
    for rec in table.records:
        x, y, z = rec.position
        lines.append(f"10 0 {rec.mjd} {rec.sod:.17g} 0 {x:.17g} {y:.17g} {z:.17g}")
    return "\n".join(lines) + "\n"


def _lagrange_basis(t: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange basis values and first derivatives at t (N,) over node windows (N, w).

    First barycentric form L_j(t) = w_j prod_{k != j} (t - x_k) with weights
    w_j = 1 / prod_{k != j} (x_j - x_k) (Berrut & Trefethen, SIAM Review 46,
    501, 2004), and L_j' by the product rule. Nothing divides by t - x_j, so
    a query next to a node keeps full accuracy; on a node x_j the two
    products of L_j are the same, so the basis is exactly the unit vector.
    """
    offsets = t[:, None] - nodes
    values = np.ones_like(offsets)
    derivs = np.zeros_like(offsets)
    denoms = np.ones_like(offsets)
    for k in range(nodes.shape[1]):
        j = np.arange(nodes.shape[1]) != k
        derivs[:, j] = derivs[:, j] * offsets[:, k, None] + values[:, j]
        values[:, j] *= offsets[:, k, None]
        denoms[:, j] *= nodes[:, j] - nodes[:, k, None]
    return values / denoms, derivs / denoms


def interpolate_state(table: EphemerisTable, t) -> StateVector:
    """Interpolated inertial-frame states at epochs t.

    Parameters
    ----------
    table : EphemerisTable
    t : float or sequence of floats
        Epochs in seconds relative to the first record.

    Returns
    -------
    StateVector
        Inertial-frame states, (N, 3) rows, one per epoch. The inertial
        frame is aligned with the Earth-fixed frame at the first record's epoch;
        `epoch` is seconds since that alignment.

    Raises
    ------
    InsufficientRecords
        Fewer than 4 records.
    OutOfRange
        An epoch outside the tabulated span (the first one is named).

    Notes
    -----
    Interpolation uses a Lagrange polynomial over the nearest nodes. The
    window is widened from the textbook 4 points to at most 8 because a
    cubic over 60 s LEO samples leaves meter-level mid-interval error
    (2.9 m on a 7.0e6 m circular orbit); 8 nodes bring it below 1 cm.
    Velocity is the analytic derivative of the same polynomial plus the
    frame-rotation term.
    """
    if table.n_records < 4:
        raise InsufficientRecords(
            f"interpolation needs >= 4 records, table has {table.n_records}"
        )
    t_rel = _epochs(t)
    epochs = table.relative_epochs
    reject((t_rel < epochs[0]) | (t_rel > epochs[-1]), OutOfRange,
           f"t = {{:.3f}} s outside table span [0, {epochs[-1]:.3f}] s", t_rel)
    n = table.n_records
    width = min(_MAX_WINDOW, n)
    start = np.clip(np.searchsorted(epochs, t_rel) - width // 2, 0, n - width)
    window = start[:, None] + np.arange(width)
    values, derivs = _lagrange_basis(t_rel, epochs[window])
    coords = table.positions[window]
    theta = OMEGA_EARTH * t_rel
    pos = rotate_z(theta, np.einsum("nj,njk->nk", values, coords))
    vel = rotate_z(theta, np.einsum("nj,njk->nk", derivs, coords))
    vel += np.cross(earth_rotation_vector(), pos)
    return StateVector(position=pos, velocity=vel, epoch=t_rel)


class EphemerisTrajectory:
    """Time-parameterized state source backed by a parsed table.

    Scenario time t = 0 is pinned to the table's first record, where the
    inertial and Earth-fixed frames coincide. Implements the trajectory
    protocol of the analytic classes (states / accelerations).
    """

    def __init__(self, table: EphemerisTable):
        if table.n_records < 4:
            raise InsufficientRecords(
                f"trajectory needs >= 4 records, table has {table.n_records}"
            )
        self.table = table

    def states(self, t) -> StateVector:
        return interpolate_state(self.table, t)

    def accelerations(self, t):
        """Central-difference acceleration [m/s^2]; step shrinks at the edges."""
        t = _epochs(t)
        h = np.minimum(np.minimum(1.0, t), self.table.span_seconds - t)
        reject(h <= 0.0, OutOfRange, "acceleration needs interior epochs", times=t)
        before = self.states(t - h).velocity
        after = self.states(t + h).velocity
        return (after - before) / (2.0 * h[:, None])
