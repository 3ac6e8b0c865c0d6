"""Satellite ephemeris ingestion and interpolation.

Reads a simplified CPF-style prediction format: header lines whose first
token is ``H<digit>`` are kept verbatim as the table's source block, and
position records are lines of exactly eight whitespace-separated tokens

    10 <flag> <mjd> <seconds-of-day> <leap-flag> <x> <y> <z>

with coordinates in meters, Earth-fixed frame. Every other line is ignored.
The table holds the records as one structured array, converted column by
column with Python's int and float; a parse error names the first failing
line, as a line-by-line read would. Interpolation is windowed Lagrange on
position with the analytic derivative for velocity, rotated into the
inertial frame that coincides with the Earth-fixed frame at the first
record's epoch.
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
# mjd is held as a float: mjd * 86400.0 rounds it to one anyway
_RECORD = np.dtype([("mjd", float), ("sod", float), ("position", float, 3)])


@dataclass(frozen=True)
class EphemerisRecord:
    """One position sample: ``mjd``, seconds of day ``sod``, Earth-fixed ``position`` [m]."""

    mjd: int
    sod: float
    position: tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class EphemerisTable:
    """Immutable ordered position records.

    ``records`` is a read-only structured array with fields mjd, sod and
    position (3,), Earth-fixed; a sequence of EphemerisRecord is converted
    to one. ``source`` holds the verbatim header block (newline-joined
    header lines) so that serialization round-trips exactly.
    """

    records: np.ndarray
    source: str = ""

    def __post_init__(self):
        if not isinstance(self.records, np.ndarray):
            records = np.array([(r.mjd, r.sod, r.position) for r in self.records], _RECORD)
            object.__setattr__(self, "records", _read_only(records))

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
        epochs = _epoch_seconds(self.records)
        with np.errstate(over="ignore", invalid="ignore"):
            return _read_only(epochs - epochs[0])

    @cached_property
    def positions(self) -> np.ndarray:
        """Earth-fixed record positions (n_records, 3) [m] (cached, read-only)."""
        return _read_only(np.ascontiguousarray(self.records["position"]))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _epoch_seconds(records: np.ndarray) -> np.ndarray:
    """mjd * 86400 + sod: inf past 1.8e308 s, as with Python floats, and no warning."""
    with np.errstate(over="ignore"):
        return records["mjd"] * SECONDS_PER_DAY + records["sod"]


def _ints(column: tuple) -> list[int]:
    """int of each token; each distinct token converts once (mjd and flags repeat)."""
    values = {token: int(token) for token in set(column)}
    return list(map(values.__getitem__, column))


def _records(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Records and position magnitudes of eight-token rows. The columns convert
    in the order mjd, sod, flag, leap flag, x, y, z, as in _conversion_error."""
    columns = list(zip(*rows)) or [()] * _RECORD_FIELDS
    records = np.empty(len(rows), _RECORD)
    records["mjd"] = list(map(float, _ints(columns[2])))  # OverflowError past float range
    records["sod"] = list(map(float, columns[3]))
    _ints(columns[1]), _ints(columns[4])  # flag and leap-second flag, parsed then dropped
    xyz = [list(map(float, column)) for column in columns[5:]]
    records["position"] = np.transpose(xyz)
    return records, np.array(list(map(math.hypot, *xyz)))


def _conversion_error(tokens: list) -> Exception | None:
    """The error _records raises on this one row, if any."""
    try:
        float(int(tokens[2])), float(tokens[3]), int(tokens[1]), int(tokens[4])
        float(tokens[5]), float(tokens[6]), float(tokens[7])
    except (ValueError, OverflowError) as exc:
        return exc
    return None


def _first(bad: np.ndarray) -> int:
    """Index of the first True entry of bad, or its length when there is none."""
    return int(np.argmax(bad)) if bad.any() else bad.size


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
        A "10" line with the wrong field count, a non-numeric field (or an
        mjd past float range), seconds-of-day outside [0, 86400), or a
        position magnitude outside the 6.4e6..5e8 m sanity window.
    NonMonotonicTime
        Record epochs not strictly increasing.
    EmptyEphemeris
        No valid position record found.

    Errors name the first failing line and, on it, the first failing check.
    """
    lines = text.splitlines()
    split = [raw.split() for raw in lines]
    headers = [raw.strip() for raw, tokens in zip(lines, split) if tokens
               and tokens[0][0] in "Hh" and len(tokens[0]) == 2 and tokens[0][1].isdigit()]
    line_nos = [no for no, tokens in enumerate(split, 1) if tokens and tokens[0] == "10"]
    rows = [split[no - 1] for no in line_nos]
    # The checks run on the rows before the first that fails to convert, and a
    # failure there comes first: a line-by-line read never reaches the later one.
    counts = np.array(list(map(len, rows)), dtype=int)
    stop = _first(counts != _RECORD_FIELDS)
    error = (MalformedRecord(line_nos[stop], f"expected {_RECORD_FIELDS} fields, got {counts[stop]}")
             if stop < len(rows) else None)
    try:
        records, mag = _records(rows[:stop])
    except (ValueError, OverflowError):
        stop, exc = next((k, e) for k, e in enumerate(map(_conversion_error, rows[:stop])) if e)
        error = MalformedRecord(line_nos[stop], f"non-numeric field: {exc}")
        records, mag = _records(rows[:stop])
    sod, epochs = records["sod"], _epoch_seconds(records)
    bad_sod = ~((0.0 <= sod) & (sod < SECONDS_PER_DAY))
    bad_pos = ~((_POS_MIN <= mag) & (mag <= _POS_MAX))
    first = _first(bad_sod | bad_pos | (epochs <= np.append(-math.inf, epochs[:-1])))
    if first < stop:
        if bad_sod[first]:
            raise MalformedRecord(line_nos[first],
                                  f"seconds-of-day {float(sod[first])} outside [0, 86400)")
        if bad_pos[first]:
            raise MalformedRecord(line_nos[first], f"|position| = {mag[first]:.3e} m outside "
                                  f"sanity window [{_POS_MIN:.1e}, {_POS_MAX:.1e}]")
        raise NonMonotonicTime(line_nos[first], "record epochs must strictly increase")
    if error is not None:
        raise error
    if not stop:
        raise EmptyEphemeris("no valid position records in input")
    return EphemerisTable(records=_read_only(records), source="\n".join(headers))


def serialize_cpf(table: EphemerisTable) -> str:
    """Render a table back to text; parse_cpf(serialize_cpf(t)) holds the same records."""
    lines = table.source.splitlines()
    columns = (table.records[name].tolist() for name in ("mjd", "sod"))
    lines.extend(f"10 0 {int(mjd)} {sod:.17g} 0 {x:.17g} {y:.17g} {z:.17g}"
                 for mjd, sod, (x, y, z) in zip(*columns, table.records["position"].tolist()))
    return "\n".join(lines) + "\n"


def _lagrange_basis(t: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange basis values and first derivatives at t (N,) over node windows (N, w).

    First barycentric form L_j(t) = w_j prod_{k != j} (t - x_k) with weights
    w_j = 1 / prod_{k != j} (x_j - x_k) (Berrut & Trefethen, SIAM Review 46,
    501, 2004), and L_j' by the product rule. Nothing divides by t - x_j, so
    a query next to a node keeps full accuracy; on a node x_j the two
    products of L_j are the same, so the basis is exactly the unit vector.
    Step k updates every column but k over the whole window; column k is
    multiplied by 1.0, which is exact.
    """
    offsets = t[:, None] - nodes
    values = np.ones_like(offsets)
    derivs = np.zeros_like(offsets)
    denoms = np.ones_like(offsets)
    for k, on_k in enumerate(np.eye(nodes.shape[1], dtype=bool)):
        factor = np.where(on_k, 1.0, offsets[:, k, None])
        derivs = np.where(on_k, derivs, derivs * factor + values)
        values *= factor
        denoms *= np.where(on_k, 1.0, nodes - nodes[:, k, None])
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
