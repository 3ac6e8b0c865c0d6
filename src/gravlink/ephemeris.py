"""Satellite ephemeris ingestion and interpolation.

Reads a simplified CPF-style prediction format: header lines whose first
token is ``H<digit>`` are kept verbatim as the table's source block, and
position records are lines of exactly eight whitespace-separated tokens

    10 <flag> <mjd> <seconds-of-day> <leap-flag> <x> <y> <z>

with coordinates in meters, Earth-fixed frame. Every other line is ignored.
The records convert column by column with Python's int and float into one
structured array; a text that fails is read again line by line, to name its
first failing line. Interpolation is windowed Lagrange on position with the
analytic derivative for velocity, rotated into the inertial frame that
coincides with the Earth-fixed frame at the first record's epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
from .kinematics import EARTH_ROTATION, StateVector, _epochs, rotate_z

_RECORD_FIELDS = 8
_POS_MIN = 6.4e6   # m, below any tracked orbit
_POS_MAX = 5.0e8   # m, beyond cislunar range
_MAX_WINDOW = 8    # interpolation nodes (see window note in interpolate_state)
# mjd is held as a float: mjd * 86400.0 rounds it to one anyway
_RECORD = np.dtype([("mjd", float), ("sod", float), ("position", float, 3)])


class EphemerisRecord(NamedTuple):
    """One position sample: ``mjd``, seconds of day ``sod``, Earth-fixed ``position`` [m]."""

    mjd: int
    sod: float
    position: tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class EphemerisTable:
    """Immutable ordered position records.

    ``records`` is a read-only structured array with fields mjd, sod and
    position (3,), Earth-fixed; rows (mjd, sod, position), such as
    EphemerisRecord, are converted to one. ``source`` holds the verbatim
    header block (newline-joined) so that serialization round-trips exactly.
    """

    records: np.ndarray
    source: str = ""

    def __post_init__(self):
        if not isinstance(self.records, np.ndarray):  # list(): numpy reads a tuple as one record
            object.__setattr__(self, "records", _read_only(np.array(list(self.records), _RECORD)))

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


def _bulk(rows: list) -> np.ndarray | None:
    """The rows' records converted column by column, or None on a wrong field
    count, a failed conversion or a failed check; it formats no message."""
    records = np.empty(len(rows), _RECORD)
    try:  # ValueError also on any field count but eight; OverflowError: mjd past float range
        _, flag, mjd, sod, leap, x, y, z = zip(*rows, strict=True)
        records["mjd"] = list(map(float, _ints(mjd)))
        records["sod"] = list(map(float, sod))
        _ints(flag), _ints(leap)  # parsed then dropped
        xyz = [list(map(float, column)) for column in (x, y, z)]
    except (ValueError, OverflowError):
        return None
    records["position"] = np.transpose(xyz)
    mag = np.array(list(map(math.hypot, *xyz)))
    sod, epochs = records["sod"], _epoch_seconds(records)
    ok = ((0.0 <= sod) & (sod < SECONDS_PER_DAY) & (_POS_MIN <= mag) & (mag <= _POS_MAX)
          & (epochs > np.append(-math.inf, epochs[:-1])))
    return _read_only(records) if ok.all() else None


def _by_line(line_nos: list, rows: list) -> list:
    """The rows as (mjd, sod, position) records, read one line at a time. Raises
    the first failing line's error: field count, then conversions of mjd, sod,
    flag, leap flag, x, y, z, then sod range, position window, monotonicity."""
    records, last = [], -math.inf
    for no, tokens in zip(line_nos, rows):
        if len(tokens) != _RECORD_FIELDS:
            raise MalformedRecord(no, f"expected {_RECORD_FIELDS} fields, got {len(tokens)}")
        try:
            mjd, sod = float(int(tokens[2])), float(tokens[3])
            int(tokens[1]), int(tokens[4])
            position = tuple(map(float, tokens[5:]))
        except (ValueError, OverflowError) as exc:
            raise MalformedRecord(no, f"non-numeric field: {exc}") from None
        if not 0.0 <= sod < SECONDS_PER_DAY:
            raise MalformedRecord(no, f"seconds-of-day {sod} outside [0, 86400)")
        mag = math.hypot(*position)
        if not _POS_MIN <= mag <= _POS_MAX:
            raise MalformedRecord(no, f"|position| = {mag:.3e} m outside "
                                  f"sanity window [{_POS_MIN:.1e}, {_POS_MAX:.1e}]")
        epoch = mjd * SECONDS_PER_DAY + sod
        if epoch <= last:
            raise NonMonotonicTime(no, "record epochs must strictly increase")
        records.append((mjd, sod, position))
        last = epoch
    if not records:
        raise EmptyEphemeris("no valid position records in input")
    return records


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

    The records convert in bulk (_bulk); a text that fails is read again line
    by line (_by_line), which names the first failing line and check.
    """
    lines = text.splitlines()
    split = [raw.split() for raw in lines]
    headers = [raw.strip() for raw, tokens in zip(lines, split) if tokens
               and tokens[0][0] in "Hh" and len(tokens[0]) == 2 and tokens[0][1].isdigit()]
    line_nos = [no for no, tokens in enumerate(split, 1) if tokens and tokens[0] == "10"]
    rows = [split[no - 1] for no in line_nos]
    records = _bulk(rows)
    return EphemerisTable(records=_by_line(line_nos, rows) if records is None else records,
                          source="\n".join(headers))


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
    reject(~((epochs[0] <= t_rel) & (t_rel <= epochs[-1])), OutOfRange,
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
    vel += np.cross(EARTH_ROTATION, pos)
    return StateVector(position=pos, velocity=vel, epoch=t_rel)


class EphemerisTrajectory:
    """Time-parameterized state source backed by a parsed table.

    Scenario time t = 0 is pinned to the table's first record, where the
    inertial and Earth-fixed frames coincide. Implements the trajectory
    protocol of the analytic classes: ``states(t)`` only.
    """

    def __init__(self, table: EphemerisTable):
        if table.n_records < 4:
            raise InsufficientRecords(
                f"trajectory needs >= 4 records, table has {table.n_records}"
            )
        self.table = table

    def states(self, t) -> StateVector:
        return interpolate_state(self.table, t)
