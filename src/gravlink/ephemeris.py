"""Satellite ephemeris ingestion and interpolation.

Reads a simplified CPF-style prediction format: header lines whose first
token is ``H<digit>`` are kept verbatim as the table's source block, and
position records are lines of exactly eight whitespace-separated tokens

    10 <flag> <mjd> <seconds-of-day> <leap-flag> <x> <y> <z>

with coordinates in meters, Earth-fixed frame. Every other line is ignored.
Record lines convert once, by numpy's C text reader or by Python's int and float
(1_0 too), and one mask per rule names the first failing line. EphemerisTrajectory
interpolates a table: windowed Lagrange on position, whose window denominators it
computes once, with the analytic derivative for velocity, rotated into the
inertial frame that coincides with the Earth-fixed frame at the first record's epoch.
"""

from __future__ import annotations

import math
import warnings
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
from .kinematics import EARTH_ROTATION, _cross, _epochs, _states, rotate_z

_RECORD_FIELDS = 8
_POS_MIN = 6.4e6   # m, below any tracked orbit
_POS_MAX = 5.0e8   # m, beyond cislunar range
_MAX_WINDOW = 8    # interpolation nodes (see EphemerisTrajectory's window note)
# mjd is held as a float: mjd * 86400.0 rounds it to one anyway
_RECORD = np.dtype([("mjd", float), ("sod", float), ("position", float, 3)])
_LINE = np.dtype([("tag", "i8"), ("flag", "i8"), ("mjd", "i8"), ("sod", "f8"), ("leap", "i8"),
                  ("position", "f8", 3)])  # a record line as numpy's reader takes it
_FAULTS = ((MalformedRecord, "seconds-of-day {sod} outside [0, 86400)"),  # parse_cpf's rules
           (MalformedRecord, f"|position| = {{mag:.3e}} m outside sanity window "
                             f"[{_POS_MIN:.1e}, {_POS_MAX:.1e}]"),
           (MalformedRecord, "epoch mjd*86400 + sod = {epoch} s is not finite"),
           (NonMonotonicTime, "record epochs must strictly increase"))


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


def _loadtxt(lines: list) -> tuple | None:
    """(records, None), shaped as _convert's result, from numpy's reader; None on a wrong field
    count, a failed conversion, a non-ASCII token (numpy reads some as digits) or a warning."""
    if (not lines or len(lines[-1].split()) != _RECORD_FIELDS  # none, or a file cut short
            or not all(map(str.isascii, lines)) and not "".join("".join(lines).split()).isascii()):
        return None
    try:
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            fields = np.loadtxt(lines, _LINE, comments=None, ndmin=1)
    except (ValueError, Warning):  # ValueError also on an int past int64
        return None
    return fields[["mjd", "sod", "position"]].astype(_RECORD), None


def _convert(line_nos: list, lines: list) -> tuple:
    """(records, error): the records that Python's int and float (also 1_0, ints past int64) convert
    before the first line whose field count or conversion fails, and its (number, text) or None."""
    records = []
    for no, tokens in zip(line_nos, map(str.split, lines)):
        if len(tokens) != _RECORD_FIELDS:
            return records, (no, f"expected {_RECORD_FIELDS} fields, got {len(tokens)}")
        try:
            mjd, sod, _, _ = float(int(tokens[2])), float(tokens[3]), int(tokens[1]), int(tokens[4])
            records.append((mjd, sod, tuple(map(float, tokens[5:]))))
        except (ValueError, OverflowError) as exc:
            return records, (no, f"non-numeric field: {exc}")
    return records, None


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
        mjd past float range), seconds-of-day outside [0, 86400), a position
        magnitude outside the 6.4e6..5e8 m sanity window, or an epoch
        mjd*86400 + sod past float range.
    NonMonotonicTime
        Record epochs not strictly increasing.
    EmptyEphemeris
        No valid position record found.

    The error names the first failing line and the first of these checks that it fails.
    """
    lines = text.removeprefix("\ufeff").splitlines()  # str.strip keeps a byte-order mark
    tags = [raw.lstrip()[:3].rstrip() for raw in lines]  # a first token of 2 characters
    headers = [raw.strip() for raw, tag in zip(lines, tags)
               if len(tag) == 2 and tag[0] in "Hh" and tag[1].isdigit()]
    line_nos = [no for no, tag in enumerate(tags, 1) if tag == "10"]
    rows = [lines[no - 1] for no in line_nos]
    records, error = _loadtxt(rows) or _convert(line_nos, rows)
    records = np.asarray(records, _RECORD)
    sod, epochs, position = records["sod"], _epoch_seconds(records), records["position"]
    with np.errstate(over="ignore"):
        mag = np.hypot.reduce(position, axis=1)
    for margin in (1e-9, 0.0):  # np.hypot decides |position| off the edges, math.hypot near
        ok = np.array(((0.0 <= sod) & (sod < SECONDS_PER_DAY),
                       (_POS_MIN * (1 + margin) <= mag) & (mag <= _POS_MAX * (1 - margin)),
                       np.isfinite(epochs), epochs > np.append(-math.inf, epochs[:-1])))
        if ok[1].all():
            break
        mag[~ok[1]] = [math.hypot(*p) for p in position[~ok[1]].tolist()]
    if not ok.all():  # the first failing record's first failing rule
        i, rule = np.argwhere(~ok.T)[0]
        fault, message = _FAULTS[rule]
        raise fault(line_nos[i], message.format(sod=sod[i], mag=mag[i], epoch=epochs[i]))
    if error or not len(records):  # made here, so that no frame of its traceback holds it
        raise MalformedRecord(*error) if error else EmptyEphemeris(
            "no valid position records in input")
    return EphemerisTable(records=_read_only(records), source="\n".join(headers))


def serialize_cpf(table: EphemerisTable) -> str:
    """Render a table back to text; parse_cpf(serialize_cpf(t)) holds the same records."""
    lines = table.source.splitlines()
    columns = (table.records[name].tolist() for name in ("mjd", "sod"))
    lines.extend(f"10 0 {int(mjd)} {sod:.17g} 0 {x:.17g} {y:.17g} {z:.17g}"
                 for mjd, sod, (x, y, z) in zip(*columns, table.records["position"].tolist()))
    return "\n".join(lines) + "\n"


def _times_all_but(product: np.ndarray, factor, k: int) -> None:
    """product[:, j] *= factor[:, j] for every j != k, in place; column k is zeroed first so
    that it never forms the product of all w factors, which may overflow where L_j do not."""
    keep, product[:, k] = product[:, k].copy(), 0.0
    product *= factor
    product[:, k] = keep


def _lagrange_denominators(windows: np.ndarray) -> np.ndarray:
    """prod_{k != j} (x_j - x_k) of each window row (M, w), k ascending."""
    denoms = np.ones_like(windows)
    for k in range(windows.shape[1]):
        _times_all_but(denoms, windows - windows[:, k, None], k)
    return denoms


def _lagrange_basis(t: np.ndarray, nodes: np.ndarray, denoms: np.ndarray,
                    derivatives: bool = True):
    """Lagrange basis values and first derivatives (or None) at t (N,) over windows
    (N, w) whose _lagrange_denominators are denoms (N, w).

    First barycentric form L_j(t) = w_j prod_{k != j} (t - x_k) with weights
    w_j = 1 / denoms_j (Berrut & Trefethen, SIAM Review 46, 501, 2004), and
    L_j' by the product rule. Nothing divides by t - x_j, so a query next to
    a node keeps full accuracy; on a node x_j the two products of L_j are the
    same, so the basis is exactly the unit vector.
    """
    offsets = t[:, None] - nodes
    values = np.ones_like(offsets)
    derivs = np.zeros_like(offsets) if derivatives else None
    for k in range(nodes.shape[1]):
        if derivatives:
            keep, derivs[:, k] = derivs[:, k].copy(), 0.0
            derivs *= offsets[:, k, None]
            derivs += values
            derivs[:, k] = keep
        _times_all_but(values, offsets[:, k, None], k)
    return values / denoms, derivs / denoms if derivatives else None


class EphemerisTrajectory:
    """Time-parameterized state source backed by a parsed table.

    Scenario time t = 0 is pinned to the table's first record, where the
    inertial and Earth-fixed frames coincide; epochs t are seconds since that
    record, and one outside the table span raises OutOfRange (the first one
    is named). Implements the trajectory protocol of the analytic classes:
    ``positions(t)`` and ``states(t)`` -> (positions, velocities). A table
    of fewer than 4 records raises InsufficientRecords.

    Each epoch is interpolated by a Lagrange polynomial over the nearest
    nodes. The window is widened from the textbook 4 points to at most 8
    because a cubic over 60 s LEO samples leaves meter-level mid-interval
    error (2.9 m on a 7.0e6 m circular orbit); 8 nodes bring it below 1 cm.
    The denominators of every window are computed once, here. Velocity is the
    analytic derivative of the same polynomial plus the frame-rotation term.
    """

    def __init__(self, table: EphemerisTable):
        n = table.n_records
        if n < 4:
            raise InsufficientRecords(f"trajectory needs >= 4 records, table has {n}")
        self.table = table
        self._width = min(_MAX_WINDOW, n)
        windows = np.lib.stride_tricks.sliding_window_view(table.relative_epochs, self._width)
        # a window no epoch falls in may hold an infinite epoch (an mjd past 2e303)
        with np.errstate(invalid="ignore", over="ignore"):
            self._denoms = _read_only(_lagrange_denominators(windows))

    def positions(self, t) -> np.ndarray:
        return self._interpolate(t, velocities=False)[0]

    def states(self, t):
        return _states(*self._interpolate(t, velocities=True))

    def _interpolate(self, t, velocities: bool):
        """Positions, velocities (or None) and epochs (N,) at t."""
        t_rel = _epochs(t)
        epochs = self.table.relative_epochs
        reject(~((epochs[0] <= t_rel) & (t_rel <= epochs[-1])), OutOfRange,
               f"t = {{:.3f}} s outside table span [0, {epochs[-1]:.3f}] s", t_rel)
        width = self._width
        start = np.clip(np.searchsorted(epochs, t_rel) - width // 2, 0, len(epochs) - width)
        window = start[:, None] + np.arange(width)
        with np.errstate(invalid="ignore", over="ignore"):  # an inf epoch gives nan: BadAltitude
            values, derivs = _lagrange_basis(t_rel, epochs[window], self._denoms[start], velocities)
        coords = self.table.positions[window]
        theta = OMEGA_EARTH * t_rel
        pos = rotate_z(theta, np.einsum("nj,njk->nk", values, coords))
        if velocities:  # the polynomial's derivative and the frame-rotation term
            vel = rotate_z(theta, np.einsum("nj,njk->nk", derivs, coords))
            vel += _cross(EARTH_ROTATION, pos)
        return pos, vel if velocities else None, t_rel
