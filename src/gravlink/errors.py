"""Typed errors raised across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI (and tests) can branch on type rather than on message text.
All inherit from GravlinkError; reject raises one at a batch's first failing entry.
"""

import numpy as np


class GravlinkError(Exception):
    """Base class for all package errors."""


# --- ephemeris handling ---

class _AtLine(GravlinkError):
    """An error at one input line; carries its 1-based line_number and the reason."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}")


class MalformedRecord(_AtLine):
    """A position record failed to parse or failed a sanity bound."""


class EmptyEphemeris(GravlinkError):
    """No valid position records were found in the input."""


class NonMonotonicTime(_AtLine):
    """Record epochs are not strictly increasing."""


class InsufficientRecords(GravlinkError):
    """Too few records for the requested interpolation."""


class OutOfRange(GravlinkError):
    """Requested time lies outside the tabulated interval."""


# --- geometry and trajectories ---

class BadAltitude(GravlinkError):
    """Platform radius below the Earth surface or otherwise unphysical."""


class NoConvergence(GravlinkError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateGeometry(GravlinkError):
    """Link endpoints coincide or a light direction is not a unit vector."""


# --- photon counting and fringe fitting ---

class InsufficientScan(GravlinkError):
    """Fewer than 4 scan points, or offsets covering less than pi of the circle."""


class FitDiverged(GravlinkError):
    """The closed-form fringe fit's linear solve failed: a singular design or an
    unusable covariance."""


class DegenerateVisibility(GravlinkError):
    """Fitted fringe amplitude consistent with zero; phase undefined."""


# --- regression ---

class SingularFit(GravlinkError):
    """Design matrix has no leverage (all regressors zero)."""


# --- spin / weak measurement ---

class BadAxis(GravlinkError):
    """Raised only by pauli (an axis not 1, 2 or 3), pauli_dot and h_sigma (not a 3-vector)."""


class OrthogonalSelection(GravlinkError):
    """Pre- and post-selected states are orthogonal; weak value undefined."""


# --- configuration / CLI ---

class ConfigInvalid(GravlinkError):
    """One or more configuration violations; message lists all of them."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class FileUnreadable(GravlinkError):
    """Input file missing or unreadable."""


def reject(bad, error, text: str, *values, what: str = "epoch", first: int = 0, times=None):
    """Raise error(text formatted with the values at the entry) at the first entry flagged
    in the boolean array bad. If bad has an axis, " at <what> [i, j]" names the entry, its
    leading index counted from first (a block's offset in a larger batch), and epochs [s]
    times along that axis add " (t = ... s)"; a 0-d bad keeps the bare text."""
    if bad.any():
        i = np.unravel_index(np.argmax(bad), np.shape(bad))
        message = text.format(*(np.asarray(v)[i].tolist() for v in values))
        if i:
            message += f" at {what} [{', '.join(str(int(k)) for k in (i[0] + first, *i[1:]))}]"
            if times is not None:
                message += f" (t = {np.asarray(times)[i[0]]:.6g} s)"
        raise error(message)
