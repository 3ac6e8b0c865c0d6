"""Platform states, light-time solution, and link geometry assembly.

Conventions used throughout:

* one continuous scenario time t [s]; no UTC/TAI bookkeeping
* Earth-centered inertial frame, aligned with the Earth-fixed frame at t = 0
* spherical Earth of radius 6.371e6 m rotating about +z at OMEGA_EARTH
* point-mass potential, expressed as the positive dimensionless number
  U = GM/(c^2 r), which decreases with altitude

Everything works on batches of epochs: a float or a sequence of floats is
read as epochs t (N,) [s]. A trajectory (CircularOrbit, GroundStation,
ephemeris.EphemerisTrajectory) implements ``positions(t)`` -> (N, 3) [m] and
``states(t)`` -> (positions, velocities), the velocities (N, 3) [m/s]; nothing
else. Every states batch is checked once against the radius floor and speed
ceiling, and the light-time loop's positions against the floor; an error names
the first failing epoch, as in "... at epoch [3] (t = 5 s)". LinkGeometry
holds (N, 3) vectors and (N,) scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT, GM_EARTH, OMEGA_EARTH, R_EARTH
from .errors import BadAltitude, DegenerateGeometry, NoConvergence, reject

_MIN_RADIUS = 6.3e6     # m, radius floor of every state and light-time position
_MAX_SPEED = 1.1e4      # m/s, speed ceiling of every state
_MAX_BETA = 4.0e-5      # LinkGeometry sanity ceiling on |v|/c
_LIGHT_TIME_TOL = 1e-12  # s
_LIGHT_TIME_MAX_ITER = 50
_COINCIDENT_RANGE = 1e-6  # m, below this emitter and receiver coincide


def _dot(a, b):
    """Row-wise dot product of (..., 3) arrays."""
    return np.einsum("...i,...i->...", a, b)


def _norm(v):
    """Row norms of (..., 3) arrays, the bits of np.linalg.norm(v, axis=-1): same order."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def _cross(a, b) -> np.ndarray:
    """Row-wise cross product of (..., 3) arrays, which broadcast; np.cross's order."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def rotate_z(angle, vectors) -> np.ndarray:
    """Vectors (..., 3) rotated about +z by angle(s) [rad]; the two broadcast."""
    c, s = np.cos(angle), np.sin(angle)
    v = np.asarray(vectors, dtype=float)
    out = np.empty(np.broadcast_shapes(np.shape(c), v.shape[:-1]) + (3,))
    out[..., 0] = c * v[..., 0] - s * v[..., 1]
    out[..., 1] = s * v[..., 0] + c * v[..., 1]
    out[..., 2] = v[..., 2]
    return out


EARTH_ROTATION = np.array([0.0, 0.0, OMEGA_EARTH])  # rad/s, inertial frame
EARTH_ROTATION.flags.writeable = False


def _epochs(t) -> np.ndarray:
    """Epochs (N,) [s] from a float or a sequence of floats."""
    return np.atleast_1d(np.asarray(t, dtype=float))


def _above_floor(position, epochs) -> np.ndarray:
    """position (N, 3), once BadAltitude names the first row not above the radius floor."""
    r = _norm(position)
    reject(~(r > _MIN_RADIUS), BadAltitude,
           f"|position| = {{:.4e}} m is below {_MIN_RADIUS:.1e} m", r, times=epochs)
    return position


def _states(position, velocity, epochs):
    """(position, velocity), (N, 3) each, held to the radius floor, then the speed ceiling."""
    _above_floor(position, epochs)
    v = _norm(velocity)
    reject(~(v < _MAX_SPEED), ValueError,
           f"|velocity| = {{:.4e}} m/s exceeds {_MAX_SPEED:.1e} m/s", v, times=epochs)
    return position, velocity


class CircularOrbit:
    """Analytic two-body circular-orbit state source.

    Orbit plane is +x/+y rotated by inclination about +x, then by the node
    angle about +z; phase is the in-plane angle at t = 0. |position| equals
    the semi-major axis exactly and speed is sqrt(GM/a).

    Raises BadAltitude outside 6.5e6 <= a <= 5e7 m, ValueError for an angle not finite.
    """

    def __init__(self, semi_major_axis: float, inclination: float = 0.0,
                 raan: float = 0.0, phase: float = 0.0):
        a = float(semi_major_axis)
        if not 6.5e6 <= a <= 5.0e7:
            raise BadAltitude(f"semi-major axis {a:.4e} m outside [6.5e6, 5e7] m")
        self.semi_major_axis = a
        self.inclination = float(inclination)
        self.raan = float(raan)
        self.phase = float(phase)
        if not all(map(math.isfinite, (self.inclination, self.raan, self.phase))):
            raise ValueError(f"orbit angle not finite: {inclination=!s}, {raan=!s}, {phase=!s}")
        self._mean_motion = math.sqrt(GM_EARTH / a**3)   # rad/s
        ci, si = math.cos(self.inclination), math.sin(self.inclination)
        rot_x = np.array([[1.0, 0.0, 0.0], [0.0, ci, -si], [0.0, si, ci]])
        self._plane_to_inertial = rotate_z(self.raan, rot_x.T)

    def _in_plane(self, t, *scales):
        """Each scale times the inertial in-plane unit vector at u(t), then a quarter turn on."""
        u = self.phase + self._mean_motion * t
        cos, sin, z = np.cos(u), np.sin(u), np.zeros_like(u)
        for scale in scales:  # scale * -sin is -(scale * sin) to the bit
            yield np.stack([scale * cos, scale * sin, z], axis=-1) @ self._plane_to_inertial
            cos, sin = -sin, cos

    def positions(self, t) -> np.ndarray:
        return next(self._in_plane(_epochs(t), self.semi_major_axis))

    def states(self, t):
        t, a = _epochs(t), self.semi_major_axis
        return _states(*self._in_plane(t, a, a * self._mean_motion), t)


class GroundStation:
    """Station fixed to the rotating spherical Earth.

    lat/lon in radians, alt in meters above the mean radius.
    """

    def __init__(self, lat: float, lon: float, alt: float = 0.0):
        if not abs(lat) <= math.pi / 2:
            raise ValueError(f"latitude {lat} rad outside [-pi/2, pi/2]")
        self.lat = float(lat)
        self.lon = float(lon)
        if math.isinf(self.lon):  # a NaN one fails as a NaN position, below
            raise ValueError(f"station angle not finite: {lon=!s}")
        self.alt = float(alt)
        radius = R_EARTH + self.alt if math.isfinite(self.alt) else math.nan  # inf fails as NaN
        self._body = radius * np.array([
            math.cos(self.lat) * math.cos(self.lon),
            math.cos(self.lat) * math.sin(self.lon),
            math.sin(self.lat),
        ])
        self.states(np.zeros(1))

    def positions(self, t) -> np.ndarray:
        return rotate_z(OMEGA_EARTH * _epochs(t), self._body)

    def states(self, t):
        pos = self.positions(t)
        return _states(pos, _cross(EARTH_ROTATION, pos), _epochs(t))


def newtonian_potential(position):
    """Dimensionless potential U = GM/(c^2 r) of position(s) (..., 3); positive,
    larger nearer Earth."""
    r = _norm(np.asarray(position, dtype=float))
    if np.any(r <= 0.0):
        raise ValueError("position magnitude must be positive")
    return GM_EARTH / (C_LIGHT**2 * r)


def solve_light_time(t_emit, r_emit, receiver_trajectory):
    """Propagation times and arrival directions from emitter to a moving receiver.

    Fixed-point iteration T <- |r_recv(t_emit + T) - r_emit| / c over every emission
    epoch t_emit (N,) at once (a float is a batch of one), r_emit (N, 3) and r_recv
    receiver_trajectory.positions all held to the radius floor (BadAltitude); an epoch
    stops once its update is below 1e-12 s, and the others go on.

    Returns
    -------
    (T, n_hat) : (N,) [s], (N, 3) unit vectors. n_hat points emitter ->
        receiver, evaluated at reception.

    Raises
    ------
    DegenerateGeometry
        Emitter and receiver closer than 1e-6 m.
    NoConvergence
        An epoch still above the tolerance after 50 iterations.
    """
    n = len(r_emit)
    t_emit = np.broadcast_to(_epochs(t_emit), n)
    _above_floor(r_emit, t_emit)
    t_flight = np.zeros(n)
    n_hat = np.empty_like(r_emit)
    todo = slice(None)   # epochs still iterating: all of them until one settles
    for _ in range(_LIGHT_TIME_MAX_ITER):
        t_recv = t_emit[todo] + t_flight[todo]
        received = _above_floor(receiver_trajectory.positions(t_recv), t_recv)
        separation = received - r_emit[todo]
        rng = _norm(separation)
        if np.any(rng < _COINCIDENT_RANGE):
            ranges = np.full(n, np.inf)
            ranges[todo] = rng
            reject(ranges < _COINCIDENT_RANGE, DegenerateGeometry,
                   "emitter and receiver separated by {:.3e} m; direction undefined", ranges,
                   times=t_emit)
        t_new = rng / C_LIGHT
        settled = np.abs(t_new - t_flight[todo]) < _LIGHT_TIME_TOL
        t_flight[todo] = t_new
        if settled.all():
            n_hat[todo] = separation / rng[:, None]
            return t_flight, n_hat
        if settled.any():
            live = np.arange(n)[todo]
            n_hat[live[settled]] = separation[settled] / rng[settled, None]
            todo = live[~settled]
    reject(np.isin(np.arange(n), np.arange(n)[todo]), NoConvergence,
           f"light-time iteration did not settle in {_LIGHT_TIME_MAX_ITER} steps", times=t_emit)


@dataclass(frozen=True)
class LinkGeometry:
    """Everything the relativistic link model needs, per emission epoch of a batch.

    beta1/beta2/beta3 are v/c of ground station at emission, spacecraft at
    reception, and ground station at retro-reflected reception. n12 and n23
    are the light directions of the up and down legs at their respective
    receptions. U1 and U2 are the dimensionless potentials at the first two
    events (the link model takes the third, back at the station, to be at
    U1), a1 the station's centripetal acceleration [m/s^2], t_up the
    upward propagation time [s]. d1 = n12.beta1, d2 = n12.beta2 and
    d3 = n23.beta3 are derived on construction, not passed in. Vectors are
    (N, 3), scalars (N,); one 3-vector per vector and floats make a batch of
    one. The batch is checked once as a whole.
    """

    beta1: np.ndarray
    beta2: np.ndarray
    beta3: np.ndarray
    n12: np.ndarray
    n23: np.ndarray
    U1: np.ndarray
    U2: np.ndarray
    a1: np.ndarray
    t_up: np.ndarray
    d1: np.ndarray = field(init=False)
    d2: np.ndarray = field(init=False)
    d3: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("beta1", "beta2", "beta3", "n12", "n23", "a1"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), float)))
        for name in ("U1", "U2", "t_up"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), float)))
        for name in ("n12", "n23"):
            norm = _norm(getattr(self, name))
            reject(~(np.abs(norm - 1.0) <= 1e-9), DegenerateGeometry,
                   f"|{name}| = {{:.12f}}, expected 1", norm)
        for name in ("beta1", "beta2", "beta3"):
            b = _norm(getattr(self, name))
            reject(~(b < _MAX_BETA), ValueError, f"|{name}| = {{:.3e}} exceeds {_MAX_BETA:.1e}", b)
        for name in ("U1", "U2"):
            u = getattr(self, name)
            reject(~((0.0 < u) & (u < 1e-8)), ValueError, f"{name} = {{:.3e}} outside (0, 1e-8)", u)
        object.__setattr__(self, "d1", _dot(self.n12, self.beta1))
        object.__setattr__(self, "d2", _dot(self.n12, self.beta2))
        object.__setattr__(self, "d3", _dot(self.n23, self.beta3))

    def __len__(self) -> int:
        return len(self.t_up)


def build_link_geometry(gs_trajectory, sc_trajectory, t_emit) -> LinkGeometry:
    """Assemble the up-and-down link geometry batch for emission epochs t_emit.

    The ground station emits at t_emit; the spacecraft retro-reflects
    instantly at reception; the station receives the return. Light times for
    both legs are solved independently. The ground side must co-rotate with
    the Earth, as the link model assumes (the return ends at U1): its
    acceleration a1 = omega x v1 is then the centripetal omega x (omega x r1).
    """
    t1 = _epochs(t_emit)
    r1, v1 = gs_trajectory.states(t1)
    t_up, n12 = solve_light_time(t1, r1, sc_trajectory)
    t2 = t1 + t_up
    r2, v2 = sc_trajectory.states(t2)
    t_down, n23 = solve_light_time(t2, r2, gs_trajectory)
    _, v3 = gs_trajectory.states(t2 + t_down)

    return LinkGeometry(
        beta1=v1 / C_LIGHT,
        beta2=v2 / C_LIGHT,
        beta3=v3 / C_LIGHT,
        n12=n12,
        n23=n23,
        U1=newtonian_potential(r1),
        U2=newtonian_potential(r2),
        a1=_cross(EARTH_ROTATION, v1),
        t_up=t_up,
    )


def build_pass(gs_trajectory, sc_trajectory, t_start: float, t_end: float,
               n_epochs: int) -> tuple[np.ndarray, LinkGeometry]:
    """Link geometry batch on a uniform grid of emission epochs."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    for name, bound in (("t_start", t_start), ("t_end", t_end)):
        if not math.isfinite(bound):
            raise ValueError(f"sweep bound {name} = {bound} s must be finite")
    epochs = np.linspace(t_start, t_end, n_epochs)
    return epochs, build_link_geometry(gs_trajectory, sc_trajectory, epochs)
