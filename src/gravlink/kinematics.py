"""Platform states, light-time solution, and link geometry assembly.

Conventions used throughout:

* one continuous scenario time t [s]; no UTC/TAI bookkeeping
* Earth-centered inertial frame, aligned with the Earth-fixed frame at t = 0
* spherical Earth of radius 6.371e6 m rotating about +z at OMEGA_EARTH
* point-mass potential, expressed as the positive dimensionless number
  U = GM/(c^2 r), which decreases with altitude

Everything works on arrays of epochs. A trajectory (CircularOrbit,
GroundStation, StaticPlatform, ephemeris.EphemerisTrajectory) implements
``states(t)`` -> (positions (N, 3) [m], velocities (N, 3) [m/s]) and
``accelerations(t)`` -> (N, 3) [m/s^2] for epochs t (N,) [s]; each batch is
checked against the radius floor and speed ceiling, and an error names the
first failing epoch. ``state(t)`` and ``acceleration(t)`` are one-epoch
views of the same code. StateVector and LinkGeometry hold (N, 3) vectors and
(N,) scalars for a batch, (3,) vectors and scalars for one epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import C_LIGHT, GM_EARTH, OMEGA_EARTH, R_EARTH
from .errors import BadAltitude, DegenerateGeometry, NoConvergence

_MIN_RADIUS = 6.3e6     # m, StateVector sanity floor
_MAX_SPEED = 1.1e4      # m/s, StateVector sanity ceiling
_MAX_BETA = 4.0e-5      # LinkGeometry sanity ceiling on |v|/c
_LIGHT_TIME_TOL = 1e-12  # s
_LIGHT_TIME_MAX_ITER = 50
_COINCIDENT_RANGE = 1e-6  # m, below this emitter and receiver coincide


def _reject(bad, values, error, text: str, epochs=None) -> None:
    """Raise error(text formatted with the value) at the first epoch flagged in bad;
    in a batch of several epochs the message names it (and its time t)."""
    bad = np.atleast_1d(bad)
    if bad.any():
        i = int(np.argmax(bad))
        where = f" at epoch {i}" if bad.size > 1 else ""
        if where and epochs is not None:
            where += f" (t = {np.atleast_1d(epochs)[i]:.6g} s)"
        raise error(text.format(np.atleast_1d(values)[i]) + where)


def _dot(a, b):
    """Row-wise dot product of (..., 3) arrays."""
    return np.einsum("...i,...i->...", a, b)


def rotation_z(angle: float) -> np.ndarray:
    """Right-handed rotation matrix about +z."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotate_z(angle, vectors) -> np.ndarray:
    """Vectors (..., 3) rotated about +z by angle(s) [rad]; the two broadcast."""
    c, s = np.cos(angle), np.sin(angle)
    x, y, z = np.moveaxis(np.asarray(vectors, dtype=float), -1, 0)
    return np.stack(np.broadcast_arrays(c * x - s * y, s * x + c * y, z), axis=-1)


def earth_rotation_vector() -> np.ndarray:
    """Earth angular velocity [rad/s] in the inertial frame."""
    return np.array([0.0, 0.0, OMEGA_EARTH])


@dataclass(frozen=True)
class StateVector:
    """Inertial positions/velocities of a platform at scenario epochs.

    position : m, velocity : m/s, (N, 3) or (3,); epoch : s, (N,) or float.
    """

    position: np.ndarray
    velocity: np.ndarray
    epoch: float

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        vel = np.asarray(self.velocity, dtype=float)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)
        r = np.linalg.norm(pos, axis=-1)
        _reject(r <= _MIN_RADIUS, r, BadAltitude,
                f"|position| = {{:.4e}} m is below {_MIN_RADIUS:.1e} m", self.epoch)
        v = np.linalg.norm(vel, axis=-1)
        _reject(v >= _MAX_SPEED, v, ValueError,
                f"|velocity| = {{:.4e}} m/s exceeds {_MAX_SPEED:.1e} m/s", self.epoch)


def _epochs(t) -> np.ndarray:
    return np.atleast_1d(np.asarray(t, dtype=float))


def _checked(pos, vel, t):
    """(pos, vel) after the StateVector radius and speed checks."""
    s = StateVector(position=pos, velocity=vel, epoch=t)
    return s.position, s.velocity


class Trajectory:
    """A state source: subclasses define states(t) and accelerations(t) over
    an array of epochs (see the module docstring)."""

    def state(self, t: float) -> StateVector:
        pos, vel = self.states(_epochs(t))
        return StateVector(position=pos[0], velocity=vel[0], epoch=t)

    def acceleration(self, t: float) -> np.ndarray:
        return self.accelerations(_epochs(t))[0]


class CircularOrbit(Trajectory):
    """Analytic two-body circular-orbit state source.

    Orbit plane is +x/+y rotated by inclination about +x, then by the node
    angle about +z; phase is the in-plane angle at t = 0. |position| equals
    the semi-major axis exactly and speed is sqrt(GM/a).

    Raises BadAltitude outside 6.5e6 <= a <= 5e7 m.
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
        self._mean_motion = math.sqrt(GM_EARTH / a**3)   # rad/s
        ci, si = math.cos(self.inclination), math.sin(self.inclination)
        rot_x = np.array([[1.0, 0.0, 0.0], [0.0, ci, -si], [0.0, si, ci]])
        self._plane_to_inertial = (rotation_z(self.raan) @ rot_x).T

    def states(self, t):
        t = _epochs(t)
        a, n = self.semi_major_axis, self._mean_motion
        u = self.phase + n * t
        cos_u, sin_u = np.cos(u), np.sin(u)
        zero = np.zeros_like(u)
        pos = np.stack([a * cos_u, a * sin_u, zero], axis=-1) @ self._plane_to_inertial
        vel = np.stack([-a * n * sin_u, a * n * cos_u, zero], axis=-1) @ self._plane_to_inertial
        return _checked(pos, vel, t)

    def accelerations(self, t):
        return -GM_EARTH / self.semi_major_axis**3 * self.states(t)[0]

    def period(self) -> float:
        """Orbital period 2*pi*sqrt(a^3/GM) [s]."""
        return 2.0 * math.pi * math.sqrt(self.semi_major_axis**3 / GM_EARTH)


class GroundStation(Trajectory):
    """Station fixed to the rotating spherical Earth.

    lat/lon in radians, alt in meters above the mean radius.
    """

    def __init__(self, lat: float, lon: float, alt: float = 0.0):
        if abs(lat) > math.pi / 2:
            raise ValueError(f"latitude {lat} rad outside [-pi/2, pi/2]")
        self.lat = float(lat)
        self.lon = float(lon)
        self.alt = float(alt)
        self._body = (R_EARTH + self.alt) * np.array([
            math.cos(self.lat) * math.cos(self.lon),
            math.cos(self.lat) * math.sin(self.lon),
            math.sin(self.lat),
        ])
        self.states(np.zeros(1))

    def states(self, t):
        t = _epochs(t)
        pos = rotate_z(OMEGA_EARTH * t, self._body)
        return _checked(pos, np.cross(earth_rotation_vector(), pos), t)

    def accelerations(self, t):
        """Centripetal acceleration of the rotating station [m/s^2]."""
        w = earth_rotation_vector()
        return np.cross(w, np.cross(w, self.states(t)[0]))


class StaticPlatform(Trajectory):
    """Non-moving platform; handy for controlled-geometry checks."""

    def __init__(self, position):
        self.position = np.asarray(position, dtype=float)
        self.states(np.zeros(1))

    def states(self, t):
        t = _epochs(t)
        pos = np.broadcast_to(self.position, (t.size, 3))
        return _checked(pos, np.zeros((t.size, 3)), t)

    def accelerations(self, t):
        return np.zeros((_epochs(t).size, 3))


def newtonian_potential(position):
    """Dimensionless potential U = GM/(c^2 r) of position(s) (..., 3); positive,
    larger nearer Earth."""
    r = np.linalg.norm(np.asarray(position, dtype=float), axis=-1)
    if np.any(r <= 0.0):
        raise ValueError("position magnitude must be positive")
    return GM_EARTH / (C_LIGHT**2 * r)


def solve_light_time(emit_state: StateVector, receiver_trajectory, t_emit):
    """Propagation times and arrival directions from emitter to a moving receiver.

    Fixed-point iteration T <- |r_recv(t_emit + T) - r_emit| / c over every
    epoch of emit_state at once; an epoch stops once its update is below
    1e-12 s, and the others go on.

    Returns
    -------
    (T, n_hat) : (N,) [s], (N, 3) unit vectors; a float and a 3-vector when
        emit_state holds one epoch. n_hat points emitter -> receiver,
        evaluated at reception.

    Raises
    ------
    DegenerateGeometry
        Emitter and receiver closer than 1e-6 m.
    NoConvergence
        An epoch still above the tolerance after 50 iterations.
    """
    single = emit_state.position.ndim == 1
    r_emit = np.atleast_2d(emit_state.position)
    t_emit = np.broadcast_to(np.asarray(t_emit, dtype=float), len(r_emit))
    t_flight = np.zeros(len(r_emit))
    n_hat = np.empty_like(r_emit)
    todo = np.arange(len(r_emit))   # epochs still iterating
    for _ in range(_LIGHT_TIME_MAX_ITER):
        separation = receiver_trajectory.states(t_emit[todo] + t_flight[todo])[0] - r_emit[todo]
        rng = np.linalg.norm(separation, axis=-1)
        ranges = np.full(len(r_emit), np.inf)
        ranges[todo] = rng
        _reject(ranges < _COINCIDENT_RANGE, ranges, DegenerateGeometry,
                "emitter and receiver separated by {:.3e} m; direction undefined", t_emit)
        settled = np.abs(rng / C_LIGHT - t_flight[todo]) < _LIGHT_TIME_TOL
        t_flight[todo] = rng / C_LIGHT
        n_hat[todo[settled]] = separation[settled] / rng[settled, None]
        todo = todo[~settled]
        if todo.size == 0:
            return (t_flight[0], n_hat[0]) if single else (t_flight, n_hat)
    _reject(np.isin(np.arange(len(r_emit)), todo), t_emit, NoConvergence,
            f"light-time iteration did not settle in {_LIGHT_TIME_MAX_ITER} steps", t_emit)


@dataclass(frozen=True)
class LinkGeometry:
    """Everything the relativistic link model needs, per emission epoch.

    beta1/beta2/beta3 are v/c of ground station at emission, spacecraft at
    reception, and ground station at retro-reflected reception. n12 and n23
    are the light directions of the up and down legs at their respective
    receptions. U1..U3 are the dimensionless potentials at the same three
    events, a1 the station's centripetal acceleration [m/s^2], t_up the
    upward propagation time [s]. d1 and d2 project beta1/beta2 on n12;
    d3 projects beta3 on n23.

    A batch is checked once as a whole; indexing or iterating it gives
    one-epoch geometries.
    """

    beta1: np.ndarray
    beta2: np.ndarray
    beta3: np.ndarray
    n12: np.ndarray
    n23: np.ndarray
    U1: float
    U2: float
    U3: float
    a1: np.ndarray
    t_up: float
    d1: float
    d2: float
    d3: float

    def __post_init__(self):
        for name in ("beta1", "beta2", "beta3", "n12", "n23", "a1"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("n12", "n23"):
            norm = np.linalg.norm(getattr(self, name), axis=-1)
            _reject(np.abs(norm - 1.0) > 1e-9, norm, DegenerateGeometry,
                    f"|{name}| = {{:.12f}}, expected 1")
        for name in ("beta1", "beta2", "beta3"):
            b = np.linalg.norm(getattr(self, name), axis=-1)
            _reject(b >= _MAX_BETA, b, ValueError, f"|{name}| = {{:.3e}} exceeds {_MAX_BETA:.1e}")
        for name in ("U1", "U2", "U3"):
            u = np.asarray(getattr(self, name))
            _reject(~((0.0 < u) & (u < 1e-8)), u, ValueError,
                    f"{name} = {{:.3e}} outside (0, 1e-8)")

    @classmethod
    def stack(cls, geometries) -> "LinkGeometry":
        """One batch from a sequence of one-epoch geometries; a batch passes through."""
        if isinstance(geometries, cls):
            return geometries
        return cls(**{f.name: np.array([getattr(g, f.name) for g in geometries], dtype=float)
                      for f in fields(cls)})

    def __len__(self) -> int:
        return len(self.t_up)

    def __getitem__(self, i: int) -> "LinkGeometry":
        """One epoch of the batch; iterating goes through the epochs in order."""
        return LinkGeometry(**{f.name: getattr(self, f.name)[i] for f in fields(self)})


def build_link_geometry(gs_trajectory, sc_trajectory, t_emit) -> LinkGeometry:
    """Assemble the up-and-down link geometry for emission epoch(s) t_emit.

    The ground station emits at t_emit; the spacecraft retro-reflects
    instantly at reception; the station receives the return. Light times for
    both legs are solved independently. An array of epochs gives a batch,
    a float one epoch.
    """
    t1 = _epochs(t_emit)
    s1 = StateVector(*gs_trajectory.states(t1), epoch=t1)
    t_up, n12 = solve_light_time(s1, sc_trajectory, t1)
    t2 = t1 + t_up
    s2 = StateVector(*sc_trajectory.states(t2), epoch=t2)
    t_down, n23 = solve_light_time(s2, gs_trajectory, t2)
    pos3, vel3 = gs_trajectory.states(t2 + t_down)

    beta1 = s1.velocity / C_LIGHT
    beta2 = s2.velocity / C_LIGHT
    beta3 = vel3 / C_LIGHT
    geometry = LinkGeometry(
        beta1=beta1,
        beta2=beta2,
        beta3=beta3,
        n12=n12,
        n23=n23,
        U1=newtonian_potential(s1.position),
        U2=newtonian_potential(s2.position),
        U3=newtonian_potential(pos3),
        a1=gs_trajectory.accelerations(t1),
        t_up=t_up,
        d1=_dot(n12, beta1),
        d2=_dot(n12, beta2),
        d3=_dot(n23, beta3),
    )
    return geometry if np.ndim(t_emit) else geometry[0]
