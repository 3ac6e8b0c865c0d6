"""Platform states, light-time solution, and link geometry assembly.

Conventions used throughout:

* one continuous scenario time t [s]; no UTC/TAI bookkeeping
* Earth-centered inertial frame, aligned with the Earth-fixed frame at t = 0
* spherical Earth of radius 6.371e6 m rotating about +z at OMEGA_EARTH
* point-mass potential, expressed as the positive dimensionless number
  U = GM/(c^2 r), which decreases with altitude

Everything works on batches of epochs: a float or a sequence of floats is
read as epochs t (N,) [s]. A trajectory (CircularOrbit, GroundStation,
ephemeris.EphemerisTrajectory) implements ``states(t)`` -> StateVector with
positions (N, 3) [m] and velocities (N, 3) [m/s]; nothing else. The
StateVector constructor checks the batch once against the radius floor and
speed ceiling, and an error names the first failing epoch, as in
"... at epoch [3] (t = 5 s)". LinkGeometry holds (N, 3) vectors and (N,)
scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT, GM_EARTH, OMEGA_EARTH, R_EARTH
from .errors import BadAltitude, DegenerateGeometry, NoConvergence, reject

_MIN_RADIUS = 6.3e6     # m, StateVector sanity floor
_MAX_SPEED = 1.1e4      # m/s, StateVector sanity ceiling
_MAX_BETA = 4.0e-5      # LinkGeometry sanity ceiling on |v|/c
_LIGHT_TIME_TOL = 1e-12  # s
_LIGHT_TIME_MAX_ITER = 50
_COINCIDENT_RANGE = 1e-6  # m, below this emitter and receiver coincide


def _dot(a, b):
    """Row-wise dot product of (..., 3) arrays."""
    return np.einsum("...i,...i->...", a, b)


def rotate_z(angle, vectors) -> np.ndarray:
    """Vectors (..., 3) rotated about +z by angle(s) [rad]; the two broadcast."""
    c, s = np.cos(angle), np.sin(angle)
    x, y, z = np.moveaxis(np.asarray(vectors, dtype=float), -1, 0)
    return np.stack(np.broadcast_arrays(c * x - s * y, s * x + c * y, z), axis=-1)


EARTH_ROTATION = np.array([0.0, 0.0, OMEGA_EARTH])  # rad/s, inertial frame
EARTH_ROTATION.flags.writeable = False


def _epochs(t) -> np.ndarray:
    """Epochs (N,) [s] from a float or a sequence of floats."""
    return np.atleast_1d(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class StateVector:
    """Inertial positions/velocities of a platform at a batch of scenario epochs.

    position : m, velocity : m/s, (N, 3); epoch : s, (N,). One 3-vector and
    a float make a batch of one.
    """

    position: np.ndarray
    velocity: np.ndarray
    epoch: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.position, dtype=float))
        vel = np.atleast_2d(np.asarray(self.velocity, dtype=float))
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)
        object.__setattr__(self, "epoch", _epochs(self.epoch))
        r = np.linalg.norm(pos, axis=-1)
        reject(~(r > _MIN_RADIUS), BadAltitude,
               f"|position| = {{:.4e}} m is below {_MIN_RADIUS:.1e} m", r, times=self.epoch)
        v = np.linalg.norm(vel, axis=-1)
        reject(~(v < _MAX_SPEED), ValueError,
               f"|velocity| = {{:.4e}} m/s exceeds {_MAX_SPEED:.1e} m/s", v, times=self.epoch)


class CircularOrbit:
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
        self._plane_to_inertial = rotate_z(self.raan, rot_x.T)

    def states(self, t) -> StateVector:
        t = _epochs(t)
        a, n = self.semi_major_axis, self._mean_motion
        u = self.phase + n * t
        cos_u, sin_u = np.cos(u), np.sin(u)
        zero = np.zeros_like(u)
        pos = np.stack([a * cos_u, a * sin_u, zero], axis=-1) @ self._plane_to_inertial
        vel = np.stack([-a * n * sin_u, a * n * cos_u, zero], axis=-1) @ self._plane_to_inertial
        return StateVector(position=pos, velocity=vel, epoch=t)


class GroundStation:
    """Station fixed to the rotating spherical Earth.

    lat/lon in radians, alt in meters above the mean radius.
    """

    def __init__(self, lat: float, lon: float, alt: float = 0.0):
        if not abs(lat) <= math.pi / 2:
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

    def states(self, t) -> StateVector:
        t = _epochs(t)
        pos = rotate_z(OMEGA_EARTH * t, self._body)
        return StateVector(position=pos, velocity=np.cross(EARTH_ROTATION, pos), epoch=t)


def newtonian_potential(position):
    """Dimensionless potential U = GM/(c^2 r) of position(s) (..., 3); positive,
    larger nearer Earth."""
    r = np.linalg.norm(np.asarray(position, dtype=float), axis=-1)
    if np.any(r <= 0.0):
        raise ValueError("position magnitude must be positive")
    return GM_EARTH / (C_LIGHT**2 * r)


def solve_light_time(emit_state: StateVector, receiver_trajectory):
    """Propagation times and arrival directions from emitter to a moving receiver.

    Fixed-point iteration T <- |r_recv(t_emit + T) - r_emit| / c over every
    epoch of emit_state at once, t_emit being emit_state.epoch; an epoch
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
    r_emit = emit_state.position
    t_emit = np.broadcast_to(emit_state.epoch, len(r_emit))
    t_flight = np.zeros(len(r_emit))
    n_hat = np.empty_like(r_emit)
    todo = np.arange(len(r_emit))   # epochs still iterating
    for _ in range(_LIGHT_TIME_MAX_ITER):
        received = receiver_trajectory.states(t_emit[todo] + t_flight[todo])
        separation = received.position - r_emit[todo]
        rng = np.linalg.norm(separation, axis=-1)
        ranges = np.full(len(r_emit), np.inf)
        ranges[todo] = rng
        reject(ranges < _COINCIDENT_RANGE, DegenerateGeometry,
               "emitter and receiver separated by {:.3e} m; direction undefined", ranges,
               times=t_emit)
        settled = np.abs(rng / C_LIGHT - t_flight[todo]) < _LIGHT_TIME_TOL
        t_flight[todo] = rng / C_LIGHT
        n_hat[todo[settled]] = separation[settled] / rng[settled, None]
        todo = todo[~settled]
        if todo.size == 0:
            return t_flight, n_hat
    reject(np.isin(np.arange(len(r_emit)), todo), NoConvergence,
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
            norm = np.linalg.norm(getattr(self, name), axis=-1)
            reject(~(np.abs(norm - 1.0) <= 1e-9), DegenerateGeometry,
                   f"|{name}| = {{:.12f}}, expected 1", norm)
        for name in ("beta1", "beta2", "beta3"):
            b = np.linalg.norm(getattr(self, name), axis=-1)
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
    s1 = gs_trajectory.states(t1)
    t_up, n12 = solve_light_time(s1, sc_trajectory)
    t2 = t1 + t_up
    s2 = sc_trajectory.states(t2)
    t_down, n23 = solve_light_time(s2, gs_trajectory)
    s3 = gs_trajectory.states(t2 + t_down)

    return LinkGeometry(
        beta1=s1.velocity / C_LIGHT,
        beta2=s2.velocity / C_LIGHT,
        beta3=s3.velocity / C_LIGHT,
        n12=n12,
        n23=n23,
        U1=newtonian_potential(s1.position),
        U2=newtonian_potential(s2.position),
        a1=np.cross(EARTH_ROTATION, s1.velocity),
        t_up=t_up,
    )


def build_pass(gs_trajectory, sc_trajectory, t_start: float, t_end: float,
               n_epochs: int) -> tuple[np.ndarray, LinkGeometry]:
    """Link geometry batch on a uniform grid of emission epochs."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    epochs = np.linspace(t_start, t_end, n_epochs)
    return epochs, build_link_geometry(gs_trajectory, sc_trajectory, epochs)
