"""Relativistic frequency ratios and the Doppler-cancelling phase signal.

The chain: a ground station emits at proper frequency omega0, the
spacecraft receives the shifted omega_up, retro-reflects, and the station
receives omega_round. Unbalanced interferometers of equal proper delay
tau_l at both terminals convert frequency offsets to fringe phases

    phi_sc = (omega_up - omega0) * tau_l
    phi_gs = (omega_round - omega0) * tau_l

and the combination s = phi_sc - phi_gs/2 cancels first-order Doppler,
leaving the (1+alpha)-scaled potential difference plus small kinematic
terms.

Every function of the geometry takes a LinkGeometry batch and returns one
value per epoch, (N,).

Numerical note: the ratios sit within ~1e-10 of unity, so every function
here evaluates ratio - 1 from rearranged differences instead of forming
the ratio and subtracting. Naive evaluation loses six digits, which is
fatal at the 1e-15 tolerances the phase combination must hold.

Sign conventions: potentials U = GM/(c^2 r) are positive and larger at
the station than at the spacecraft, so an uplink is red-shifted and the
static phi_sc is negative. phi > 0 means received frequency above emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT
from .errors import DegenerateGeometry
from .kinematics import LinkGeometry, _dot, _reject

_TWO_PI = 2.0 * math.pi
_MIN_DENOMINATOR = 0.5  # ratio denominators must stay near 1


@dataclass(frozen=True)
class OpticalConfig:
    """Laser and interferometer parameters.

    lambda0 : m, carrier wavelength (omega0 = 2*pi*c/lambda0).
    delay_length : m, interferometer arm-length imbalance.
    group_index : dimensionless, of the delay medium (default vacuum).
    tau_l : s, proper delay; derived as delay_length*group_index/c unless
        given explicitly.
    """

    lambda0: float
    delay_length: float
    group_index: float = 1.0
    tau_l: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.lambda0 <= 0.0:
            raise ValueError(f"wavelength must be positive, got {self.lambda0}")
        if self.tau_l is None:
            if self.delay_length <= 0.0:
                raise ValueError("delay_length must be positive")
            object.__setattr__(
                self, "tau_l", self.delay_length * self.group_index / C_LIGHT
            )
        if self.tau_l <= 0.0:
            raise ValueError(f"tau_l must be positive, got {self.tau_l}")

    @property
    def omega0(self) -> float:
        """Carrier angular frequency [rad/s]."""
        return _TWO_PI * C_LIGHT / self.lambda0

    @property
    def phase_scale(self) -> float:
        """omega0 * tau_l [rad]: converts fractional shifts to phase."""
        return self.omega0 * self.tau_l


@dataclass(frozen=True)
class RedshiftParams:
    """Position-invariance violation strength; alpha = 0 reproduces GR."""

    alpha: float = 0.0

    def __post_init__(self):
        if abs(self.alpha) >= 1.0:
            raise ValueError(f"|alpha| must be < 1, got {self.alpha}")


@dataclass(frozen=True)
class PhasePair:
    """Fringe phases at the two terminals and their combination [rad], (N,) per epoch."""

    phi_sc: np.ndarray
    phi_gs: np.ndarray
    s_signal: np.ndarray


def gravitational_phase(cfg: OpticalConfig, g: float, h: float, alpha: float = 0.0) -> float:
    """Uniform-field estimate of the gravitational fringe phase [rad].

    (1 + alpha) * (2 pi / lambda) * g * h * l / c^2 for station-spacecraft
    height difference h and arm imbalance l. About 2 rad for an 800 nm
    laser, a 6 km delay, and a 400 km orbit.
    """
    if h < 0.0:
        raise ValueError("height must be non-negative")
    if g <= 0.0:
        raise ValueError("g must be positive")
    return (1.0 + alpha) * _TWO_PI / cfg.lambda0 * g * h * cfg.delay_length / C_LIGHT**2


def _check_denominator(value, label: str) -> None:
    _reject(np.asarray(value) < _MIN_DENOMINATOR, value, DegenerateGeometry,
            f"{label} = {{:.6f}} below trusted region (>= {_MIN_DENOMINATOR})")


def _potential_term_minus_one(geom: LinkGeometry, alpha: float):
    """(time-dilation factor ratio) - 1, alpha scaling the potential part."""
    b1_sq = _dot(geom.beta1, geom.beta1)
    b2_sq = _dot(geom.beta2, geom.beta2)
    denominator = 1.0 - geom.U2 - 0.5 * b2_sq
    _check_denominator(denominator, "time-dilation denominator")
    numerator = (1.0 + alpha) * (geom.U2 - geom.U1) + 0.5 * (b2_sq - b1_sq)
    return numerator / denominator


def _uplink_doppler_minus_one(geom: LinkGeometry):
    """((1 - n12.beta2)/(1 - n12.beta1)) - 1."""
    denominator = 1.0 - geom.d1
    _check_denominator(denominator, "uplink Doppler denominator")
    return (geom.d1 - geom.d2) / denominator


def _downlink_doppler_minus_one(geom: LinkGeometry):
    """((1 - n23.beta3)/(1 - n23.beta2)) - 1."""
    e2 = _dot(geom.n23, geom.beta2)
    denominator = 1.0 - e2
    _check_denominator(denominator, "downlink Doppler denominator")
    return (e2 - geom.d3) / denominator


def uplink_fractional_shift(geom: LinkGeometry, alpha: float = 0.0):
    """(uplink frequency ratio) - 1, evaluated without cancellation loss."""
    a = _potential_term_minus_one(geom, alpha)
    b = _uplink_doppler_minus_one(geom)
    return a + b + a * b


def roundtrip_fractional_shift(geom: LinkGeometry):
    """(round-trip frequency ratio) - 1, evaluated without cancellation loss.

    Potential factors are absent: emission and final detection happen at
    the same potential, so the two gravitational shifts cancel exactly.
    This assumes the ground station is the common endpoint of both legs.
    """
    c = _downlink_doppler_minus_one(geom)
    b = _uplink_doppler_minus_one(geom)
    return c + b + c * b


def uplink_frequency_ratio(geom: LinkGeometry, alpha: float = 0.0):
    """Received-over-emitted frequency at the spacecraft, exact form.

    ((1 - U1 - beta1^2/2)/(1 - U2 - beta2^2/2)) *
    ((1 - n12.beta2)/(1 - n12.beta1)); alpha rescales the potential
    difference inside the first factor.
    """
    return 1.0 + uplink_fractional_shift(geom, alpha)


def roundtrip_frequency_ratio(geom: LinkGeometry):
    """Received-over-emitted frequency back at the station, exact form."""
    return 1.0 + roundtrip_fractional_shift(geom)


def redshift_fraction(red: RedshiftParams, u1: float, u2: float):
    """Fractional frequency shift (1 + alpha)(U2 - U1) of the bare red-shift."""
    return (1.0 + red.alpha) * (u2 - u1)


def phase_pair(geom: LinkGeometry, cfg: OpticalConfig, red: RedshiftParams) -> PhasePair:
    """Exact fringe phases at both terminals and the combined signal."""
    scale = cfg.phase_scale
    phi_sc = scale * uplink_fractional_shift(geom, red.alpha)
    phi_gs = scale * roundtrip_fractional_shift(geom)
    return PhasePair(phi_sc=phi_sc, phi_gs=phi_gs, s_signal=phi_sc - 0.5 * phi_gs)


def velocity_terms(geom: LinkGeometry):
    """Kinematic part of the second-order expansion of s/(omega0 tau_l).

    0.5|beta1 - beta2|^2 - (d1 - d2)^2 - T n12.a1/c. These are the terms
    an analysis subtracts using known orbit geometry, leaving the
    potential difference.
    """
    db = geom.beta1 - geom.beta2
    second_doppler = 0.5 * _dot(db, db)
    aberration_sq = (geom.d1 - geom.d2) ** 2
    acceleration = geom.t_up * _dot(geom.n12, geom.a1) / C_LIGHT
    return second_doppler - aberration_sq - acceleration


def expanded_signal(geom: LinkGeometry, red: RedshiftParams):
    """Second-order model of s/(omega0 tau_l).

    (1 + alpha)(U2 - U1) + 0.5|beta1 - beta2|^2 - (d1 - d2)^2
    - T n12.a1/c. Agrees with the exact pipeline to O(beta^3).
    """
    return redshift_fraction(red, geom.U1, geom.U2) + velocity_terms(geom)


def first_order_doppler_shift(geom: LinkGeometry):
    """Leading line-of-sight Doppler part of the uplink shift, d1 - d2."""
    return geom.d1 - geom.d2
