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

phase_pair and expanded_signal take a LinkGeometry batch and return one
value per epoch, (N,).

Numerical note: the ratios sit within ~1e-10 of unity, so phase_pair
evaluates each ratio - 1 from rearranged differences instead of forming
the ratio and subtracting. Naive evaluation loses six digits, which is
fatal at the 1e-15 tolerances the phase combination must hold.

Sign conventions: potentials U = GM/(c^2 r) are positive and larger at
the station than at the spacecraft, so an uplink is red-shifted and the
static phi_sc is negative. phi > 0 means received frequency above emitted.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import C_LIGHT
from .kinematics import LinkGeometry, _dot

_TWO_PI = 2.0 * math.pi


def phase_scale(lambda0: float, tau_l: float) -> float:
    """omega0 * tau_l [rad], omega0 = 2*pi*c/lambda0: converts fractional shifts to phase.

    lambda0 is the carrier wavelength [m] and tau_l the proper delay of both
    interferometers [s]. Raises ValueError unless the result is positive and finite.
    """
    return _check_scale(_TWO_PI * C_LIGHT / lambda0 * tau_l if lambda0 else math.inf)  # 2pi c/0


def _check_scale(scale: float) -> float:
    """scale, phase_scale's omega0 * tau_l; ValueError unless it is positive and finite."""
    if not 0.0 < scale < math.inf:
        raise ValueError(f"omega0*tau_l = {scale} must be {'positive' if scale <= 0 else 'finite'}")
    return scale


def _check_alpha(alpha: float) -> None:
    """The position-invariance violation strength lies in (-1, 1); alpha = 0 reproduces GR."""
    if not abs(alpha) < 1.0:
        raise ValueError(f"|alpha| must be < 1, got {alpha}")


class PhasePair(NamedTuple):
    """Fringe phases at the two terminals, their combination and its derivative in
    alpha [rad], (N,) per epoch; s is affine in alpha, so ds_dalpha is exact."""

    phi_sc: np.ndarray
    phi_gs: np.ndarray
    s_signal: np.ndarray
    ds_dalpha: np.ndarray


def gravitational_phase(scale: float, g: float, h: float, alpha: float = 0.0) -> float:
    """Uniform-field estimate of the gravitational fringe phase [rad].

    (1 + alpha) * omega0 * tau_l * g * h / c^2 (scale = phase_scale, as for
    every pass phase) for station-spacecraft height difference h. About 2 rad
    for an 800 nm laser, a 6 km vacuum delay, and a 400 km orbit.
    """
    _check_scale(scale)
    _check_alpha(alpha)
    if not 0.0 <= h < math.inf:
        raise ValueError("height must be non-negative")
    if not 0.0 < g < math.inf:
        raise ValueError("g must be positive")
    return (1.0 + alpha) * scale * g * h / C_LIGHT**2


def phase_pair(geom: LinkGeometry, scale: float, alpha: float = 0.0) -> PhasePair:
    """Exact fringe phases at both terminals and the combined signal; scale is
    phase_scale's omega0 * tau_l.

    The uplink ratio is the time-dilation factor (alpha scaling its potential
    part) times the uplink Doppler factor (1 - n12.beta2)/(1 - n12.beta1); the
    round trip is that Doppler factor times the downlink one
    (1 - n23.beta3)/(1 - n23.beta2), with no potential factor, because
    emission and final detection both happen at the station (at U1). Each
    factor - 1 (a, b, c) is formed once, and each ratio - 1 as x + b + x*b;
    only a holds alpha, so ds_dalpha = scale * (U2 - U1) * (1 + b) / den, den the
    denominator of a.
    LinkGeometry's checks (|beta| < 4e-5, 0 < U < 1e-8, |n| = 1 +- 1e-9)
    keep 1 - U2 - |beta2|^2/2 above 1 - 1.1e-8 and 1 - n12.beta1 and
    1 - n23.beta2 above 1 - 4.0001e-5, so no denominator can approach zero.
    """
    _check_scale(scale)
    _check_alpha(alpha)
    b1_sq = _dot(geom.beta1, geom.beta1)
    b2_sq = _dot(geom.beta2, geom.beta2)
    du, den = geom.U2 - geom.U1, 1.0 - geom.U2 - 0.5 * b2_sq
    a = ((1.0 + alpha) * du + 0.5 * (b2_sq - b1_sq)) / den
    b = (geom.d1 - geom.d2) / (1.0 - geom.d1)
    e2 = _dot(geom.n23, geom.beta2)
    c = (e2 - geom.d3) / (1.0 - e2)
    phi_sc = scale * (a + b + a * b)
    phi_gs = scale * (c + b + c * b)
    return PhasePair(phi_sc=phi_sc, phi_gs=phi_gs, s_signal=phi_sc - 0.5 * phi_gs,
                     ds_dalpha=scale * du * (1.0 + b) / den)


def expanded_signal(geom: LinkGeometry, alpha: float = 0.0):
    """Second-order model of s/(omega0 tau_l).

    (1 + alpha)(U2 - U1) + 0.5|beta1 - beta2|^2 - (d1 - d2)^2 - T n12.a1/c:
    the potential difference plus the kinematic terms an analysis subtracts
    using known orbit geometry. Agrees with the exact pipeline to O(beta^3).
    """
    _check_alpha(alpha)
    db = geom.beta1 - geom.beta2
    kinematic = (0.5 * _dot(db, db) - (geom.d1 - geom.d2) ** 2
                 - geom.t_up * _dot(geom.n12, geom.a1) / C_LIGHT)
    return (1.0 + alpha) * (geom.U2 - geom.U1) + kinematic
