"""Spin-rotation/spin-acceleration couplings and weak-value amplification.

Single spin, from numbers and 3-vectors: h_sigma(omega, acceleration, m, p) is
the rotation coupling -(hbar/2) w.sigma plus a momentum-dependent acceleration
term (hbar/4mc^2) sigma.(a x p) (Hehl & Ni, PRD 42, 2045, 1990), and
h_ext(acceleration, k) the phenomenological uniform-acceleration coupling
(hbar k/2c) a.sigma, whose k = 1 point is the prediction of the standard
low-energy reduction of the Dirac equation.

Two spins: two_spin_hamiltonian(single, exchange) is an exchange term
J sigma_x(x)sigma_x plus the one-spin matrix single = h_sigma + h_ext acting on
each spin of the pair.

Weak measurement, the textbook case: observable sigma_x, pre-selection |0>,
post-selection cos(theta)|0> + sin(theta)|1>, and a Gaussian pointer of rms
width w kicked by q on each eigenvalue. The weak value <f|sigma_x|i>/<f|i>
is tan(theta), which exceeds the eigenvalue range as theta nears 90 degrees.
The post-selected pointer is two displaced Gaussians, so its norm and mean
are closed forms (Aharonov, Albert & Vaidman, PRL 60, 1351, 1988; Duck,
Stevenson & Sudarshan, PRD 40, 2112, 1989):
P = (1 + cos(2 theta) exp(-q^2/2w^2)) / 2 and shift = q sin(theta) cos(theta) / P,
which tends to q tan(theta) for q << w.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import C_LIGHT, EV, G_STD, HBAR, MU_B_EV, OMEGA_EARTH
from .errors import BadAxis, OrthogonalSelection, reject

_PAULI = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_ID2 = np.eye(2, dtype=complex)
_ORTHOGONALITY_TOL = 1e-12


def pauli(axis: int) -> np.ndarray:
    """Standard Pauli matrix for axis 1, 2, or 3."""
    try:
        return _PAULI[axis].copy()
    except (KeyError, TypeError):
        raise BadAxis(f"axis must be 1, 2, or 3, got {axis!r}") from None


def pauli_dot(vector) -> np.ndarray:
    """v . sigma for a real or complex 3-vector v."""
    v = np.asarray(vector)
    if v.shape != (3,):
        raise BadAxis(f"expected a 3-vector, got shape {v.shape}")
    return v[0] * _PAULI[1] + v[1] * _PAULI[2] + v[2] * _PAULI[3]


def _check_finite(**values) -> None:
    """ValueError naming the first argument with an entry that is not finite."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def h_sigma(omega, acceleration, m: float = 1.0, p=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Rotation + momentum-dependent acceleration coupling, 2x2 [J].

    -(hbar/2) omega.sigma + (hbar/(4 m c^2)) sigma.(a x p), with the frame rotation
    omega [rad/s], the acceleration a [m/s^2] and the momentum p [kg m/s] 3-vectors
    and the mass m [kg] positive.
    """
    _check_finite(omega=omega, acceleration=acceleration, p=p)
    if not 0.0 < m < math.inf:
        raise ValueError(f"m must be positive and finite, got {m}")
    for vector in (acceleration, p):  # np.cross would read a 2-vector as (x, y, 0)
        if np.shape(vector) != (3,):
            raise BadAxis(f"expected a 3-vector, got shape {np.shape(vector)}")
    return (-0.5 * HBAR * pauli_dot(omega)
            + HBAR / (4.0 * m * C_LIGHT**2) * pauli_dot(np.cross(acceleration, p)))


def h_ext(acceleration, k: float = 1.0) -> np.ndarray:
    """Uniform-acceleration spin coupling (hbar k / 2c) a.sigma, 2x2 [J]; k = 1 is the
    standard strength."""
    _check_finite(acceleration=acceleration, k=k)
    return 0.5 * HBAR * k / C_LIGHT * pauli_dot(acceleration)


def two_spin_hamiltonian(single, exchange: float) -> np.ndarray:
    """4x4 pair Hamiltonian [J]: exchange * sigma_x(x)sigma_x + single(x)1 + 1(x)single,
    with single the 2x2 coupling of one spin, h_sigma + h_ext."""
    _check_finite(exchange=exchange)
    single = np.asarray(single)
    if single.shape != (2, 2):
        raise ValueError(f"single must be a 2x2 matrix, got shape {single.shape}")
    return (exchange * np.kron(_PAULI[1], _PAULI[1])
            + np.kron(single, _ID2) + np.kron(_ID2, single))


class ConstantRow(NamedTuple):
    name: str
    value: float
    units: str
    reference: float

    @property
    def rel_deviation(self) -> float:
        return abs(self.value - self.reference) / abs(self.reference)


def constants_report(g: float = G_STD) -> tuple[ConstantRow, ...]:
    """Benchmark numbers of the spin-acceleration coupling at strength k=1.

    The acceleration energy scale hbar*g/c, the magnetic field whose
    level splitting matches it, and how much stronger the Earth-rotation
    coupling is than the acceleration one. ValueError unless 0 < g < inf.
    """
    if not 0.0 < g < math.inf:
        raise ValueError("g must be positive")
    energy_ev = HBAR * g / C_LIGHT / EV
    return (
        ConstantRow(
            name="acceleration_energy_scale",
            value=energy_ev,
            units="eV",
            reference=2.15e-23,
        ),
        ConstantRow(
            name="equivalent_magnetic_field",
            value=energy_ev / MU_B_EV,
            units="T",
            reference=3.7e-19,
        ),
        ConstantRow(
            name="rotation_to_acceleration_ratio",
            value=OMEGA_EARTH * C_LIGHT / g,
            units="",
            reference=2.22e3,
        ),
    )


def orthogonal_selections(theta_values) -> np.ndarray:
    """Thetas that amplification_scan rejects: the post-selection's overlap with |0>,
    |cos(theta)|, is below 1e-12, so the weak value tan(theta) is undefined."""
    return np.abs(np.cos(np.asarray(theta_values, dtype=float))) < _ORTHOGONALITY_TOL


def amplification_scan(theta_values, q_values, width: float) -> tuple:
    """Weak-value amplification sweep for the textbook example, in closed form.

    Returns the float columns (theta, q, Re A_w, Im A_w, shift_exact, shift_weak,
    postselection_prob) for n thetas (a float theta counts as one) and m kicks,
    at shapes that broadcast to (n, m), rows theta major: theta and Re A_w
    (n, 1), q (m,), Im A_w a 0-d zero, the rest (n, m). A_w = tan(theta),
    shift_weak = q tan(theta), shift_exact = q sin(theta) cos(theta) / P and
    P = cos^2(theta) + cos(2 theta) expm1(-(q/w)^2/2) / 2, the module's
    (1 + cos(2 theta) exp(-q^2/2w^2)) / 2 written so that it does not cancel
    near 90 degrees: both terms are >= 0 where cos(2 theta) < 0, and P >= 1/2
    elsewhere. The meter width must be positive and finite (else ValueError),
    and a theta in orthogonal_selections raises OrthogonalSelection.
    """
    if not 0.0 < width < math.inf:
        raise ValueError(f"meter width must be positive and finite, got {width}")
    thetas = np.asarray(theta_values, dtype=float)
    reject(orthogonal_selections(thetas), OrthogonalSelection,
           "|<f|i>| = {:.3e}; weak value undefined", np.abs(np.cos(thetas)), what="selection")
    theta, q = thetas[..., None], np.asarray(q_values, dtype=float)
    cos, sin, tan = np.cos(theta), np.sin(theta), np.tan(theta)
    with np.errstate(over="ignore"):  # a kick past the float range gives expm1(-inf) = -1, exact
        prob = cos * cos + 0.5 * np.cos(2.0 * theta) * np.expm1(-0.5 * (q / width) ** 2)
    return theta, q, tan, np.zeros(()), q * (sin * cos) / prob, q * tan, prob
