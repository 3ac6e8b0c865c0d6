"""Spin-rotation/spin-acceleration couplings and weak-value amplification.

Single spin: the rotation coupling -(hbar/2) w.sigma, a momentum-dependent
acceleration term (hbar/4mc^2) sigma.(a x p), and the phenomenological
uniform-acceleration coupling (hbar k/2c) a.sigma whose k = 1 point is the
prediction of the standard low-energy reduction of the Dirac equation.

Two spins: an exchange term J sigma_x(x)sigma_x plus the same single-spin
couplings on both spins, with the rotation encoded through the
dimensionless h_i = -c w_i / g. The builder exposes the split
H = J*H0 + H1 with H0 the dimensionless exchange structure and H1 the
acceleration-proportional part.

Weak measurement: a pointer with Gaussian wavefunction is kicked by
exp(-i q A p_hat / hbar-equivalent) so its position shifts by q*a on each
eigenvalue a of the selected observable A; after post-selection the mean
pointer shift approaches q*Re(A_w) with weak value
A_w = <f|A|i>/<f|i>, which can far exceed the eigenvalue range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import C_LIGHT, EV, G_STD, HBAR, MU_B_EV, OMEGA_EARTH
from .errors import BadAxis, NonHermitian, OrthogonalSelection

_PAULI = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_ID2 = np.eye(2, dtype=complex)
_HERMITICITY_TOL = 1e-10
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


@dataclass(frozen=True)
class QuantumState:
    """Normalized state of one spin (dim 2) or two spins (dim 4)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] not in (2, 4):
            raise ValueError(f"state dimension must be 2 or 4, got {amps.shape[0]}")
        norm = float(np.linalg.norm(amps))
        if not 1.0 - 1e-9 < norm < 1.0 + 1e-9:
            raise ValueError(f"state norm {norm} is not 1 within 1e-9")
        object.__setattr__(self, "amplitudes", amps / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def qubit(theta: float, phi: float = 0.0) -> QuantumState:
    """cos(theta)|0> + e^{i phi} sin(theta)|1>."""
    return QuantumState(
        np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])
    )


@dataclass(frozen=True)
class SpinCouplingParams:
    """Couplings for the spin Hamiltonians.

    g : m/s^2, acceleration magnitude along a_axis.
    omega : rad/s 3-vector, frame rotation.
    k : dimensionless acceleration-coupling strength (1 = standard value).
    m : kg, particle mass (only the momentum term uses it).
    p : kg m/s 3-vector, particle momentum.
    a_axis : unit direction of the acceleration (normalized on use).
    exchange : J, two-spin exchange energy (the J of the pair coupling).
    t : s, interaction duration.
    h_vec : dimensionless 3-vector h_i = -c*omega_i/g; derived from omega
        and g when not given.
    lambda_c : dimensionless exchange*t/hbar; derived when not given.
    """

    g: float = G_STD
    omega: tuple = (0.0, 0.0, 0.0)
    k: float = 1.0
    m: float = 1.0
    p: tuple = (0.0, 0.0, 0.0)
    a_axis: tuple = (0.0, 0.0, 1.0)
    exchange: float = 0.0
    t: float = 1.0
    h_vec: tuple = field(default=None)  # type: ignore[assignment]
    lambda_c: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        axis = np.asarray(self.a_axis, dtype=float)
        norm = float(np.linalg.norm(axis))
        if norm == 0.0:
            raise BadAxis("acceleration axis has zero length")
        object.__setattr__(self, "a_axis", axis / norm)
        if self.m <= 0.0:
            raise ValueError("mass must be positive")
        if self.h_vec is None:
            if self.g <= 0.0:
                raise ValueError("g must be positive to derive h_vec = -c*omega/g")
            object.__setattr__(self, "h_vec", -C_LIGHT * self.omega / self.g)
        else:
            object.__setattr__(self, "h_vec", np.asarray(self.h_vec, dtype=float))
        derived_lambda = self.exchange * self.t / HBAR
        if self.lambda_c is None:
            object.__setattr__(self, "lambda_c", derived_lambda)
        elif abs(self.lambda_c - derived_lambda) > 1e-12 * max(1.0, abs(derived_lambda)):
            raise ValueError(
                f"lambda_c = {self.lambda_c} inconsistent with exchange*t/hbar "
                f"= {derived_lambda}"
            )

    @property
    def acceleration(self) -> np.ndarray:
        """a = g * a_axis [m/s^2]."""
        return self.g * self.a_axis


@dataclass(frozen=True)
class GaussianMeter:
    """One-dimensional Gaussian pointer; width is the rms spread of |psi|^2."""

    mean: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0.0:
            raise ValueError("meter width must be positive")

    def wavefunction(self, x: np.ndarray) -> np.ndarray:
        s = self.width
        return (2.0 * math.pi * s * s) ** -0.25 * np.exp(
            -((x - self.mean) ** 2) / (4.0 * s * s)
        )


def h_sigma(params: SpinCouplingParams) -> np.ndarray:
    """Rotation + momentum-dependent acceleration coupling, 2x2 [J].

    -(hbar/2) omega.sigma + (hbar/(4 m c^2)) sigma.(a x p).
    """
    cross = np.cross(params.acceleration, params.p)
    return (
        -0.5 * HBAR * pauli_dot(params.omega)
        + HBAR / (4.0 * params.m * C_LIGHT**2) * pauli_dot(cross)
    )


def h_ext(params: SpinCouplingParams) -> np.ndarray:
    """Uniform-acceleration spin coupling (hbar k / 2c) a.sigma, 2x2 [J]."""
    return 0.5 * HBAR * params.k / C_LIGHT * pauli_dot(params.acceleration)


def _one_plus_two(op: np.ndarray) -> np.ndarray:
    """Single-spin operator acting identically on both spins of a pair."""
    return np.kron(op, _ID2) + np.kron(_ID2, op)


@dataclass(frozen=True)
class TwoSpinHamiltonian:
    """4x4 pair Hamiltonian with its exchange/coupling split.

    total = exchange * h0 + h1, where h0 = sigma_x (x) sigma_x is
    dimensionless and h1 carries the acceleration-scale couplings [J].
    """

    total: np.ndarray
    h0: np.ndarray
    h1: np.ndarray
    exchange: float


def two_spin_hamiltonian(params: SpinCouplingParams) -> TwoSpinHamiltonian:
    """Exchange-coupled pair with rotation and acceleration couplings.

    exchange * sigma_x(x)sigma_x + (hbar g / 2c) * [ h_x (sx1 + sx2)
    + h_y (sy1 + sy2) + (h_z + k)(sz1 + sz2) ].
    """
    h0 = np.kron(_PAULI[1], _PAULI[1])
    hx, hy, hz = params.h_vec
    scale = 0.5 * HBAR * params.g / C_LIGHT
    h1 = scale * (
        hx * _one_plus_two(_PAULI[1])
        + hy * _one_plus_two(_PAULI[2])
        + (hz + params.k) * _one_plus_two(_PAULI[3])
    )
    return TwoSpinHamiltonian(
        total=params.exchange * h0 + h1, h0=h0, h1=h1, exchange=params.exchange
    )


def _require_hermitian(h: np.ndarray) -> None:
    scale = float(np.linalg.norm(h))
    if scale == 0.0:
        return
    if float(np.linalg.norm(h - h.conj().T)) > _HERMITICITY_TOL * scale:
        raise NonHermitian("operator is not Hermitian within tolerance")


def evolve(state: QuantumState, hamiltonian: np.ndarray, t: float) -> QuantumState:
    """exp(-i H t / hbar)|psi> by exact eigendecomposition (dim <= 4)."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (state.dim, state.dim):
        raise ValueError(f"H shape {h.shape} does not match state dim {state.dim}")
    _require_hermitian(h)
    energies, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * t / HBAR)
    amps = vectors @ (phases * (vectors.conj().T @ state.amplitudes))
    return QuantumState(amps)


def weak_value(a_op: np.ndarray, s_i: QuantumState, s_f: QuantumState) -> complex:
    """<f|A|i> / <f|i>; complex in general."""
    a = np.asarray(a_op, dtype=complex)
    if a.shape != (s_i.dim, s_i.dim) or s_i.dim != s_f.dim:
        raise ValueError("operator/state dimensions do not match")
    _require_hermitian(a)
    overlap = complex(s_f.amplitudes.conj() @ s_i.amplitudes)
    if abs(overlap) < _ORTHOGONALITY_TOL:
        raise OrthogonalSelection(
            f"|<f|i>| = {abs(overlap):.3e}; weak value undefined"
        )
    return complex(s_f.amplitudes.conj() @ a @ s_i.amplitudes) / overlap


class MeterShift(NamedTuple):
    shift_exact: np.ndarray  # each field has q's shape, a scalar for a float q
    shift_weak: np.ndarray
    postselection_prob: np.ndarray


def meter_shift(
    q,
    a_op: np.ndarray,
    s_i: QuantumState,
    s_f: QuantumState,
    meter: GaussianMeter,
) -> MeterShift:
    """Pointer displacement after a kick of strength q and post-selection.

    q is a float or an array (...,), and each result field has q's shape.
    The exact value expands the kicked joint state in the eigenbasis of the
    observable: the post-selected pointer wave is a finite sum of displaced
    Gaussians sum_a w_a psi(x - q a), w_a = <f|a><a|i>. The product of two
    of them is a Gaussian centred at mean + q (a + b) / 2 scaled by
    exp(-q^2 (a - b)^2 / 8 s^2), so the norm and the mean are exact sums
    over eigenvalue pairs, taken for every q at once. The weak-regime
    prediction is q*Re(A_w); their difference is O((q/width)^2) for small q
    and order-unity once q reaches the meter width. A selection with zero
    weight at any q raises OrthogonalSelection.
    """
    a_w = weak_value(a_op, s_i, s_f)  # raises on orthogonal selection
    eigvals, eigvecs = np.linalg.eigh(np.asarray(a_op, dtype=complex))
    weights = (s_f.amplitudes.conj() @ eigvecs) * (eigvecs.conj().T @ s_i.amplitudes)
    # the (n, n) eigenvalue pairs run flattened along a new last axis of q
    q = np.asarray(q, dtype=float)
    kick = q[..., None]
    gap = kick * (eigvals[:, None] - eigvals[None, :]).ravel() / meter.width
    pairs = (weights.conj()[:, None] * weights[None, :]).real.ravel() * np.exp(-gap * gap / 8.0)
    prob = pairs.sum(axis=-1)
    if (prob <= 0.0).any():
        raise OrthogonalSelection("post-selected pointer state has zero weight")
    pair_shifts = 0.5 * kick * (eigvals[:, None] + eigvals[None, :]).ravel()
    # [()] turns the 0-d results of a float q into scalars
    return MeterShift(
        shift_exact=((pairs * pair_shifts).sum(axis=-1) / prob)[()],
        shift_weak=(q * a_w.real)[()],
        postselection_prob=prob[()],
    )


@dataclass(frozen=True)
class ConstantRow:
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
    coupling is than the acceleration one.
    """
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


def amplification_scan(
    theta_values,
    q_values,
    meter: GaussianMeter,
) -> np.ndarray:
    """Weak-value amplification sweep for the textbook example.

    Observable sigma_x, pre-selection |0>, post-selection
    cos(theta)|0> + sin(theta)|1>, so A_w = tan(theta). Returns a float
    array (len(theta_values) * len(q_values), 7) with rows (theta, q,
    Re A_w, Im A_w, shift_exact, shift_weak, postselection_prob), theta
    major: one weak_value and one meter_shift call over every q per theta.
    """
    sx = pauli(1)
    s_i = QuantumState(np.array([1.0, 0.0]))
    thetas = np.asarray(theta_values, dtype=float)
    q = np.asarray(q_values, dtype=float)
    a_w = np.empty(thetas.size, dtype=complex)
    shifts = np.empty((3, thetas.size, q.size))
    for k, theta in enumerate(thetas):
        s_f = qubit(theta)
        a_w[k] = weak_value(sx, s_i, s_f)
        shifts[:, k] = meter_shift(q, sx, s_i, s_f, meter)
    columns = (thetas[:, None], q, a_w.real[:, None], a_w.imag[:, None], *shifts)
    return np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, 7)
