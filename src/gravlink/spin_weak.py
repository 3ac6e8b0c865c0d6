"""Spin-rotation/spin-acceleration couplings and weak-value amplification.

Single spin: the rotation coupling -(hbar/2) w.sigma, a momentum-dependent
acceleration term (hbar/4mc^2) sigma.(a x p), and the phenomenological
uniform-acceleration coupling (hbar k/2c) a.sigma whose k = 1 point is the
prediction of the standard low-energy reduction of the Dirac equation.

Two spins: an exchange term J sigma_x(x)sigma_x plus the single-spin
coupling h_sigma + h_ext acting on each spin of the pair.

Weak measurement: a pointer with Gaussian wavefunction is kicked by
exp(-i q A p_hat / hbar-equivalent) so its position shifts by q*a on each
eigenvalue a of the selected observable A; after post-selection the mean
pointer shift approaches q*Re(A_w) with weak value
A_w = <f|A|i>/<f|i>, which can far exceed the eigenvalue range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import C_LIGHT, EV, G_STD, HBAR, MU_B_EV, OMEGA_EARTH
from .errors import BadAxis, NonHermitian, OrthogonalSelection, reject

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
    """Normalized state of one spin (dim 2) or two spins (dim 4), or a batch (..., dim)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex))
        if amps.shape[-1] not in (2, 4):
            raise ValueError(f"state dimension must be 2 or 4, got {amps.shape[-1]}")
        norm = np.linalg.norm(amps, axis=-1)
        reject(~((1.0 - 1e-9 < norm) & (norm < 1.0 + 1e-9)), ValueError,
               "state norm {} is not 1 within 1e-9", norm, what="state")
        object.__setattr__(self, "amplitudes", amps / norm[..., None])

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[-1]


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
    t : s, interaction duration; only lambda_c reads it.
    g and m must be positive, every field finite and a_axis of positive
    length; h_vec and lambda_c are derived, read-only.
    """

    g: float = G_STD
    omega: tuple = (0.0, 0.0, 0.0)
    k: float = 1.0
    m: float = 1.0
    p: tuple = (0.0, 0.0, 0.0)
    a_axis: tuple = (0.0, 0.0, 1.0)
    exchange: float = 0.0
    t: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        axis = np.asarray(self.a_axis, dtype=float)
        norm = float(np.linalg.norm(axis))
        if not 0.0 < norm < math.inf:
            raise BadAxis(f"acceleration axis length {norm} is not finite and positive")
        object.__setattr__(self, "a_axis", axis / norm)
        for name in ("m", "g"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("k", "exchange", "t", "omega", "p"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def h_vec(self) -> np.ndarray:
        """Dimensionless rotation coupling h_i = -c*omega_i/g."""
        return -C_LIGHT * self.omega / self.g

    @property
    def lambda_c(self) -> float:
        """Dimensionless exchange*t/hbar."""
        return self.exchange * self.t / HBAR

    @property
    def acceleration(self) -> np.ndarray:
        """a = g * a_axis [m/s^2]."""
        return self.g * self.a_axis


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


def two_spin_hamiltonian(params: SpinCouplingParams) -> np.ndarray:
    """4x4 pair Hamiltonian [J]: exchange * sigma_x(x)sigma_x + single(x)1 + 1(x)single,
    with single = h_sigma + h_ext, the coupling of one spin."""
    single = h_sigma(params) + h_ext(params)
    return (params.exchange * np.kron(_PAULI[1], _PAULI[1])
            + np.kron(single, _ID2) + np.kron(_ID2, single))


def _require_hermitian(h: np.ndarray) -> None:
    scale = float(np.linalg.norm(h))
    if scale == 0.0:
        return
    if float(np.linalg.norm(h - h.conj().T)) > _HERMITICITY_TOL * scale:
        raise NonHermitian("operator is not Hermitian within tolerance")


def weak_value(a_op: np.ndarray, s_i: QuantumState, s_f: QuantumState) -> complex | np.ndarray:
    """<f|A|i> / <f|i>; complex in general, an array (...) for one s_i and a batch s_f (..., n)."""
    a = np.asarray(a_op, dtype=complex)
    if a.shape != (s_i.dim, s_i.dim) or s_i.amplitudes.shape != (s_f.dim,):
        raise ValueError("operator/state dimensions do not match")
    _require_hermitian(a)
    overlap = s_f.amplitudes.conj() @ s_i.amplitudes
    magnitude = np.abs(overlap)
    reject(magnitude < _ORTHOGONALITY_TOL, OrthogonalSelection,
           "|<f|i>| = {:.3e}; weak value undefined", magnitude, what="selection")
    return ((s_f.amplitudes.conj() @ a @ s_i.amplitudes) / overlap)[()]


class MeterShift(NamedTuple):
    shift_exact: np.ndarray  # each field has q's shape, a scalar for a float q
    shift_weak: np.ndarray
    postselection_prob: np.ndarray


def meter_shift(
    q,
    a_op: np.ndarray,
    s_i: QuantumState,
    s_f: QuantumState,
    width: float = 1.0,
) -> MeterShift:
    """Pointer displacement after a kick of strength q and post-selection.

    The meter is a one-dimensional Gaussian pointer centred at 0 whose
    |psi|^2 has rms spread width, positive and finite (else ValueError).
    q is a float or an array (...,) and s_f one state or a batch (..., n);
    each result field has the broadcast shape of q and the batch.
    The exact value expands the kicked joint state in the eigenbasis of the
    observable: the post-selected pointer wave is a finite sum of displaced
    Gaussians sum_a w_a psi(x - q a), w_a = <f|a><a|i>. The product of two
    of them is a Gaussian centred at q (a + b) / 2 scaled by
    exp(-q^2 (a - b)^2 / 8 width^2), so the norm and the mean are exact sums
    over eigenvalue pairs, taken for every q and selection at once. The
    weak-regime prediction is q*Re(A_w); their difference is O((q/width)^2)
    for small q and order-unity once q reaches the meter width. A selection
    with zero weight at any q raises OrthogonalSelection.
    """
    if not 0.0 < width < math.inf:
        raise ValueError(f"meter width must be positive and finite, got {width}")
    a_w = weak_value(a_op, s_i, s_f)  # raises on orthogonal selection
    eigvals, eigvecs = np.linalg.eigh(np.asarray(a_op, dtype=complex))
    weights = (s_f.amplitudes.conj() @ eigvecs) * (eigvecs.conj().T @ s_i.amplitudes)
    # the (n, n) eigenvalue pairs run flattened along a new last axis
    pairs = (weights.conj()[..., :, None] * weights[..., None, :]).real
    q = np.asarray(q, dtype=float)
    kick = q[..., None]
    with np.errstate(over="ignore"):  # a gap past the float range gives exp(-inf) = 0, exact
        gap = kick * (eigvals[:, None] - eigvals[None, :]).ravel() / width
        pairs = pairs.reshape(*pairs.shape[:-2], eigvals.size**2) * np.exp(-gap * gap / 8.0)
    prob = pairs.sum(axis=-1)
    reject(prob <= 0.0, OrthogonalSelection, "post-selected pointer state has zero weight",
           what="shift")
    pair_shifts = 0.5 * kick * (eigvals[:, None] + eigvals[None, :]).ravel()
    # [()] turns the 0-d results of a float q and one state into scalars
    return MeterShift(
        shift_exact=((pairs * pair_shifts).sum(axis=-1) / prob)[()],
        shift_weak=(q * a_w.real)[()],
        postselection_prob=prob[()],
    )


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


def orthogonal_selections(theta_values) -> np.ndarray:
    """Thetas whose selection weak_value rejects in amplification_scan: |cos(theta)| too small."""
    return np.abs(np.cos(np.asarray(theta_values, dtype=float))) < _ORTHOGONALITY_TOL


def amplification_scan(theta_values, q_values, width: float) -> np.ndarray:
    """Weak-value amplification sweep for the textbook example.

    Observable sigma_x, pre-selection |0>, post-selection
    cos(theta)|0> + sin(theta)|1>, so A_w = tan(theta), read by a meter of
    the given width (meter_shift). Returns a float array
    (len(theta_values) * len(q_values), 7) with rows (theta, q, Re A_w,
    Im A_w, shift_exact, shift_weak, postselection_prob), theta major, in
    one array pass: weak_value and meter_shift each take the batch of
    post-selections (n_theta, 1, 2) once and broadcast it against q. A
    theta in orthogonal_selections raises OrthogonalSelection.
    """
    sx = pauli(1)
    s_i = QuantumState(np.array([1.0, 0.0]))
    thetas = np.asarray(theta_values, dtype=float)
    q = np.asarray(q_values, dtype=float)
    s_f = QuantumState(np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)[:, None, :])
    a_w = weak_value(sx, s_i, s_f)  # (n_theta, 1); raises on an orthogonal selection
    columns = (thetas[:, None], q, a_w.real, a_w.imag, *meter_shift(q, sx, s_i, s_f, width))
    return np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, 7)
