"""Spin coupling Hamiltonians, evolution, and weak-value amplification."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gravlink.config import load_config
from gravlink.constants import C_LIGHT, EV, G_STD, HBAR, OMEGA_EARTH
from gravlink.errors import BadAxis, OrthogonalSelection
from gravlink.spin_weak import (
    amplification_scan,
    constants_report,
    h_ext,
    h_sigma,
    orthogonal_selections,
    pauli,
    pauli_dot,
    two_spin_hamiltonian,
)

from helpers import evolve, qubit, scan_rows

TAN_147 = 9.88737489198555  # math.tan(1.47), frozen
REPO = Path(__file__).resolve().parents[1]


def herm_defect(h):
    return float(np.linalg.norm(h - h.conj().T))


class TestPauli:
    def test_matrix_entries(self):
        np.testing.assert_array_equal(pauli(3), np.diag([1.0 + 0j, -1.0 + 0j]))
        np.testing.assert_array_equal(pauli(1), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_algebra(self):
        s1, s2, s3 = pauli(1), pauli(2), pauli(3)
        for s in (s1, s2, s3):
            np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-15)
            vals = np.linalg.eigvalsh(s)
            np.testing.assert_allclose(sorted(vals), [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(s1 @ s2, 1j * s3, atol=1e-15)
        np.testing.assert_allclose(s1 @ s2 + s2 @ s1, np.zeros((2, 2)), atol=1e-15)

    def test_bad_axis(self):
        for axis in (0, 4, -1, 1.5, "x", None):
            with pytest.raises(BadAxis):
                pauli(axis)

    def test_copy_is_defensive(self):
        m = pauli(1)
        m[0, 0] = 99.0
        assert pauli(1)[0, 0] == 0.0

    def test_dot(self):
        v = np.array([0.3, -1.2, 0.5])
        expected = 0.3 * pauli(1) - 1.2 * pauli(2) + 0.5 * pauli(3)
        np.testing.assert_array_equal(pauli_dot(v), expected)
        with pytest.raises(BadAxis):
            pauli_dot([1.0, 2.0])


G_Z = (0.0, 0.0, G_STD)  # standard gravity along z, the weak scan's acceleration


def _calls(name, value):
    """Every coupling that takes the argument name, each called with value for it."""
    sigma = dict(omega=(0.0, 0.0, OMEGA_EARTH), acceleration=G_Z, m=1.0, p=(1.0, 0.0, 0.0))
    calls = []
    if name in sigma:
        calls.append(lambda: h_sigma(**{**sigma, name: value}))
    if name in ("acceleration", "k"):
        calls.append(lambda: h_ext(**{"acceleration": G_Z, "k": 1.0, name: value}))
    if name == "exchange":
        calls.append(lambda: two_spin_hamiltonian(np.zeros((2, 2)), value))
    return calls


class TestSpinCouplingParams:
    """The spin couplings' parameters, checked by the functions that take them."""

    def test_invalid_inputs(self):
        # a non-finite m is among test_non_finite_field_rejected's cases
        for m in (0.0, -1.0):
            with pytest.raises(ValueError, match="^m must be positive and finite, got"):
                h_sigma((0.0, 0.0, OMEGA_EARTH), G_Z, m=m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["m", "k", "exchange", "omega", "p", "acceleration"])
    def test_non_finite_field_rejected(self, name, bad):
        value = (0.0, bad, 0.0) if name in ("omega", "p", "acceleration") else bad
        text = "positive and finite" if name == "m" else "finite"
        for call in _calls(name, value):
            with pytest.raises(ValueError, match=f"^{name} must be {text}, got"):
                call()

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (2,)])
    def test_single_must_be_2x2(self, shape):
        with pytest.raises(ValueError, match="^single must be a 2x2 matrix, got shape"):
            two_spin_hamiltonian(np.zeros(shape), 1e-40)

    @pytest.mark.parametrize("shape", [(2,), (4,), ()], ids=str)
    @pytest.mark.parametrize("name", ["acceleration", "p"])
    def test_vectors_must_have_three_entries(self, name, shape):
        # np.cross would read a 2-vector as (x, y, 0) and refuse a 4-vector with its own error
        for call in _calls(name, np.ones(shape)):
            with pytest.raises(BadAxis) as raised:
                call()
            assert str(raised.value) == f"expected a 3-vector, got shape {shape}"

    def test_zero_acceleration_allowed(self):
        zero = (0.0, 0.0, 0.0)
        np.testing.assert_array_equal(h_ext(zero), np.zeros((2, 2)))
        np.testing.assert_array_equal(h_sigma((0.0, 0.0, 2.0), zero, p=(3.0, 0.0, 0.0)),
                                      -HBAR * pauli(3))


class TestSingleSpinHamiltonians:
    def test_rotation_splitting(self):
        # pure rotation about z: -(hbar w / 2) sigma_z, symmetric level pair
        w = 11.0
        h = h_sigma((0.0, 0.0, w), G_Z)
        np.testing.assert_allclose(h, -0.5 * HBAR * w * pauli(3), rtol=1e-15)
        vals = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(vals, [-0.5 * HBAR * w, 0.5 * HBAR * w], rtol=1e-12)

    def test_earth_rotation_scale(self):
        h = h_sigma((0.0, 0.0, OMEGA_EARTH), G_Z)
        top = float(np.max(np.linalg.eigvalsh(h)))
        assert top / HBAR == pytest.approx(3.64605795e-5, rel=1e-8)

    def test_zero_rotation_zero_momentum(self):
        h = h_sigma((0.0, 0.0, 0.0), G_Z)
        np.testing.assert_array_equal(h, np.zeros((2, 2)))

    def test_momentum_term(self):
        # a along z, p along x: a x p points along y
        p_mag = 2.5
        h = h_sigma((0.0, 0.0, 0.0), G_Z, m=1.0, p=(p_mag, 0.0, 0.0))
        expected = HBAR * G_STD * p_mag / (4.0 * C_LIGHT**2) * pauli(2)
        np.testing.assert_allclose(h, expected, rtol=1e-14, atol=0.0)

    def test_momentum_parallel_to_acceleration_vanishes(self):
        h = h_sigma((0.0, 0.0, 0.0), G_Z, p=(0.0, 0.0, 7.0))
        np.testing.assert_array_equal(h, np.zeros((2, 2)))

    def test_acceleration_coupling(self):
        h = h_ext(G_Z, k=1.0)
        expected = 0.5 * HBAR * G_STD / C_LIGHT * pauli(3)
        np.testing.assert_allclose(h, expected, rtol=1e-15)
        assert h_ext(G_Z, k=0.0) == pytest.approx(np.zeros((2, 2)))
        np.testing.assert_allclose(h_ext(G_Z, k=2.0), 2.0 * h, rtol=1e-15)

    def test_acceleration_energy_scale(self):
        h = h_ext(G_Z, k=1.0)
        splitting = float(np.ptp(np.linalg.eigvalsh(h)))
        assert splitting / EV == pytest.approx(2.1531076e-23, rel=1e-6)


def pair_of(single, exchange):
    """exchange * sigma_x(x)sigma_x plus single on each spin, written out."""
    return (exchange * np.kron(pauli(1), pauli(1))
            + np.kron(single, np.eye(2)) + np.kron(np.eye(2), single))


def coupling_of(omega, acceleration, k=1.0, m=1.0, p=(0.0, 0.0, 0.0)):
    """The one-spin matrix of the pair, h_sigma + h_ext."""
    return h_sigma(omega, acceleration, m=m, p=p) + h_ext(acceleration, k=k)


def parallel_pair_spectrum(b, j):
    """The pair's eigenvalues, ascending, when the one-spin matrix is b n.sigma with n
    perpendicular to x: n.sigma(x)1 + 1(x)n.sigma is 0 on the exchange-odd states, so they
    keep +-J, and +-2b on the exchange-even pair that J sigma_x(x)sigma_x couples."""
    root = math.hypot(j, 2.0 * b)  # sqrt(J^2 + 4 b^2), which squares would underflow
    return np.sort([-root, -j, j, root])


_UNIT = st.floats(-10.0, 10.0)


class TestTwoSpinHamiltonian:
    def test_pure_exchange_limit(self):
        # no rotation and no acceleration coupling: only the exchange is left
        j = 4.0e-25
        h = two_spin_hamiltonian(coupling_of((0.0, 0.0, 0.0), G_Z, k=0.0), j)
        np.testing.assert_array_equal(h, j * np.kron(pauli(1), pauli(1)))
        vals = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(vals, [-j, -j, j, j], rtol=1e-12)

    def test_pure_acceleration_spectrum(self):
        h = two_spin_hamiltonian(coupling_of((0.0, 0.0, 0.0), G_Z, k=1.0), 0.0)
        unit = HBAR * G_STD / C_LIGHT
        vals = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(vals, [-unit, 0.0, 0.0, unit], atol=1e-12 * unit)

    def test_matches_two_copies_of_single_spin_coupling(self):
        # the exchange sits on the acceleration scale, as in the shipped
        # scenario, so that it does not swamp the couplings in the norm
        omega = OMEGA_EARTH * np.array([math.sin(0.7), 0.0, math.cos(0.7)])
        single = coupling_of(omega, G_Z, k=1.0)
        expected = pair_of(single, 3.45e-42)
        scale = float(np.linalg.norm(expected))
        assert float(np.linalg.norm(two_spin_hamiltonian(single, 3.45e-42) - expected)) \
            <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(axis=st.tuples(_UNIT, _UNIT, _UNIT).filter(lambda v: math.hypot(*v) > 1e-3),
           g=st.floats(0.1, 20.0), w=st.tuples(_UNIT, _UNIT, _UNIT), k=_UNIT,
           m=st.floats(0.1, 10.0), u=st.tuples(_UNIT, _UNIT, _UNIT), e=_UNIT)
    @example(axis=(1.0, 0.0, 0.0), g=G_STD, w=(0.0, 0.0, 0.0), k=1.0, m=1.0,
             u=(0.0, 0.0, 0.0), e=0.0)
    def test_pair_is_exchange_plus_single_spin_coupling_on_each_spin(self, axis, g, w, k, m,
                                                                      u, e):
        # every coupling is drawn in units that put it on the acceleration
        # scale hbar*g/c, so none of them hides below another's rounding:
        # omega in g/c, p in m*c, exchange in hbar*g/c
        single = coupling_of(np.array(w) * g / C_LIGHT, g * np.array(axis) / math.hypot(*axis),
                             k=k, m=m, p=np.array(u) * m * C_LIGHT)
        exchange = e * HBAR * g / C_LIGHT
        expected = pair_of(single, exchange)
        diff = float(np.linalg.norm(two_spin_hamiltonian(single, exchange) - expected))
        assert diff <= 1e-12 * float(np.linalg.norm(expected))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(phi=st.floats(-math.pi, math.pi), g=st.floats(0.1, 20.0), w=_UNIT, k=_UNIT,
           e=_UNIT)
    @example(phi=0.0, g=G_STD, w=1.0, k=1.0, e=0.0)
    @example(phi=math.pi / 2.0, g=G_STD, w=0.0, k=0.0, e=1.0)
    def test_parallel_couplings_give_the_closed_form_spectrum(self, phi, g, w, k, e):
        # omega and a along one axis n in the y-z plane, every coupling on the scale
        # hbar*g/c: omega in g/c, exchange in hbar*g/c; b = (hbar/2)(k g/c - omega). The
        # matrix rounds b's two terms apart, so where they cancel the larger one sets the floor
        n = np.array([0.0, math.cos(phi), math.sin(phi)])
        scale = HBAR * g / C_LIGHT
        b, j = 0.5 * scale * (k - w), e * scale
        single = coupling_of(w * g / C_LIGHT * n, g * n, k=k)
        vals = np.linalg.eigvalsh(two_spin_hamiltonian(single, j))
        expected = parallel_pair_spectrum(b, j)
        floor = max(abs(j), expected[-1], 0.5 * scale * max(abs(k), abs(w)))
        assert np.max(np.abs(vals - expected)) <= 1e-13 * floor

    def test_shipped_summary_eigenvalues_match_the_closed_form(self):
        # the shipped weak scan's rotation and gravity both lie along z, perpendicular to x
        spin = load_config(str(REPO / "scenarios" / "weakvalue_scan.yaml")).spin
        assert spin.rotation[:2] == (0.0, 0.0)
        b = 0.5 * HBAR * (spin.coupling_k * spin.gravity / C_LIGHT - spin.rotation[2])
        summary = (REPO / "out" / "weakvalue_scan" / "summary.txt").read_text().splitlines()
        (line,) = [x for x in summary if x.startswith("two-spin Hamiltonian eigenvalues [J]: ")]
        expected = parallel_pair_spectrum(b, spin.exchange)
        assert line.partition(": ")[2].split() == [f"{e:.6e}" for e in expected]

    def test_hermitian_on_random_parameters(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = float(rng.uniform(0.1, 20.0))
            omega = rng.normal(0.0, 1e-4, 3)
            k = float(rng.normal(1.0, 0.5))
            m = float(rng.uniform(0.5, 2.0))
            p = rng.normal(0.0, 1.0, 3)
            exchange = float(rng.normal(0.0, 1e-24))
            hs = (h_sigma(omega, (0.0, 0.0, g), m=m, p=p), h_ext((0.0, 0.0, g), k=k))
            for h in (*hs, two_spin_hamiltonian(hs[0] + hs[1], exchange)):
                assert herm_defect(h) <= 1e-15 * max(1e-300, float(np.linalg.norm(h)))


class TestEvolve:
    def test_qubit_amplitudes(self):
        state = qubit(0.3, 0.8)
        assert state[0] == pytest.approx(math.cos(0.3))
        assert state[1] == pytest.approx(math.sin(0.3) * complex(math.cos(0.8), math.sin(0.8)))

    def test_zero_time_identity(self):
        state = qubit(0.4, 1.1)
        h = h_sigma((0.0, 0.0, 5.0), G_Z)
        np.testing.assert_allclose(evolve(state, h, 0.0), state, atol=1e-12)

    def test_half_precession_period_flips_transverse_state(self):
        w = 3.0
        h = h_sigma((0.0, 0.0, w), G_Z)
        plus_x = np.array([1.0, 1.0]) / math.sqrt(2.0)
        minus_x = np.array([1.0, -1.0]) / math.sqrt(2.0)
        fidelity = abs(np.vdot(minus_x, evolve(plus_x, h, math.pi / w)))
        assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            dim = 2 if trial % 2 == 0 else 4
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (raw + raw.conj().T) / 2.0 * HBAR
            t = float(rng.uniform(-5.0, 5.0))
            a = _random_state(rng, dim)
            b = _random_state(rng, dim)
            after = np.vdot(evolve(a, h, t), evolve(b, h, t))
            assert abs(after - np.vdot(a, b)) <= 1e-12

    def test_batch_matches_one_state_at_a_time(self):
        # four states of dim 4, so a column-vector product would also have run
        rng = np.random.default_rng(29)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (raw + raw.conj().T) / 2.0 * HBAR
        states = [_random_state(rng, 4) for _ in range(4)]
        batch = evolve(np.stack(states), h, 0.7)
        for row, state in zip(batch, states):
            np.testing.assert_allclose(row, evolve(state, h, 0.7), rtol=0.0, atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve(np.array([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match state dim 2"):
            evolve(np.array([1.0, 0.0]), np.eye(4), 1.0)


def _random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def pair_sums(theta, q, width):
    """(shift_exact, postselection_prob) to 50 digits, from the definition: in sigma_x's
    eigenbasis |a> = (|0> + a|1>)/sqrt(2), a = +-1, the post-selected pointer is
    sum_a w_a psi(x - q a) with w_a = <f|a><a|i>, and the product of the waves of a pair
    (a, b) is a Gaussian centred at q (a + b)/2 with weight exp(-q^2 (a - b)^2 / 8 width^2).
    The shift's w_+^2 - w_-^2 cancels to sin(2 theta)/2, so a tiny theta gets one more
    digit per decade below 1."""
    lost = max(0, -math.floor(math.log10(abs(theta)))) if theta else 0
    with mpmath.workdps(50 + lost):
        theta, q, width = (mpmath.mpf(float(v)) for v in (theta, q, width))
        w = {a: (mpmath.cos(theta) + a * mpmath.sin(theta)) / 2 for a in (1, -1)}
        pairs = [(w[a] * w[b] * mpmath.exp(-(q * (a - b)) ** 2 / (8 * width**2)), q * (a + b) / 2)
                 for a in (1, -1) for b in (1, -1)]
        prob = sum(weight for weight, _ in pairs)
        return float(sum(weight * centre for weight, centre in pairs) / prob), float(prob)


def oracle_scan(thetas, q, width):
    """amplification_scan's rows from pair_sums and a 50-digit tan, one theta at a time."""
    rows = []
    for theta in thetas:
        tan = mpmath.tan(mpmath.mpf(float(theta)))
        for k in q:
            shift, prob = pair_sums(theta, k, width)
            rows.append((theta, k, float(tan), 0.0, shift, float(k * tan), prob))
    return np.array(rows, dtype=float).reshape(-1, 7)


def assert_matches_oracle(rows, ref, rel):
    """Every column within rel of the reference. A product below the normal range
    rounds to a multiple of the smallest subnormal; q carries that step along into
    the shift and 1/P scales it up, which the absolute floor allows for."""
    np.testing.assert_array_equal(rows[:, :2], ref[:, :2])
    np.testing.assert_array_equal(rows[:, 3], 0.0)
    floor = (np.abs(ref[:, 1:2]) + 1.0) * np.spacing(0.0) / ref[:, 6:]
    err = np.abs(rows - ref) - rel * np.abs(ref)
    assert np.all(err <= floor), f"worst excess {err.max():.3e} over rel {rel:.0e}"


class TestWeakValue:
    def test_eigenstate_gives_eigenvalue(self):
        # theta = +-45 degrees post-selects |+> or |->, the sigma_x eigenstates
        rows = scan_rows([math.pi / 4, -math.pi / 4], [1e-3], 1.0)
        np.testing.assert_allclose(rows[:, 2], [1.0, -1.0], rtol=0.0, atol=1e-15)

    def test_tangent_amplification(self):
        rows = scan_rows([0.1, 0.7, 1.2, 1.44, 1.47], [1e-3], 1.0)
        for theta, _, re_aw, im_aw, *_ in rows:
            assert re_aw == pytest.approx(math.tan(theta), rel=1e-12)
            assert im_aw == 0.0
        assert rows[-1, 2] == pytest.approx(TAN_147, rel=1e-13)
        assert rows[-1, 2] > 9.0  # far outside the eigenvalue range [-1, 1]

    def test_orthogonal_selection_raises(self):
        with pytest.raises(OrthogonalSelection, match="weak value undefined"):
            amplification_scan([math.pi / 2], [1e-3], 1.0)

    def test_batch_of_post_selections(self):
        # the weak value is a property of the selections alone: every q of a theta
        # carries the same tan(theta)
        thetas = np.linspace(-1.5, 1.5, 6)
        rows = scan_rows(thetas, [0.0, 1e-3, 0.5, 40.0], 0.8)
        weak = rows[:, 2].reshape(6, 4)
        np.testing.assert_array_equal(weak, np.repeat(np.tan(thetas)[:, None], 4, axis=1))
        np.testing.assert_array_equal(rows[:, 3], 0.0)

    def test_batch_with_one_orthogonal_selection_raises(self):
        with pytest.raises(OrthogonalSelection,
                           match=r"= 6\.123e-17; weak value undefined at selection \[1\]$"):
            amplification_scan([0.6435, math.pi / 2, 0.0], [1e-3], 1.0)


def gaussian_wave(x, width):
    """Pointer wavefunction centred at 0 whose |psi|^2 has rms spread width."""
    return (2.0 * math.pi * width * width) ** -0.25 * np.exp(-x * x / (4.0 * width * width))


def shift_of(theta, q, width):
    """The scan's one row (theta, q, Re A_w, Im A_w, shift_exact, shift_weak, prob)."""
    return scan_rows([theta], [q], width)[0]


class TestMeterShift:
    @pytest.mark.parametrize("width", [math.nan, math.inf, 0.0, -1.0])
    def test_meter_width_must_be_positive_and_finite(self, width):
        with pytest.raises(ValueError, match="meter width must be positive and finite"):
            amplification_scan([0.3], [1e-3], width)

    def test_eigenstate_shifts_by_q(self):
        # post-selecting |+>, sigma_x's eigenstate of eigenvalue 1, keeps only the
        # Gaussian displaced by q, at any kick, with probability |<+|0>|^2 = 1/2
        for q in (0.3, 2.0):
            *_, exact, weak, prob = shift_of(math.pi / 4, q, 1.0)
            assert exact == pytest.approx(q, rel=1e-15)
            assert weak == pytest.approx(q, rel=1e-15)
            assert prob == pytest.approx(0.5, rel=1e-15)

    def test_weak_regime_benchmark(self):
        *_, exact, weak, prob = shift_of(1.47, 1e-3, 1.0)
        mean_ref, prob_ref = pair_sums(1.47, 1e-3, 1.0)
        assert exact == pytest.approx(mean_ref, rel=1e-15)
        assert prob == pytest.approx(prob_ref, rel=1e-15)
        assert exact == pytest.approx(9.887135721781713e-3, rel=1e-9)
        assert prob == pytest.approx(1.012578315682755e-2, rel=1e-9)
        assert weak == pytest.approx(1e-3 * TAN_147, rel=1e-12)
        assert abs(exact - weak) / abs(weak) < 1e-2

    def test_relative_error_quadratic_in_kick(self):
        rows = scan_rows([1.47], [1e-3, 2e-3], 1.0)
        rel_err = np.abs(rows[:, 4] - rows[:, 5]) / np.abs(rows[:, 5])
        assert 3.5 < rel_err[1] / rel_err[0] < 4.5

    def test_strong_kick_breaks_weak_prediction(self):
        *_, exact, weak, _ = shift_of(1.47, 1.0, 1.0)
        assert abs(exact - weak) / abs(weak) > 0.1

    def test_amplification_probability_tradeoff(self):
        # bigger weak values cost post-selection probability; in the weak
        # regime prob*|A_w|^2 tracks sin^2(theta) and never exceeds the
        # squared top eigenvalue of sigma_x
        rows = scan_rows(np.linspace(0.1, 1.55, 25), [1e-4], 1.0)
        amps, probs = np.abs(rows[:, 2]), rows[:, 6]
        assert np.all(probs * amps**2 <= 1.0)
        assert np.all(np.diff(amps) > 0.0)
        assert np.all(np.diff(probs) < 0.0)

    @staticmethod
    def quadrature_shift(theta, q, width):
        """Mean and norm of the post-selected pointer density on a grid."""
        eigvals, eigvecs = np.linalg.eigh(pauli(1))
        weights = (qubit(theta).conj() @ eigvecs) * eigvecs.conj().T[:, 0]
        span = 12.0 * width
        x = np.linspace(q * eigvals.min() - span, q * eigvals.max() + span, 200001)
        wave = sum(w * gaussian_wave(x - q * a, width) for w, a in zip(weights, eigvals))
        density = np.abs(wave) ** 2
        prob = np.trapezoid(density, x)
        return np.trapezoid(x * density, x) / prob, prob

    def test_closed_form_matches_quadrature(self):
        width = 1.3
        for theta in (0.2, 1.0, 1.5):
            for q in (0.0, 1e-3, 0.2, 1.0, 4.0):
                *_, exact, _, prob = shift_of(theta, q, width)
                mean_ref, prob_ref = self.quadrature_shift(theta, q, width)
                assert exact == pytest.approx(mean_ref, rel=1e-9, abs=1e-12)
                assert prob == pytest.approx(prob_ref, rel=1e-9)

    def test_zero_kick(self):
        # no kick: the pointer stays put and the post-selection probability
        # is |<f|i>|^2 = cos^2(theta)
        thetas = np.array([0.0, 0.4, 1.2, 1.5707])
        rows = scan_rows(thetas, [0.0], 0.5)
        np.testing.assert_array_equal(rows[:, 4:6], 0.0)
        np.testing.assert_allclose(rows[:, 6], np.cos(thetas) ** 2, rtol=1e-12)

    def test_q_array_matches_scalar_calls(self):
        thetas = [0.1, 0.9, 1.5]
        q = np.array([0.0, 1e-6, 1e-3, 0.2, 1.0, 4.0, -0.5, 30.0])
        rows = scan_rows(thetas, q, 1.3).reshape(3, q.size, 7)
        for j, k in enumerate(q):
            np.testing.assert_array_equal(rows[:, j], scan_rows(thetas, [k], 1.3))

    def test_batch_of_selections_broadcasts_against_q(self):
        thetas = np.array([-0.4, 0.3, 1.2])
        q = np.array([1e-4, 0.3, 2.0, 25.0])
        rows = scan_rows(thetas, q, 0.9).reshape(3, 4, 7)
        for row, theta in zip(rows, thetas):
            np.testing.assert_array_equal(row, scan_rows([theta], q, 0.9))

    def test_orthogonal_selection_raises_for_a_q_array(self):
        with pytest.raises(OrthogonalSelection):
            amplification_scan([math.pi / 2], np.array([0.0, 1e-3, 1.0]), 1.0)

    def test_meter_wavefunction_normalized(self):
        # the quadrature oracle's pointer wave
        x = np.linspace(-20.0, 20.0, 20001)
        norm = np.trapezoid(np.abs(gaussian_wave(x, 2.0)) ** 2, x)
        assert norm == pytest.approx(1.0, rel=1e-9)


class TestConstantsReport:
    def test_benchmark_rows(self):
        rows = constants_report()
        by_name = {row.name: row for row in rows}
        energy = by_name["acceleration_energy_scale"]
        assert energy.value == pytest.approx(2.1531076e-23, rel=1e-6)
        assert energy.units == "eV"
        field = by_name["equivalent_magnetic_field"]
        assert field.value == pytest.approx(3.7196939e-19, rel=1e-6)
        assert field.units == "T"
        ratio = by_name["rotation_to_acceleration_ratio"]
        assert ratio.value == pytest.approx(2229.2234, rel=1e-6)
        assert ratio.value == pytest.approx(C_LIGHT * OMEGA_EARTH / G_STD, rel=1e-15)
        for row in rows:
            assert row.rel_deviation < 0.03

    def test_scales_with_g(self):
        base = constants_report(G_STD)[0].value
        assert constants_report(2.0 * G_STD)[0].value == pytest.approx(
            2.0 * base, rel=1e-12
        )


class TestAmplificationScan:
    def test_rows_structure(self):
        # seven float columns at the shapes they broadcast from, rows theta major
        width = 1.0
        columns = amplification_scan([0.3, 1.47], [1e-3, 1e-2], width)
        assert [column.shape for column in columns] == [(2, 1), (2,), (2, 1), (), (2, 2),
                                                        (2, 2), (2, 2)]
        assert all(column.dtype == np.float64 for column in columns)
        rows = scan_rows([0.3, 1.47], [1e-3, 1e-2], width)
        assert rows.shape == (4, 7)
        # theta major: every q for the first theta, then the next theta
        np.testing.assert_array_equal(rows[:, 0], [0.3, 0.3, 1.47, 1.47])
        np.testing.assert_array_equal(rows[:, 1], [1e-3, 1e-2, 1e-3, 1e-2])
        for theta, q, re_aw, im_aw, exact, weak, prob in rows:
            assert re_aw == pytest.approx(math.tan(theta), rel=1e-12)
            assert im_aw == pytest.approx(0.0, abs=1e-12)
            assert weak == pytest.approx(q * math.tan(theta), rel=1e-12)
            assert 0.0 < prob < 1.0
        assert rows[0, 4] == pytest.approx(pair_sums(0.3, 1e-3, width)[0], rel=1e-12)


class TestScanAgainstLoop:
    """The scan against oracle_scan, a per-theta loop over the 50-digit pair sums."""

    @settings(max_examples=200, deadline=None)
    @given(
        thetas=st.lists(st.floats(0.0, math.radians(89.9)), max_size=12),
        q=hnp.arrays(float, st.integers(0, 6), elements=st.floats(-40.0, 40.0)),
        width=st.floats(1e-3, 1e3),
    )
    # near 90 degrees a small kick leaves prob ~ cos(theta)^2 after cancellation
    @example(thetas=[0.0, math.radians(89.9)], q=np.array([-3e-4, 0.0, 1e-9, 35.0]), width=0.02)
    def test_matches_the_per_theta_loop(self, thetas, q, width):
        rows = scan_rows(thetas, q, width)
        assert rows.shape == (len(thetas) * q.size, 7)
        assert_matches_oracle(rows, oracle_scan(thetas, q, width), rel=2e-15)

    def test_weak_scan_sized_grid(self):
        # the benchmark's shape: 720 angles in [0, 89] degrees x 10 couplings
        rng = np.random.default_rng(91)
        thetas = np.radians(np.sort(rng.uniform(0.0, 89.0, 720)))
        q = np.geomspace(1e-4, 30.0, 10) * 0.7
        rows = scan_rows(thetas, q, 0.7)
        assert_matches_oracle(rows, oracle_scan(thetas, q, 0.7), rel=2e-15)

    def test_orthogonal_selection_in_the_grid_raises(self):
        with pytest.raises(OrthogonalSelection, match=r"\|<f\|i>\| = 6\.123e-17"):
            amplification_scan([0.3, math.pi / 2, 1.0], [1e-3, 1.0], 1.0)

    def test_orthogonal_selections_mask(self):
        degrees = np.array([0.0, 10.0, 90.0, -90.0, 270.0, 89.9, 90.0 + 1e-9])
        np.testing.assert_array_equal(orthogonal_selections(np.radians(degrees)),
                                      [False, False, True, True, True, False, False])
        with pytest.raises(OrthogonalSelection):
            amplification_scan([math.radians(270.0)], [1e-3], 1.0)


class TestScanPrecision:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(theta=st.floats(0.0, math.pi / 2 - 1e-7), ratio=st.floats(1e-6, 1e3),
           width=st.floats(0.1, 10.0))
    # the eigenvalue-pair sums cancel here: P ~ cos^2(theta) ~ 1e-17 from terms of 1/4
    @example(theta=math.radians(89.9999999), ratio=1e-4, width=0.7)
    def test_shift_and_probability_within_2e_15_of_the_pair_sums(self, theta, ratio, width):
        q = ratio * width
        rows = scan_rows([theta], [q], width)
        assert_matches_oracle(rows, oracle_scan([theta], [q], width), rel=2e-15)
