"""Spin coupling Hamiltonians, evolution, and weak-value amplification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gravlink.constants import C_LIGHT, EV, G_STD, HBAR, OMEGA_EARTH
from gravlink.errors import BadAxis, NonHermitian, OrthogonalSelection
from gravlink.spin_weak import (
    GaussianMeter,
    QuantumState,
    SpinCouplingParams,
    amplification_scan,
    constants_report,
    evolve,
    h_ext,
    h_sigma,
    meter_shift,
    orthogonal_selections,
    pauli,
    pauli_dot,
    qubit,
    two_spin_hamiltonian,
    weak_value,
)

TAN_147 = 9.88737489198555  # math.tan(1.47), frozen


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


class TestQuantumState:
    def test_dimensions(self):
        assert QuantumState(np.array([1.0, 0.0])).dim == 2
        assert QuantumState(np.array([0.5, 0.5, 0.5, 0.5])).dim == 4
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 0.0, 0.0]))

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1.1, 0.0]))
        state = QuantumState(np.array([1.0 + 3e-10, 0.0]))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15

    def test_batch_is_normalized_row_by_row(self):
        rows = np.array([[[1.0, 0.0]], [[0.6, 0.8j]], [[1.0 + 3e-10, 0.0]]])
        batch = QuantumState(rows)
        assert batch.dim == 2
        assert batch.amplitudes.shape == (3, 1, 2)
        for row, state in zip(rows, batch.amplitudes):
            np.testing.assert_array_equal(state[0], QuantumState(row[0]).amplitudes)
        with pytest.raises(ValueError, match="state norm 1.1 is not 1"):
            QuantumState(np.array([[1.0, 0.0], [1.1, 0.0]]))
        with pytest.raises(ValueError, match="dimension must be 2 or 4, got 3"):
            QuantumState(np.zeros((2, 3)))
        assert QuantumState(np.zeros((0, 4))).amplitudes.shape == (0, 4)

    def test_qubit_amplitudes(self):
        state = qubit(0.3, 0.8)
        assert state.amplitudes[0] == pytest.approx(math.cos(0.3))
        assert state.amplitudes[1] == pytest.approx(
            math.sin(0.3) * complex(math.cos(0.8), math.sin(0.8))
        )


class TestSpinCouplingParams:
    def test_h_vec_derived(self):
        p = SpinCouplingParams(g=G_STD, omega=(0.0, 0.0, OMEGA_EARTH))
        np.testing.assert_allclose(
            p.h_vec, [0.0, 0.0, -C_LIGHT * OMEGA_EARTH / G_STD], rtol=1e-15
        )
        assert abs(p.h_vec[2]) == pytest.approx(2229.2234, rel=1e-6)

    def test_axis_normalized(self):
        p = SpinCouplingParams(a_axis=(0.0, 0.0, 2.0))
        np.testing.assert_allclose(p.a_axis, [0.0, 0.0, 1.0], rtol=1e-15)
        np.testing.assert_allclose(p.acceleration, [0.0, 0.0, G_STD], rtol=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(BadAxis):
            SpinCouplingParams(a_axis=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            SpinCouplingParams(m=0.0)
        for bad in (dict(g=0.0), dict(g=math.nan), dict(m=math.nan)):
            with pytest.raises(ValueError):
                SpinCouplingParams(**bad)

    def test_h_vec_is_read_only(self):
        p = SpinCouplingParams(omega=(1e-5, 0.0, 0.0))
        with pytest.raises(AttributeError):
            p.h_vec = np.zeros(3)
        with pytest.raises(TypeError):
            SpinCouplingParams(h_vec=(0.0, 0.0, 1.0))

    def test_lambda_c_is_derived(self):
        assert SpinCouplingParams(exchange=2.0 * HBAR, t=3.0).lambda_c == 6.0


class TestSingleSpinHamiltonians:
    def test_rotation_splitting(self):
        # pure rotation about z: -(hbar w / 2) sigma_z, symmetric level pair
        w = 11.0
        h = h_sigma(SpinCouplingParams(omega=(0.0, 0.0, w), k=0.0))
        np.testing.assert_allclose(h, -0.5 * HBAR * w * pauli(3), rtol=1e-15)
        vals = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(vals, [-0.5 * HBAR * w, 0.5 * HBAR * w], rtol=1e-12)

    def test_earth_rotation_scale(self):
        h = h_sigma(SpinCouplingParams(omega=(0.0, 0.0, OMEGA_EARTH)))
        top = float(np.max(np.linalg.eigvalsh(h)))
        assert top / HBAR == pytest.approx(3.64605795e-5, rel=1e-8)

    def test_zero_rotation_zero_momentum(self):
        h = h_sigma(SpinCouplingParams())
        np.testing.assert_array_equal(h, np.zeros((2, 2)))

    def test_momentum_term(self):
        # a along z, p along x: a x p points along y
        p_mag = 2.5
        params = SpinCouplingParams(m=1.0, p=(p_mag, 0.0, 0.0))
        expected = HBAR * G_STD * p_mag / (4.0 * C_LIGHT**2) * pauli(2)
        np.testing.assert_allclose(h_sigma(params), expected, rtol=1e-14, atol=0.0)

    def test_momentum_parallel_to_acceleration_vanishes(self):
        h = h_sigma(SpinCouplingParams(p=(0.0, 0.0, 7.0)))
        np.testing.assert_array_equal(h, np.zeros((2, 2)))

    def test_acceleration_coupling(self):
        h = h_ext(SpinCouplingParams(k=1.0))
        expected = 0.5 * HBAR * G_STD / C_LIGHT * pauli(3)
        np.testing.assert_allclose(h, expected, rtol=1e-15)
        assert h_ext(SpinCouplingParams(k=0.0)) == pytest.approx(np.zeros((2, 2)))
        np.testing.assert_allclose(
            h_ext(SpinCouplingParams(k=2.0)), 2.0 * h, rtol=1e-15
        )

    def test_acceleration_energy_scale(self):
        h = h_ext(SpinCouplingParams(k=1.0))
        splitting = float(np.ptp(np.linalg.eigvalsh(h)))
        assert splitting / EV == pytest.approx(2.1531076e-23, rel=1e-6)


def pair_of(params):
    """exchange * sigma_x(x)sigma_x plus h_sigma + h_ext on each spin, written out."""
    single = h_sigma(params) + h_ext(params)
    return (params.exchange * np.kron(pauli(1), pauli(1))
            + np.kron(single, np.eye(2)) + np.kron(np.eye(2), single))


_UNIT = st.floats(-10.0, 10.0)


class TestTwoSpinHamiltonian:
    def test_pure_exchange_limit(self):
        # no rotation and no acceleration coupling: only the exchange is left
        j = 4.0e-25
        h = two_spin_hamiltonian(SpinCouplingParams(k=0.0, exchange=j))
        np.testing.assert_array_equal(h, j * np.kron(pauli(1), pauli(1)))
        vals = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(vals, [-j, -j, j, j], rtol=1e-12)

    def test_pure_acceleration_spectrum(self):
        h = two_spin_hamiltonian(SpinCouplingParams(k=1.0, exchange=0.0))
        unit = HBAR * G_STD / C_LIGHT
        vals = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(vals, [-unit, 0.0, 0.0, unit], atol=1e-12 * unit)

    def test_matches_two_copies_of_single_spin_coupling(self):
        # the exchange sits on the acceleration scale, as in the shipped
        # scenario, so that it does not swamp the couplings in the norm
        omega = OMEGA_EARTH * np.array([math.sin(0.7), 0.0, math.cos(0.7)])
        params = SpinCouplingParams(
            g=G_STD, omega=tuple(omega), k=1.0, a_axis=(0.0, 0.0, 1.0),
            exchange=3.45e-42,
        )
        expected = pair_of(params)
        scale = float(np.linalg.norm(expected))
        assert float(np.linalg.norm(two_spin_hamiltonian(params) - expected)) <= 1e-12 * scale

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
        params = SpinCouplingParams(
            g=g, omega=tuple(np.array(w) * g / C_LIGHT), k=k, m=m,
            p=tuple(np.array(u) * m * C_LIGHT), a_axis=axis, exchange=e * HBAR * g / C_LIGHT,
        )
        expected = pair_of(params)
        diff = float(np.linalg.norm(two_spin_hamiltonian(params) - expected))
        assert diff <= 1e-12 * float(np.linalg.norm(expected))

    def test_hermitian_on_random_parameters(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            params = SpinCouplingParams(
                g=float(rng.uniform(0.1, 20.0)),
                omega=tuple(rng.normal(0.0, 1e-4, 3)),
                k=float(rng.normal(1.0, 0.5)),
                m=float(rng.uniform(0.5, 2.0)),
                p=tuple(rng.normal(0.0, 1.0, 3)),
                exchange=float(rng.normal(0.0, 1e-24)),
            )
            for h in (h_sigma(params), h_ext(params), two_spin_hamiltonian(params)):
                assert herm_defect(h) <= 1e-15 * max(1e-300, float(np.linalg.norm(h)))


class TestEvolve:
    def test_zero_time_identity(self):
        state = qubit(0.4, 1.1)
        h = h_sigma(SpinCouplingParams(omega=(0.0, 0.0, 5.0)))
        out = evolve(state, h, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_half_precession_period_flips_transverse_state(self):
        w = 3.0
        h = h_sigma(SpinCouplingParams(omega=(0.0, 0.0, w)))
        plus_x = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0))
        minus_x = np.array([1.0, -1.0]) / math.sqrt(2.0)
        out = evolve(plus_x, h, math.pi / w)
        fidelity = abs(np.vdot(minus_x, out.amplitudes))
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
            before = np.vdot(a.amplitudes, b.amplitudes)
            after = np.vdot(
                evolve(a, h, t).amplitudes, evolve(b, h, t).amplitudes
            )
            assert abs(after - before) <= 1e-12

    def test_batch_matches_one_state_at_a_time(self):
        # four states of dim 4, so a column-vector product would also have run
        rng = np.random.default_rng(29)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (raw + raw.conj().T) / 2.0 * HBAR
        states = [_random_state(rng, 4) for _ in range(4)]
        batch = evolve(QuantumState(np.stack([s.amplitudes for s in states])), h, 0.7)
        for row, state in zip(batch.amplitudes, states):
            np.testing.assert_allclose(row, evolve(state, h, 0.7).amplitudes,
                                       rtol=0.0, atol=1e-15)

    def test_rejects_non_hermitian(self):
        state = QuantumState(np.array([1.0, 0.0]))
        with pytest.raises(NonHermitian):
            evolve(state, np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_rejects_shape_mismatch(self):
        state = QuantumState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            evolve(state, np.eye(4), 1.0)


def _random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState(amps / np.linalg.norm(amps))


class TestWeakValue:
    def test_eigenstate_gives_eigenvalue(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        assert weak_value(pauli(3), ket0, ket0) == pytest.approx(1.0, abs=1e-15)

    def test_tangent_amplification(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        for theta in (0.1, 0.7, 1.2, 1.44, 1.47):
            a_w = weak_value(pauli(1), ket0, qubit(theta))
            assert a_w.real == pytest.approx(math.tan(theta), rel=1e-12)
            assert abs(a_w.imag) < 1e-12
        a_w = weak_value(pauli(1), ket0, qubit(1.47))
        assert a_w.real == pytest.approx(TAN_147, rel=1e-13)
        assert abs(a_w.real) > 9.0  # far outside the eigenvalue range [-1, 1]

    def test_orthogonal_selection_raises(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        ket1 = QuantumState(np.array([0.0, 1.0]))
        with pytest.raises(OrthogonalSelection):
            weak_value(pauli(1), ket0, ket1)

    def test_non_hermitian_observable_rejected(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        with pytest.raises(NonHermitian):
            weak_value(np.array([[0.0, 2.0], [0.0, 0.0]]), ket0, ket0)

    def test_dimension_mismatch(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            weak_value(np.eye(4), ket0, ket0)

    def test_batch_of_post_selections(self):
        rng = np.random.default_rng(31)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a_op = raw + raw.conj().T
        s_i = _random_state(rng, 4)
        finals = [_random_state(rng, 4) for _ in range(6)]
        batch = QuantumState(np.stack([s.amplitudes for s in finals]).reshape(2, 3, 4))
        a_w = weak_value(a_op, s_i, batch)
        assert a_w.shape == (2, 3)
        single = np.array([weak_value(a_op, s_i, s_f) for s_f in finals]).reshape(2, 3)
        np.testing.assert_allclose(a_w, single, rtol=1e-14, atol=0.0)
        assert isinstance(weak_value(a_op, s_i, finals[0]), complex)

    def test_batch_with_one_orthogonal_selection_raises(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        batch = QuantumState(np.array([[0.6, 0.8], [0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(OrthogonalSelection, match=r"\|<f\|i>\| = 0\.000e\+00"):
            weak_value(pauli(1), ket0, batch)

    def test_batch_pre_selection_rejected(self):
        # only s_f may be a batch: a batched s_i would be read as a matrix
        kets = QuantumState(np.eye(2))
        with pytest.raises(ValueError, match="dimensions do not match"):
            weak_value(pauli(1), kets, qubit(0.3))


def _unit(v):
    return v / np.linalg.norm(v)


def gaussian_wave(x, width):
    """Pointer wavefunction centred at 0 whose |psi|^2 has rms spread width."""
    return (2.0 * math.pi * width * width) ** -0.25 * np.exp(-x * x / (4.0 * width * width))


def closed_form_shift(theta, q, width):
    """Two displaced Gaussians with overlap exp(-q^2/2s^2): post-selected
    mean q*sin(2 theta)/(1 + G cos(2 theta)), derived independently."""
    g_overlap = math.exp(-q * q / (2.0 * width * width))
    prob = 0.5 * (1.0 + g_overlap * math.cos(2.0 * theta))
    mean = 0.5 * q * math.sin(2.0 * theta) / prob
    return mean, prob


class TestMeterShift:
    def test_eigenstate_shifts_by_q(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        meter = GaussianMeter()
        for q in (0.3, 2.0):
            shift = meter_shift(q, pauli(3), ket0, ket0, meter)
            assert shift.shift_exact == pytest.approx(q, rel=1e-9)
            assert shift.shift_weak == pytest.approx(q, rel=1e-12)
            assert shift.postselection_prob == pytest.approx(1.0, rel=1e-9)

    def test_weak_regime_benchmark(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        shift = meter_shift(1e-3, pauli(1), ket0, qubit(1.47), GaussianMeter())
        mean_ref, prob_ref = closed_form_shift(1.47, 1e-3, 1.0)
        assert shift.shift_exact == pytest.approx(mean_ref, rel=1e-9)
        assert shift.postselection_prob == pytest.approx(prob_ref, rel=1e-9)
        assert shift.shift_exact == pytest.approx(9.887135721781713e-3, rel=1e-9)
        assert shift.postselection_prob == pytest.approx(
            1.012578315682755e-2, rel=1e-9
        )
        assert shift.shift_weak == pytest.approx(1e-3 * TAN_147, rel=1e-12)
        rel_dev = abs(shift.shift_exact - shift.shift_weak) / abs(shift.shift_weak)
        assert rel_dev < 1e-2

    def test_relative_error_quadratic_in_kick(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        meter = GaussianMeter()
        s_f = qubit(1.47)

        def rel_err(q):
            shift = meter_shift(q, pauli(1), ket0, s_f, meter)
            return abs(shift.shift_exact - shift.shift_weak) / abs(shift.shift_weak)

        ratio = rel_err(2e-3) / rel_err(1e-3)
        assert 3.5 < ratio < 4.5

    def test_strong_kick_breaks_weak_prediction(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        shift = meter_shift(1.0, pauli(1), ket0, qubit(1.47), GaussianMeter())
        rel_dev = abs(shift.shift_exact - shift.shift_weak) / abs(shift.shift_weak)
        assert rel_dev > 0.1

    def test_amplification_probability_tradeoff(self):
        # bigger weak values cost post-selection probability; in the weak
        # regime prob*|A_w|^2 tracks sin^2(theta) and never exceeds the
        # squared top eigenvalue of sigma_x
        ket0 = QuantumState(np.array([1.0, 0.0]))
        meter = GaussianMeter()
        products = []
        probs = []
        amps = []
        for theta in np.linspace(0.1, 1.55, 25):
            shift = meter_shift(1e-4, pauli(1), ket0, qubit(theta), meter)
            a_w = abs(weak_value(pauli(1), ket0, qubit(theta)))
            probs.append(shift.postselection_prob)
            amps.append(a_w)
            products.append(shift.postselection_prob * a_w**2)
        assert all(p <= 1.0 for p in products)
        assert all(a < b for a, b in zip(amps, amps[1:]))
        assert all(a > b for a, b in zip(probs, probs[1:]))

    @staticmethod
    def quadrature_shift(q, a_op, s_i, s_f, meter):
        """Mean and norm of the post-selected pointer density on a grid."""
        eigvals, eigvecs = np.linalg.eigh(a_op)
        weights = (s_f.amplitudes.conj() @ eigvecs) * (eigvecs.conj().T @ s_i.amplitudes)
        span = 12.0 * meter.width
        x = np.linspace(q * eigvals.min() - span, q * eigvals.max() + span, 200001)
        wave = sum(w * gaussian_wave(x - q * a, meter.width) for w, a in zip(weights, eigvals))
        density = np.abs(wave) ** 2
        prob = np.trapezoid(density, x)
        return np.trapezoid(x * density, x) / prob, prob

    def test_closed_form_matches_quadrature(self):
        # a generic complex observable with four distinct eigenvalues and
        # complex pre- and post-selections
        rng = np.random.default_rng(17)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a_op = raw + raw.conj().T
        s_i = QuantumState(_unit(rng.normal(size=4) + 1j * rng.normal(size=4)))
        s_f = QuantumState(_unit(rng.normal(size=4) + 1j * rng.normal(size=4)))
        meter = GaussianMeter(width=1.3)
        for q in (0.0, 1e-3, 0.2, 1.0, 4.0):
            shift = meter_shift(q, a_op, s_i, s_f, meter)
            mean_ref, prob_ref = self.quadrature_shift(q, a_op, s_i, s_f, meter)
            assert shift.shift_exact == pytest.approx(mean_ref, rel=1e-9, abs=1e-12)
            assert shift.postselection_prob == pytest.approx(prob_ref, rel=1e-9)

    def test_zero_kick(self):
        # no kick: the pointer stays put and the post-selection probability
        # is |<f|i>|^2
        s_i = QuantumState(_unit(np.array([1.0, 0.5j, -0.3, 0.2 + 0.1j])))
        s_f = QuantumState(_unit(np.array([0.4j, 1.0, 0.2, -0.6])))
        a_op = np.diag([1.0, -2.0, 0.5, 3.0]).astype(complex)
        a_op[0, 2] = a_op[2, 0] = 0.3
        shift = meter_shift(0.0, a_op, s_i, s_f, GaussianMeter(width=0.5))
        assert shift.shift_exact == 0.0
        assert shift.shift_weak == 0.0
        overlap = abs(np.vdot(s_f.amplitudes, s_i.amplitudes)) ** 2
        assert shift.postselection_prob == pytest.approx(overlap, rel=1e-12)

    def test_q_array_matches_scalar_calls(self):
        rng = np.random.default_rng(23)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a_op = raw + raw.conj().T
        s_i = QuantumState(_unit(rng.normal(size=4) + 1j * rng.normal(size=4)))
        s_f = QuantumState(_unit(rng.normal(size=4) + 1j * rng.normal(size=4)))
        meter = GaussianMeter(width=1.3)
        q = np.array([[0.0, 1e-6, 1e-3, 0.2], [1.0, 4.0, -0.5, 30.0]])
        batch = meter_shift(q, a_op, s_i, s_f, meter)
        for field, values in zip(batch._fields, batch):
            assert values.shape == q.shape
            single = np.array([getattr(meter_shift(float(k), a_op, s_i, s_f, meter), field)
                               for k in q.ravel()]).reshape(q.shape)
            assert np.all(np.abs(values - single) <= 4.0 * np.spacing(np.abs(single))), field
        scalar = meter_shift(0.2, a_op, s_i, s_f, meter)
        assert all(np.ndim(value) == 0 for value in scalar)

    def test_batch_of_selections_broadcasts_against_q(self):
        rng = np.random.default_rng(37)
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a_op = raw + raw.conj().T
        s_i = _random_state(rng, 2)
        finals = [_random_state(rng, 2) for _ in range(3)]
        batch = QuantumState(np.stack([s.amplitudes for s in finals])[:, None, :])
        meter = GaussianMeter(width=0.9)
        q = np.array([1e-4, 0.3, 2.0, 25.0])
        shifts = meter_shift(q, a_op, s_i, batch, meter)
        for field, values in zip(shifts._fields, shifts):
            assert values.shape == (3, 4)
            single = np.array([getattr(meter_shift(q, a_op, s_i, s_f, meter), field)
                               for s_f in finals])
            assert np.all(np.abs(values - single) <= 4.0 * np.spacing(np.abs(single))), field

    def test_orthogonal_selection_raises_for_a_q_array(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        ket1 = QuantumState(np.array([0.0, 1.0]))
        with pytest.raises(OrthogonalSelection):
            meter_shift(np.array([0.0, 1e-3, 1.0]), pauli(1), ket0, ket1, GaussianMeter())

    def test_meter_wavefunction_normalized(self):
        # the quadrature oracle's pointer wave
        x = np.linspace(-20.0, 20.0, 20001)
        norm = np.trapezoid(np.abs(gaussian_wave(x, 2.0)) ** 2, x)
        assert norm == pytest.approx(1.0, rel=1e-9)
        with pytest.raises(ValueError):
            GaussianMeter(width=0.0)


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
        for row in rows:
            assert row.rel_deviation < 0.03

    def test_scales_with_g(self):
        base = constants_report(G_STD)[0].value
        assert constants_report(2.0 * G_STD)[0].value == pytest.approx(
            2.0 * base, rel=1e-12
        )


class TestAmplificationScan:
    def test_rows_structure(self):
        meter = GaussianMeter()
        rows = amplification_scan([0.3, 1.47], [1e-3, 1e-2], meter)
        assert rows.shape == (4, 7)
        assert rows.dtype == np.float64
        # theta major: every q for the first theta, then the next theta
        np.testing.assert_array_equal(rows[:, 0], [0.3, 0.3, 1.47, 1.47])
        np.testing.assert_array_equal(rows[:, 1], [1e-3, 1e-2, 1e-3, 1e-2])
        for theta, q, re_aw, im_aw, exact, weak, prob in rows:
            assert re_aw == pytest.approx(math.tan(theta), rel=1e-12)
            assert im_aw == pytest.approx(0.0, abs=1e-12)
            assert weak == pytest.approx(q * math.tan(theta), rel=1e-12)
            assert 0.0 < prob < 1.0
        direct = meter_shift(
            1e-3, pauli(1), QuantumState(np.array([1.0, 0.0])), qubit(0.3), meter
        )
        assert rows[0, 4] == pytest.approx(direct.shift_exact, rel=1e-12)


def loop_scan(thetas, q, meter):
    """The per-theta loop that amplification_scan replaced: qubit, weak_value and
    meter_shift's pair sums over q, written out here so that a fault in the shared
    kernel cannot hide in the oracle."""
    sx, s_i = pauli(1), QuantumState(np.array([1.0, 0.0]))
    eigvals, eigvecs = np.linalg.eigh(sx)
    rows = []
    for theta in thetas:
        s_f = qubit(theta)
        a_w = weak_value(sx, s_i, s_f)
        weights = (s_f.amplitudes.conj() @ eigvecs) * (eigvecs.conj().T @ s_i.amplitudes)
        kick = q[:, None]
        gap = kick * (eigvals[:, None] - eigvals[None, :]).ravel() / meter.width
        pairs = (weights.conj()[:, None] * weights[None, :]).real.ravel() * np.exp(-gap * gap / 8.0)
        prob = pairs.sum(axis=-1)
        exact = (pairs * 0.5 * kick * (eigvals[:, None] + eigvals[None, :]).ravel()).sum(-1) / prob
        rows += [(theta, k, a_w.real, a_w.imag, e, k * a_w.real, p)
                 for k, e, p in zip(q, exact, prob)]
    return np.array(rows).reshape(-1, 7)


class TestScanAgainstLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        thetas=st.lists(st.floats(0.0, math.radians(89.9)), max_size=12),
        q=hnp.arrays(float, st.integers(0, 6), elements=st.floats(-40.0, 40.0)),
        width=st.floats(1e-3, 1e3),
    )
    # near 90 degrees a small kick leaves prob ~ cos(theta)^2 after cancellation
    @example(thetas=[0.0, math.radians(89.9)], q=np.array([-3e-4, 0.0, 1e-9, 35.0]), width=0.02)
    def test_matches_the_per_theta_loop(self, thetas, q, width):
        meter = GaussianMeter(width=width)
        rows = amplification_scan(thetas, q, meter)
        ref = loop_scan(thetas, q, meter)
        assert rows.shape == ref.shape == (len(thetas) * q.size, 7)
        np.testing.assert_array_equal(rows[:, :2], ref[:, :2])
        np.testing.assert_allclose(rows[:, 2:6:3], ref[:, 2:6:3], rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(rows[:, 3], 0.0)
        np.testing.assert_array_equal(ref[:, 3], 0.0)
        # Both sides add the same pair terms from amplitudes that may differ in
        # the last bit, so beyond 1e-13 relative they may differ by a few ulp of
        # the terms' magnitudes: at most 1 for prob, and |q| + |shift| for the
        # shift's numerator, which the division by prob carries along.
        q_col, shift, prob = ref[:, 1], ref[:, 4], ref[:, 6]
        assert np.all(np.abs(rows[:, 6] - prob) <= 1e-13 * prob + 16 * np.spacing(1.0))
        bound = 1e-13 * np.abs(shift) + 16 * np.spacing(np.abs(q_col) + np.abs(shift)) / prob
        assert np.all(np.abs(rows[:, 4] - shift) <= bound)

    def test_weak_scan_sized_grid(self):
        # the benchmark's shape: 720 angles in [0, 89] degrees x 10 couplings
        rng = np.random.default_rng(91)
        thetas = np.radians(np.sort(rng.uniform(0.0, 89.0, 720)))
        q = np.geomspace(1e-4, 30.0, 10) * 0.7
        rows = amplification_scan(thetas, q, GaussianMeter(width=0.7))
        ref = loop_scan(thetas, q, GaussianMeter(width=0.7))
        np.testing.assert_allclose(rows, ref, rtol=1e-13, atol=0.0)

    def test_orthogonal_selection_in_the_grid_raises(self):
        with pytest.raises(OrthogonalSelection, match=r"\|<f\|i>\| = 6\.123e-17"):
            amplification_scan([0.3, math.pi / 2, 1.0], [1e-3, 1.0], GaussianMeter())

    def test_orthogonal_selections_mask(self):
        degrees = np.array([0.0, 10.0, 90.0, -90.0, 270.0, 89.9, 90.0 + 1e-9])
        np.testing.assert_array_equal(orthogonal_selections(np.radians(degrees)),
                                      [False, False, True, True, True, False, False])
        with pytest.raises(OrthogonalSelection):
            weak_value(pauli(1), QuantumState(np.array([1.0, 0.0])), qubit(math.radians(270.0)))
