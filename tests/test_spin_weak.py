"""Spin coupling Hamiltonians, evolution, and weak-value amplification."""

import math

import numpy as np
import pytest

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
        with pytest.raises(ValueError):
            SpinCouplingParams(g=0.0)

    def test_zero_g_allowed_with_explicit_h(self):
        p = SpinCouplingParams(g=0.0, h_vec=(0.0, 0.0, 1.0))
        assert p.h_vec[2] == 1.0

    def test_lambda_consistency(self):
        good = SpinCouplingParams(exchange=2.0 * HBAR, t=3.0, lambda_c=6.0)
        assert good.lambda_c == 6.0
        with pytest.raises(ValueError):
            SpinCouplingParams(exchange=2.0 * HBAR, t=3.0, lambda_c=5.0)


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


class TestTwoSpinHamiltonian:
    def test_pure_exchange_limit(self):
        # zero acceleration scale with the rotation coupling held fixed
        j = 4.0e-25
        ts = two_spin_hamiltonian(
            SpinCouplingParams(g=0.0, h_vec=(0.3, -0.2, 0.9), exchange=j)
        )
        np.testing.assert_array_equal(ts.h1, np.zeros((4, 4)))
        vals = np.sort(np.linalg.eigvalsh(ts.total))
        np.testing.assert_allclose(vals, [-j, -j, j, j], rtol=1e-12)

    def test_pure_acceleration_spectrum(self):
        ts = two_spin_hamiltonian(
            SpinCouplingParams(h_vec=(0.0, 0.0, 0.0), k=1.0, exchange=0.0)
        )
        unit = HBAR * G_STD / C_LIGHT
        vals = np.sort(np.linalg.eigvalsh(ts.total))
        np.testing.assert_allclose(vals, [-unit, 0.0, 0.0, unit], atol=1e-12 * unit)

    def test_split_identity(self):
        params = SpinCouplingParams(
            omega=(1e-5, -2e-5, 4e-5), k=0.7, exchange=3e-25
        )
        ts = two_spin_hamiltonian(params)
        np.testing.assert_array_equal(ts.h0, np.kron(pauli(1), pauli(1)))
        np.testing.assert_array_equal(ts.total, ts.exchange * ts.h0 + ts.h1)
        assert ts.exchange == 3e-25

    def test_matches_two_copies_of_single_spin_coupling(self):
        # with acceleration along z and p = 0 the pair coupling must be
        # exactly one rotation + acceleration term per spin
        omega = OMEGA_EARTH * np.array([math.sin(0.7), 0.0, math.cos(0.7)])
        params = SpinCouplingParams(
            g=G_STD, omega=tuple(omega), k=1.0, a_axis=(0.0, 0.0, 1.0),
            exchange=5e-25,
        )
        single = h_sigma(params) + h_ext(params)
        expected = np.kron(single, np.eye(2)) + np.kron(np.eye(2), single)
        ts = two_spin_hamiltonian(params)
        scale = float(np.linalg.norm(expected))
        assert float(np.linalg.norm(ts.h1 - expected)) <= 1e-12 * scale

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
            for h in (h_sigma(params), h_ext(params),
                      two_spin_hamiltonian(params).total):
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


def _unit(v):
    return v / np.linalg.norm(v)


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
        x = np.linspace(
            meter.mean + q * eigvals.min() - span, meter.mean + q * eigvals.max() + span, 200001
        )
        wave = sum(w * meter.wavefunction(x - q * a) for w, a in zip(weights, eigvals))
        density = np.abs(wave) ** 2
        prob = np.trapezoid(density, x)
        return np.trapezoid(x * density, x) / prob - meter.mean, prob

    def test_closed_form_matches_quadrature(self):
        # a generic complex observable with four distinct eigenvalues and
        # complex pre- and post-selections
        rng = np.random.default_rng(17)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a_op = raw + raw.conj().T
        s_i = QuantumState(_unit(rng.normal(size=4) + 1j * rng.normal(size=4)))
        s_f = QuantumState(_unit(rng.normal(size=4) + 1j * rng.normal(size=4)))
        meter = GaussianMeter(mean=0.7, width=1.3)
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
        shift = meter_shift(0.0, a_op, s_i, s_f, GaussianMeter(mean=2.0, width=0.5))
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
        meter = GaussianMeter(mean=0.7, width=1.3)
        q = np.array([[0.0, 1e-6, 1e-3, 0.2], [1.0, 4.0, -0.5, 30.0]])
        batch = meter_shift(q, a_op, s_i, s_f, meter)
        for field, values in zip(batch._fields, batch):
            assert values.shape == q.shape
            single = np.array([getattr(meter_shift(float(k), a_op, s_i, s_f, meter), field)
                               for k in q.ravel()]).reshape(q.shape)
            assert np.all(np.abs(values - single) <= 4.0 * np.spacing(np.abs(single))), field
        scalar = meter_shift(0.2, a_op, s_i, s_f, meter)
        assert all(np.ndim(value) == 0 for value in scalar)

    def test_orthogonal_selection_raises_for_a_q_array(self):
        ket0 = QuantumState(np.array([1.0, 0.0]))
        ket1 = QuantumState(np.array([0.0, 1.0]))
        with pytest.raises(OrthogonalSelection):
            meter_shift(np.array([0.0, 1e-3, 1.0]), pauli(1), ket0, ket1, GaussianMeter())

    def test_meter_wavefunction_normalized(self):
        meter = GaussianMeter(mean=0.4, width=2.0)
        x = np.linspace(-20.0, 21.0, 20001)
        norm = np.trapezoid(np.abs(meter.wavefunction(x)) ** 2, x)
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
