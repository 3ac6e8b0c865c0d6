"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (test name carries the criterion number)."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from gravlink.constants import C_LIGHT, G_STD, R_EARTH
from gravlink.ephemeris import EphemerisTrajectory, parse_cpf, serialize_cpf
from gravlink.errors import GravlinkError
from gravlink.estimator import build_pass, estimate_alpha, precision_forecast
from gravlink.interferometer import draw_counts, outcome_probabilities
from gravlink.kinematics import (
    CircularOrbit,
    GroundStation,
    LinkGeometry,
    build_link_geometry,
)
from gravlink.link_model import (
    expanded_signal,
    gravitational_phase,
    phase_pair,
    phase_scale,
)
from gravlink.spin_weak import (
    constants_report,
    h_ext,
    h_sigma,
    pauli,
    two_spin_hamiltonian,
)

from helpers import StaticPlatform, evolve, scan_rows, synthesize_measurements
from test_ephemeris import analytic_eci_state, circular_orbit_table, cpf_mutations

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SCALE = phase_scale(800e-9, 6.0e3 / C_LIGHT)
U_SURFACE = 6.961274586591855e-10


def zenith_pass(n_epochs):
    station = GroundStation(0.0, 0.0)
    orbit = CircularOrbit(6.771e6)
    return build_pass(station, orbit, -240.0, 240.0, n_epochs)


def report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_1_gravitational_phase_magnitude():
    start = time.monotonic()
    phi_uniform = gravitational_phase(SCALE, G_STD, 4.0e5, 0.0)
    assert abs(phi_uniform) == pytest.approx(2.06, rel=0.05)

    ground = StaticPlatform([R_EARTH, 0.0, 0.0])
    craft = StaticPlatform([R_EARTH + 4.0e5, 0.0, 0.0])
    geom = build_link_geometry(ground, craft, 0.0)
    (phi_sc,) = phase_pair(geom, SCALE).phi_sc
    # uniform-field value vs the exact 1/r potential drop across 400 km
    assert abs(phi_sc) == pytest.approx(abs(phi_uniform), rel=0.06)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"|phi_uniform| = {abs(phi_uniform):.4f} rad, "
              f"|phi_sc_exact| = {abs(phi_sc):.4f} rad, "
              f"runtime {elapsed:.2f} s")


def test_criterion_2_doppler_dominance():
    start = time.monotonic()
    _, geoms = zenith_pass(100)
    max_doppler = float(np.max(np.abs(SCALE * (geoms.d1 - geoms.d2))))
    max_gravity = float(np.max(np.abs(SCALE * (geoms.U2 - geoms.U1))))
    ratio = max_doppler / max_gravity
    assert 1e4 <= ratio <= 1e6

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(2, f"Doppler-to-gravity phase ratio = {ratio:.3e}, "
              f"runtime {elapsed:.2f} s")


def _equal_potential_geometry(speed_scale):
    beta = speed_scale * 2e-5
    return LinkGeometry(
        beta1=np.zeros(3), beta2=np.array([beta, 0.0, 0.0]), beta3=np.zeros(3),
        n12=np.array([1.0, 0.0, 0.0]), n23=np.array([-1.0, 0.0, 0.0]),
        U1=U_SURFACE, U2=U_SURFACE, a1=np.zeros(3), t_up=1.4e-3,
    ), beta


def test_criterion_3_factor_two_cancellation():
    start = time.monotonic()

    def residual(speed_scale):
        geom, beta = _equal_potential_geometry(speed_scale)
        pair = phase_pair(geom, SCALE)
        return abs(pair.phi_gs / pair.phi_sc - 2.0).item(), beta

    res_full, beta_full = residual(1.0)
    # small headroom covers the O(beta^2) part of the fit point itself
    k_const = 1.01 * res_full / beta_full
    for speed_scale in (1.0, 0.3, 0.1, 0.01):
        res, beta = residual(speed_scale)
        assert res <= k_const * beta
    res_tenth, _ = residual(0.1)
    assert res_tenth / res_full == pytest.approx(0.1, rel=0.2)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"|phi_gs/phi_sc - 2| = {res_full:.3e} at beta = {beta_full:.1e} "
              f"(K = {k_const:.3f}), tenth-speed residual ratio "
              f"{res_tenth / res_full:.4f}, runtime {elapsed:.2f} s")


def test_criterion_4_expansion_consistency():
    start = time.monotonic()
    _, geoms = zenith_pass(100)
    beta_max = float(np.max(np.linalg.norm([geoms.beta1, geoms.beta2, geoms.beta3], axis=-1)))
    bound = 10.0 * beta_max**3
    pair = phase_pair(geoms, SCALE)
    resid = np.abs(pair.s_signal / SCALE - expanded_signal(geoms))
    worst = float(np.max(resid))
    assert np.all(resid <= bound)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"max |exact - expanded| fraction = {worst:.3e} "
              f"<= {bound:.3e} over 100 epochs, runtime {elapsed:.2f} s")


def test_criterion_5_alpha_recovery_and_scaling():
    start = time.monotonic()
    truth = 3e-4

    # unbiasedness: 50 epochs x 100 noise seeds at 1e-3 rad phase noise
    _, geoms = zenith_pass(50)
    model = phase_pair(geoms, SCALE)
    hats = []
    sigma = None
    for seed in range(100):
        rows = synthesize_measurements(
            geoms, SCALE, truth,
            sigma_sc=1e-3, sigma_gs=1e-3, seed=seed,
        )
        est = estimate_alpha(rows, model)
        hats.append(est.alpha_hat)
        sigma = est.sigma_alpha
    bias = float(np.mean(hats)) - truth
    assert abs(bias) <= 3.0 * sigma / math.sqrt(100.0)

    # precision scaling over two decades of photon budget
    _, geoms = zenith_pass(10)
    sigmas = {}
    for budget in (80000, 800000, 8000000):
        est = precision_forecast(geoms, SCALE, truth, budget, trials=10,
                                 seed=20260815, scan_points=8)
        sigmas[budget] = float(np.mean(est.sigma_alpha))
    ratio_decade = sigmas[80000] / sigmas[800000]
    ratio_two_decades = sigmas[80000] / sigmas[8000000]
    assert ratio_decade == pytest.approx(math.sqrt(10.0), rel=0.2)
    assert ratio_two_decades == pytest.approx(10.0, rel=0.2)

    budget_needed = 8000000 * (sigmas[8000000] / 1e-5) ** 2  # the 1/sqrt(N) extrapolation
    assert math.isfinite(budget_needed) and budget_needed > 0

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(5, f"bias = {bias:.2e} (3 sigma/sqrt(100) = "
              f"{3.0 * sigma / 10.0:.2e}), sigma ratios per decade "
              f"{ratio_decade:.3f}/{ratio_two_decades:.3f}, budget for "
              f"sigma_alpha = 1e-5: {budget_needed:.3e} photons, "
              f"runtime {elapsed:.1f} s")


def test_criterion_6_three_peak_pattern():
    start = time.monotonic()
    early, central, late, _ = outcome_probabilities(0.0, 1.0, 1.0)
    assert central / early == pytest.approx(4.0, abs=1e-12)
    assert central / late == pytest.approx(4.0, abs=1e-12)

    # p(central) is exactly zero at phi = pi, so the 5-sigma binomial
    # window around it at n = 1e6 is the single value zero
    _, dark, _ = draw_counts(outcome_probabilities(math.pi, 1.0, 1.0), 10**6, 99)
    assert dark == 0

    for vis in (0.7, 1.0):
        peaks = outcome_probabilities(np.linspace(0.0, 2.0 * math.pi, 97), vis, 1.0)
        assert np.all(np.abs(peaks[:, 0] - 0.0625) <= 1e-12)
        assert np.all(np.abs(peaks[:, 2] - 0.0625) <= 1e-12)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, f"central/side = 4 at phi = 0, central counts at pi: "
              f"{dark}/1e6, side peaks flat to 1e-12, "
              f"runtime {elapsed:.2f} s")


def test_criterion_7_coupling_constants():
    start = time.monotonic()
    rows = {row.name: row for row in constants_report()}
    energy = rows["acceleration_energy_scale"]
    field = rows["equivalent_magnetic_field"]
    ratio = rows["rotation_to_acceleration_ratio"]
    assert energy.value == pytest.approx(2.1531076e-23, rel=1e-6)
    assert field.value == pytest.approx(3.7196939e-19, rel=1e-6)
    assert ratio.value == pytest.approx(2229.2234, rel=1e-6)
    for row in (energy, field, ratio):
        assert row.rel_deviation < 0.03

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(7, f"hbar*g/c = {energy.value:.4e} eV, field = {field.value:.4e} T, "
              f"rotation/acceleration = {ratio.value:.1f}; all within 3%, "
              f"runtime {elapsed:.2f} s")


def test_criterion_8_weak_value_suite():
    start = time.monotonic()
    thetas = (0.1, 0.5, 0.9, 1.2, 1.44, 1.47)
    for theta, _, re_aw, im_aw, *_ in scan_rows(thetas, [1e-3], 1.0):
        assert abs(re_aw - math.tan(theta)) < 1e-12
        assert abs(im_aw) < 1e-12

    def rel_err(q):
        *_, exact, weak, _ = scan_rows([1.47], [q], 1.0)[0]
        return abs(exact - weak) / abs(weak)

    err_weak = rel_err(1e-3)
    assert err_weak < 1e-2
    ratio = rel_err(2e-3) / rel_err(1e-3)
    assert ratio == pytest.approx(4.0, rel=0.2)

    rng = np.random.default_rng(8)
    herm_worst = 0.0
    for _ in range(1000):
        acceleration = (0.0, 0.0, float(rng.uniform(0.1, 20.0)))
        omega = rng.normal(0.0, 1e-4, 3)
        k = float(rng.normal(1.0, 0.5))
        m = float(rng.uniform(0.5, 2.0))
        p = rng.normal(0.0, 1.0, 3)
        exchange = float(rng.normal(0.0, 1e-24))
        hs = (h_sigma(omega, acceleration, m=m, p=p), h_ext(acceleration, k=k))
        for h in (*hs, two_spin_hamiltonian(hs[0] + hs[1], exchange)):
            scale = float(np.linalg.norm(h))
            if scale > 0.0:
                defect = float(np.linalg.norm(h - h.conj().T)) / scale
                herm_worst = max(herm_worst, defect)
                assert defect <= 1e-12

    unit_worst = 0.0
    for trial in range(1000):
        dim = 2 if trial % 2 == 0 else 4
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (raw + raw.conj().T) / 2.0 * 1e-34
        t = float(rng.uniform(-3.0, 3.0))
        amps_a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps_b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        a = amps_a / np.linalg.norm(amps_a)
        b = amps_b / np.linalg.norm(amps_b)
        before = np.vdot(a, b)
        after = np.vdot(evolve(a, h, t), evolve(b, h, t))
        drift = abs(after - before)
        unit_worst = max(unit_worst, drift)
        assert drift <= 1e-12

    # the pair Hamiltonian must equal the exchange term plus two copies of
    # the single-spin rotation + acceleration coupling at k = 1; the exchange
    # sits on the acceleration scale so that it does not swamp the couplings
    omega = 7.2921159e-5 * np.array([math.sin(0.7), 0.0, math.cos(0.7)])
    single = h_sigma(omega, (0.0, 0.0, G_STD)) + h_ext((0.0, 0.0, G_STD), k=1.0)
    expected = (3.45e-42 * np.kron(pauli(1), pauli(1))
                + np.kron(single, np.eye(2)) + np.kron(np.eye(2), single))
    np.testing.assert_allclose(
        two_spin_hamiltonian(single, 3.45e-42), expected, rtol=0.0,
        atol=1e-12 * float(np.linalg.norm(expected)),
    )

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(8, f"A_w = tan(theta) to 1e-12, weak-shift rel err {err_weak:.1e} "
              f"(q-halving ratio {ratio:.3f}), worst Hermiticity defect "
              f"{herm_worst:.1e}, worst unitarity drift {unit_worst:.1e}, "
              f"runtime {elapsed:.1f} s")


def test_criterion_9_parser_robustness():
    start = time.monotonic()

    # round-trip identity on well-formed files
    sample_text = (SCENARIOS / "leo_sample.cpf").read_text(encoding="utf-8")
    for text in (sample_text, serialize_cpf(circular_orbit_table(n_records=12))):
        table = parse_cpf(text)
        again = parse_cpf(serialize_cpf(table))
        assert np.array_equal(again.records, table.records)

    # random-mutation corpus: typed errors or a parsed table, never a crash
    parsed = 0
    rejected = 0
    for text in cpf_mutations():
        try:
            table = parse_cpf(text)
            assert table.n_records >= 1
            parsed += 1
        except GravlinkError:
            rejected += 1
    assert parsed + rejected == 10000
    assert parsed > 0 and rejected > 0

    # interpolation accuracy against the analytic-orbit oracle
    a, inc = 7.0e6, 0.6
    trajectory = EphemerisTrajectory(circular_orbit_table(a=a, inc=inc, n_records=40))
    worst = 0.0
    for t in np.arange(310.0, 2000.0, 37.0):
        position, _ = trajectory.states(float(t))
        pos, _ = analytic_eci_state(a, inc, float(t))
        worst = max(worst, float(np.linalg.norm(position - pos)))
    assert worst < 1.0

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(9, f"round-trip identity holds, mutation corpus: {parsed} parsed / "
              f"{rejected} rejected of 10000 (no crashes), worst "
              f"interpolation error {worst:.2e} m, runtime {elapsed:.1f} s")
