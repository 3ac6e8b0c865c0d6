"""Violation-parameter regression and Monte Carlo forecasting."""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravlink import estimator
from gravlink.cli import main
from gravlink.errors import DegenerateVisibility, GravlinkError, SingularFit
from gravlink.estimator import AlphaEstimate, build_pass, estimate_alpha, precision_forecast
from gravlink.interferometer import _wrap_phase, fit_phase, fringe_scan
from gravlink.constants import GM_EARTH, OMEGA_EARTH
from gravlink.kinematics import CircularOrbit, GroundStation, LinkGeometry, rotate_z
from gravlink.link_model import phase_pair, phase_scale

from helpers import inv_fit_oracle, synthesize_measurements

U_SURFACE = 6.961274586591855e-10
SCALE = phase_scale(800e-9, 2.0014e-5)


def tiny_beta_geometries(n=12):
    """Controlled geometry batch with beta ~ 1e-8 so stored phases stay small
    enough for the measured combination to round-trip near machine
    precision (LEO-scale phases are ~1e6 rad and round at ~1e-10 rad)."""
    frac = np.arange(n) / max(n - 1, 1)
    b1 = np.stack([1.0e-8 * frac, np.full(n, 5.0e-9), np.zeros(n)], axis=1)
    b2 = np.stack([np.full(n, -4.0e-9), 1.0e-8 * (1.0 - frac), np.full(n, 2.0e-9)], axis=1)
    n12 = np.tile([1.0, 0.0, 0.0], (n, 1))
    n23 = -n12
    return LinkGeometry(
        beta1=b1, beta2=b2, beta3=b1, n12=n12, n23=n23,
        U1=np.full(n, U_SURFACE), U2=U_SURFACE - (0.5 + 0.5 * frac) * 4.0e-11,
        a1=np.tile([0.03, 0.0, 0.0], (n, 1)), t_up=np.full(n, 1.3e-3),
    )


def model(geometries):
    """The zero-violation phases estimate_alpha regresses against."""
    return phase_pair(geometries, SCALE)


def leo_pass(n_epochs=50):
    gs = GroundStation(0.0, 0.0)
    sc = CircularOrbit(6.771e6)
    return build_pass(gs, sc, -240.0, 240.0, n_epochs)


class TestPassDataset:
    """The checks estimate_alpha makes of a pass's measurement rows against its geometry."""

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            estimate_alpha(((1.0, 0.1, 2.0, 0.1),), model(tiny_beta_geometries(2)))

    def test_bad_row_width(self):
        geom = tiny_beta_geometries(1)
        with pytest.raises(ValueError):
            estimate_alpha(((1.0, 0.1, 2.0),), model(geom))

    def test_nonpositive_sigma(self):
        geom = tiny_beta_geometries(1)
        with pytest.raises(ValueError):
            estimate_alpha(((1.0, 0.0, 2.0, 0.1),), model(geom))

    def test_one_epoch_geometry_from_scalars(self):
        # 3-vectors and floats make a batch of one, with a length
        beta = np.array([0.0, 1.0e-8, 0.0])
        n12 = np.array([1.0, 0.0, 0.0])
        geom = LinkGeometry(
            beta1=beta, beta2=beta, beta3=beta, n12=n12, n23=-n12,
            U1=U_SURFACE, U2=U_SURFACE - 4.0e-11, a1=np.zeros(3), t_up=1.3e-3,
        )
        assert len(geom) == 1
        assert geom.n12.shape == (1, 3) and geom.U2.shape == (1,) and geom.d2.shape == (1,)
        est = estimate_alpha(((1.0, 0.1, 2.0, 0.1),), model(geom))
        assert np.shape(est.alpha_hat) == () and est.chi2_per_dof == 0.0

    def test_alpha_estimate_sigma_positive(self):
        with pytest.raises(ValueError):
            AlphaEstimate(alpha_hat=0.0, sigma_alpha=0.0, chi2_per_dof=1.0)
        with pytest.raises(ValueError):  # checked for every estimate of a batch
            AlphaEstimate(alpha_hat=np.zeros(3), sigma_alpha=np.array([1.0, 0.0, 1.0]),
                          chi2_per_dof=np.ones(3))

    def test_batch_of_measurement_rows(self):
        geom = tiny_beta_geometries(2)
        est = estimate_alpha(np.full((3, 5, 2, 4), 0.1), model(geom))
        assert est.alpha_hat.shape == est.sigma_alpha.shape == (3, 5)
        rows = np.full((3, 2, 4), 0.1)
        rows[1, 0, 3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            estimate_alpha(rows, model(geom))
        with pytest.raises(ValueError, match="align"):
            estimate_alpha(rows[:, :1], model(geom))


class TestBuildPass:
    def test_grid_shape(self):
        epochs, geoms = leo_pass(7)
        assert len(epochs) == len(geoms) == 7
        assert epochs[0] == -240.0 and epochs[-1] == 240.0

    def test_needs_epochs(self):
        gs = GroundStation(0.0, 0.0)
        sc = CircularOrbit(6.771e6)
        with pytest.raises(ValueError):
            build_pass(gs, sc, 0.0, 10.0, 0)


class TestEstimateAlpha:
    def test_noiseless_zero_alpha(self):
        geoms = tiny_beta_geometries()
        rows = synthesize_measurements(geoms, SCALE, 0.0)
        est = estimate_alpha(rows, model(geoms))
        assert abs(est.alpha_hat) < 1e-12

    def test_noiseless_alpha_recovery(self):
        geoms = tiny_beta_geometries()
        rows = synthesize_measurements(geoms, SCALE, 3e-4)
        est = estimate_alpha(rows, model(geoms))
        assert abs(est.alpha_hat - 3e-4) < 1e-12

    def test_unbiased_under_phase_noise(self):
        _, geoms = leo_pass(50)
        truth = 3e-4
        alpha_hats = []
        sigma = None
        for seed in range(100):
            rows = synthesize_measurements(
                geoms, SCALE, truth,
                sigma_sc=1e-3, sigma_gs=1e-3, seed=seed,
            )
            est = estimate_alpha(rows, model(geoms))
            alpha_hats.append(est.alpha_hat)
            sigma = est.sigma_alpha
        bias = float(np.mean(alpha_hats)) - truth
        assert abs(bias) <= 3.0 * sigma / math.sqrt(100.0)

    def test_chi2_health(self):
        _, geoms = leo_pass(50)
        rows = synthesize_measurements(
            geoms, SCALE, 0.0,
            sigma_sc=1e-3, sigma_gs=1e-3, seed=77,
        )
        est = estimate_alpha(rows, model(geoms))
        assert 0.5 < est.chi2_per_dof < 2.0

    def test_singular_when_no_leverage(self):
        geom = tiny_beta_geometries(1)
        flat = LinkGeometry(
            beta1=geom.beta1, beta2=geom.beta2, beta3=geom.beta3,
            n12=geom.n12, n23=geom.n23,
            U1=geom.U1, U2=geom.U1, a1=geom.a1, t_up=geom.t_up,
        )
        rows = synthesize_measurements(flat, SCALE, 0.0)
        with pytest.raises(SingularFit):
            estimate_alpha(rows, model(flat))

    def test_sigma_alpha_matches_propagation(self):
        _, geoms = leo_pass(25)
        rows = synthesize_measurements(
            geoms, SCALE, 0.0,
            sigma_sc=1e-3, sigma_gs=1e-3, seed=5,
        )
        est = estimate_alpha(rows, model(geoms))
        var_s = 1e-6 + 0.25e-6
        leverage = np.sum(model(geoms).ds_dalpha ** 2 / var_s)
        assert est.sigma_alpha == pytest.approx(1.0 / math.sqrt(leverage), rel=1e-9)

    def test_batch_matches_one_set_at_a_time(self):
        _, geoms = leo_pass(20)
        sets = [synthesize_measurements(geoms, SCALE, 3e-4,
                                        sigma_sc=1e-3, sigma_gs=2e-3, seed=k)
                for k in range(6)]
        batch = estimate_alpha(np.stack(sets).reshape(2, 3, 20, 4), model(geoms))
        for field in ("alpha_hat", "sigma_alpha", "chi2_per_dof"):
            one = [getattr(estimate_alpha(rows, model(geoms)), field) for rows in sets]
            assert getattr(batch, field).shape == (2, 3)
            np.testing.assert_array_equal(getattr(batch, field).ravel(), one)

    def test_batch_names_the_set_without_leverage(self):
        _, geoms = leo_pass(5)
        rows = np.tile(synthesize_measurements(geoms, SCALE, 0.0), (4, 1, 1))
        rows[2, :, 1] = rows[2, :, 3] = np.inf  # positive, but weighs nothing
        with pytest.raises(SingularFit, match=r" at trial \[2\]$"):
            estimate_alpha(rows, model(geoms))
        with pytest.raises(SingularFit, match=r" at trial \[12\]$"):  # counted from first
            estimate_alpha(rows, model(geoms), first=10)


@st.composite
def visible_passes(draw):
    """(orbit, station, sweep) arguments of a pass that validate accepts: a circular
    orbit, a station within 0.05 rad in latitude and longitude of the spacecraft's
    ground point at a drawn epoch t_over, and a sweep over the epochs around t_over,
    on a grid of half an orbit, at which the spacecraft stands above 10 degrees."""
    orbit = (draw(st.floats(6.6e6, 4.2164e7)), draw(st.floats(0.0, math.pi)),
             draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.0, 2.0 * math.pi)))
    t_over = draw(st.floats(-3000.0, 3000.0))
    spacecraft = CircularOrbit(*orbit)
    x, y, z = rotate_z(-OMEGA_EARTH * t_over, spacecraft.positions(t_over))[0]
    lat = math.atan2(z, math.hypot(x, y)) + draw(st.floats(-0.05, 0.05))
    station = (min(max(lat, -math.pi / 2), math.pi / 2),
               math.atan2(y, x) + draw(st.floats(-0.05, 0.05)), draw(st.floats(0.0, 3000.0)))
    quarter = 0.5 * math.pi * math.sqrt(orbit[0] ** 3 / GM_EARTH)
    grid = t_over + np.linspace(-quarter, quarter, 1001)
    r_gs = GroundStation(*station).positions(grid)
    los = spacecraft.positions(grid) - r_gs
    down = np.flatnonzero(np.sum(los * r_gs, axis=-1) <= math.sin(math.radians(10.0))
                          * np.linalg.norm(los, axis=-1) * np.linalg.norm(r_gs, axis=-1))
    assert 500 not in down  # t_over is visible
    first, last = down[down < 500].max(initial=-1) + 1, down[down > 500].min(initial=1001) - 1
    return orbit, station, (grid[first], grid[last], draw(st.integers(2, 40)))


# the ISS-like inclined pass a regression on the second-order model reads 5.25e-6 on
ISS_PASS = ((6.871e6, math.radians(51.6), math.radians(30.0), 0.0),
            (math.radians(20.0), math.radians(35.0), 0.0), (130.0, 500.0, 25))


class TestNoiselessRecovery:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(visible_passes(), st.sampled_from([0.0, 3e-4, -3e-4, 1e-2]))
    @example(ISS_PASS, 0.0)
    @example(ISS_PASS, 3e-4)
    @example(ISS_PASS, 1e-2)
    def test_a_noiseless_forecast_reads_the_injected_alpha(self, visible_pass, alpha):
        """Within 1e-10, or within twice the rounding of the stored phases where that is
        larger: on the lowest orbits validate accepts, phases of ~1e6 rad round at
        ~1e-10 rad against a ds/dalpha of ~1 rad."""
        orbit, station, sweep = visible_pass
        _, geoms = build_pass(GroundStation(*station), CircularOrbit(*orbit), *sweep)
        hats = precision_forecast(geoms, SCALE, alpha, 0, 10, 1).alpha_hat
        pair = phase_pair(geoms, SCALE, alpha)
        x = pair.ds_dalpha
        rounding = np.spacing(np.max(np.abs(pair.phi_sc))) * np.sum(np.abs(x)) / np.sum(x * x)
        assert np.all(np.abs(hats - alpha) <= max(1e-10, 2.0 * rounding))


ALPHA = 3e-4


def forecast(budget, trials, seed, n_epochs=6, **noise):
    """precision_forecast over the zenith LEO pass, with fringe_scan's noise arguments."""
    return precision_forecast(leo_pass(n_epochs)[1], SCALE, ALPHA, budget, trials, seed, **noise)


def empirical_sigma(est):
    return float(np.std(est.alpha_hat, ddof=1))


class TestPrecisionForecast:
    def test_requires_ten_trials(self):
        with pytest.raises(ValueError):
            forecast(10**6, trials=5, seed=1)

    def test_budget_below_one_pulse_per_point_rejected(self):
        # 6 epochs x 8 points x 2 terminals = 96 pulses; 0 means noiseless
        for budget in (1, 95):
            with pytest.raises(ValueError, match=r"photon budget \d+ is below one pulse .*\(96\)"):
                forecast(budget, trials=10, seed=1)

    def test_noiseless_pipeline_collapses(self):
        result = forecast(0, trials=10, seed=1)
        assert isinstance(result, AlphaEstimate)
        assert empirical_sigma(result) < 1e-10
        hats = result.alpha_hat
        assert hats.shape == result.sigma_alpha.shape == result.chi2_per_dof.shape == (10,)
        assert max(hats) == min(hats)
        # the regression subtracts the very phases the truth is simulated with, so
        # only the rounding of ~1e6 rad phases is left
        assert abs(hats[0] - 3e-4) <= 1e-10

    def test_empirical_matches_analytic(self):
        # 192000 pulses over 6 epochs x 8 points x 2 terminals: 2000 per point
        result = forecast(192000, trials=12, seed=20260815)
        assert empirical_sigma(result) == pytest.approx(np.mean(result.sigma_alpha), rel=0.3)

    def test_quadrupled_budget_halves_sigma(self):
        small = forecast(96000, trials=10, seed=3)
        large = forecast(384000, trials=10, seed=4)
        ratio = np.mean(small.sigma_alpha) / np.mean(large.sigma_alpha)
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_deterministic_under_seed(self):
        a = forecast(96000, trials=10, seed=9)
        b = forecast(96000, trials=10, seed=9)
        for field in ("alpha_hat", "sigma_alpha", "chi2_per_dof"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_budget_extrapolation(self, tmp_path, monkeypatch, capsys):
        # gravlink run's 1/sqrt(N) line against the footer's analytic sigma
        config = tmp_path / "forecast.yaml"
        config.write_text(NOISELESS_FORECAST.replace("photon_budget: 0", "photon_budget: 96000"),
                          encoding="utf-8")
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(config)]) == 0
        footer = (tmp_path / "out" / "forecast_trials.txt").read_text().splitlines()[-1]
        analytic = float(re.search(r"sigma_alpha_analytic=(\S+)", footer)[1])
        budget = 96000 * (analytic / 1e-5) ** 2
        assert f"photon budget for sigma_alpha = 1.0e-05: {budget:.3e} " in capsys.readouterr().out
        config.write_text(NOISELESS_FORECAST, encoding="utf-8")
        assert main(["run", str(config)]) == 0
        assert "noiseless run: budget extrapolation skipped" in capsys.readouterr().out


def per_trial_forecast(geoms, photon_budget, trials, seed, scan_points=8, visibility=1.0,
                       efficiency=1.0, dark_rate=0.0):
    """The forecast one trial at a time, as precision_forecast ran before it fitted
    trials in blocks: per trial one fringe_scan, one fit_phase and one
    estimate_alpha call. Yields each trial's AlphaEstimate; a failed fit names
    its scan as [epoch, terminal]."""
    n_per_point = photon_budget // (2 * len(geoms) * scan_points)
    truth = phase_pair(geoms, SCALE, ALPHA)
    model = phase_pair(geoms, SCALE)
    true_phase = np.stack([truth.phi_sc, truth.phi_gs], axis=-1)
    model_phase = np.stack([model.phi_sc, model.phi_gs], axis=-1)
    offsets = np.linspace(0.0, 2.0 * math.pi, scan_points, endpoint=False)
    for t in range(trials):
        if n_per_point > 0:
            fit = fit_phase(fringe_scan(offsets, true_phase, visibility, n_per_point,
                                        efficiency, np.random.SeedSequence((seed, t)),
                                        dark_rate=dark_rate))
            phase, sigma = model_phase + _wrap_phase(fit.phi_hat - model_phase), fit.sigma_phi
        else:
            phase, sigma = true_phase, np.full_like(true_phase, 1e-12)
        rows = np.stack([phase, sigma], axis=-1).reshape(len(geoms), 4)
        yield estimate_alpha(rows, model)


def trials_per_block(n_epochs, scan_points=8):
    return max(1, estimator._BLOCK_POINTS // (2 * n_epochs * scan_points))


class TestBlockedForecast:
    @pytest.mark.parametrize("budget, noise", [
        (16000000, {}),
        (0, {}),  # noiseless: every trial fits the true phases
        (2400000, {"visibility": 0.9, "efficiency": 0.8, "dark_rate": 1e-4}),
    ])
    def test_matches_the_per_trial_loop_bit_for_bit(self, budget, noise):
        block = trials_per_block(25)
        trials = 3 * block + block // 2 + 1  # three full blocks and a remainder
        assert block > 1 and trials % block
        result = forecast(budget, trials, 20260815, n_epochs=25, **noise)
        oracle = list(per_trial_forecast(leo_pass(25)[1], budget, trials, 20260815, **noise))
        for field in ("alpha_hat", "sigma_alpha", "chi2_per_dof"):
            np.testing.assert_array_equal(getattr(result, field),
                                          [getattr(est, field) for est in oracle])

    @pytest.mark.parametrize("budget", [16000000, 0])
    def test_regresses_once_per_block(self, monkeypatch, budget):
        block = trials_per_block(25)
        trials = 3 * block + 1
        calls = []

        def counted(rows, model, first=0):
            calls.append(first)
            return estimate_alpha(rows, model, first=first)

        monkeypatch.setattr(estimator, "estimate_alpha", counted)
        forecast(budget, trials, 1, n_epochs=25)
        assert calls == [0, block, 2 * block, 3 * block]

    def test_failed_fit_names_the_global_trial(self, monkeypatch):
        # 8 pulses per scan point: with this seed, trial 30's fit is the first to fail
        monkeypatch.setattr(estimator, "_BLOCK_POINTS", 4096)  # ten trials a block
        budget, seed = 3200, 6
        trial = 0  # the trials the loop finished before one failed
        with pytest.raises(GravlinkError) as failed:
            for _ in per_trial_forecast(leo_pass(25)[1], budget, 40, seed):
                trial += 1
        assert trial >= 2 * trials_per_block(25)  # a later block
        local = re.fullmatch(r"(.*) at scan \[(\d+), (\d+)\]", str(failed.value))
        with pytest.raises(type(failed.value)) as blocked:
            forecast(budget, 40, seed, n_epochs=25)
        assert str(blocked.value) == f"{local[1]} at scan [{trial}, {local[2]}, {local[3]}]"
        assert isinstance(blocked.value, DegenerateVisibility)

    def test_singular_fit_names_the_global_trial(self, monkeypatch):
        # a fit whose every sigma_phi is infinite leaves its trial no weight
        lost = 23

        def fit_losing_a_trial(scan, first=0):
            fit = fit_phase(scan, first=first)
            sigma = fit.sigma_phi.copy()
            if 0 <= lost - first < len(sigma):
                sigma[lost - first] = np.inf
            return fit._replace(sigma_phi=sigma)

        monkeypatch.setattr(estimator, "fit_phase", fit_losing_a_trial)
        monkeypatch.setattr(estimator, "_BLOCK_POINTS", 4096)  # ten trials a block
        assert lost // trials_per_block(25) >= 2
        with pytest.raises(SingularFit, match=rf"no leverage \(0\.0\): .* at trial \[{lost}\]$"):
            forecast(16000000, 30, 1, n_epochs=25)

    @pytest.mark.parametrize("budget, seed, noise", [
        (16000000, 20260815, {}),
        (0, 20260815, {}),
        (2400000, 20260815, {"visibility": 0.9, "efficiency": 0.8, "dark_rate": 1e-4}),
        (3200, 6, {}),  # 8 pulses per scan point: trial 30's fit is the first to fail
    ])
    def test_same_bits_at_any_block_size(self, monkeypatch, budget, seed, noise):
        # blocks of one trial, of seven (40 trials end in a block of five), and one block
        outcomes = []
        for trials_per_block in (1, 7, 40):
            monkeypatch.setattr(estimator, "_BLOCK_POINTS", trials_per_block * 2 * 25 * 8)
            try:
                est = forecast(budget, 40, seed, n_epochs=25, **noise)
            except DegenerateVisibility as failed:
                outcomes.append(str(failed))
            else:
                outcomes.append([getattr(est, field).tobytes()
                                 for field in ("alpha_hat", "sigma_alpha", "chi2_per_dof")])
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        failed = isinstance(outcomes[0], str)
        assert failed == (budget == 3200)
        assert not failed or re.search(r" at scan \[30, \d+, [01]\]$", outcomes[0])

    def test_shipped_forecast_moves_only_by_rounding_against_the_lapack_fit(
            self, tmp_path, monkeypatch):
        # the shipped alpha_forecast.yaml run twice: as is, and with the fit that
        # inverted each normal matrix by LAPACK
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / "alpha_forecast.yaml"

        def run(name):
            monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / name))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", str(scenario)]) == 0
            return np.loadtxt(tmp_path / name / "forecast_trials.txt")

        closed = run("closed")
        monkeypatch.setattr(estimator, "fit_phase", inv_fit_oracle)
        lapack = run("lapack")
        np.testing.assert_array_equal(closed[:, 0], lapack[:, 0])
        _, alpha_hat, sigma_alpha, chi2 = closed.T
        assert np.all(np.abs(alpha_hat - lapack[:, 1]) <= 1e-9 * sigma_alpha)
        np.testing.assert_allclose(sigma_alpha, lapack[:, 2], rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(chi2, lapack[:, 3], rtol=1e-10, atol=0.0)


NOISELESS_FORECAST = """
mode: alpha-forecast
seed: 6
output_dir: out
orbit:
  semi_major_axis_m: 6.771e+6
station:
  latitude_deg: 0.0
  longitude_deg: 0.0
optical:
  wavelength_m: 800.0e-9
  delay_length_m: 6000.0
sweep:
  t_start_s: -240.0
  t_end_s: 240.0
  n_epochs: 6
redshift:
  alpha: 3.0e-4
noise:
  photon_budget: 0
forecast:
  trials: 10
  scan_points: 8
"""


class TestSerializeTrials:
    def test_columnar_layout(self, tmp_path, monkeypatch):
        # the trial table gravlink run writes through its one table writer
        config = tmp_path / "forecast.yaml"
        config.write_text(NOISELESS_FORECAST, encoding="utf-8")
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(config)]) == 0
        text = (tmp_path / "out" / "forecast_trials.txt").read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0].startswith("# trial")
        assert lines[-1].startswith("# summary")
        body = np.loadtxt(lines)
        assert body.shape == (10, 4)
        np.testing.assert_allclose(body[:, 0], np.arange(10))
        assert np.all(body[:, 1] == body[0, 1])  # noiseless: every trial agrees
