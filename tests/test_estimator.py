"""Violation-parameter regression and Monte Carlo forecasting."""

import dataclasses
import math
import re

import numpy as np
import pytest

from gravlink import estimator
from gravlink.cli import main
from gravlink.errors import DegenerateVisibility, GravlinkError, SingularFit
from gravlink.estimator import (
    AlphaEstimate,
    ForecastResult,
    ForecastScenario,
    build_pass,
    estimate_alpha,
    precision_forecast,
)
from gravlink.interferometer import _wrap_phase, fit_phase, fringe_scan
from gravlink.kinematics import CircularOrbit, GroundStation, LinkGeometry
from gravlink.link_model import OpticalConfig, RedshiftParams, phase_pair, velocity_terms

from helpers import synthesize_measurements

U_SURFACE = 6.961274586591855e-10
OPTICS = OpticalConfig(lambda0=800e-9, delay_length=6.0e3, tau_l=2.0014e-5)


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


def leo_pass(n_epochs=50):
    gs = GroundStation(0.0, 0.0)
    sc = CircularOrbit(6.771e6)
    return build_pass(gs, sc, -240.0, 240.0, n_epochs)


class TestPassDataset:
    """The checks estimate_alpha makes of a pass's measurement rows against its geometry."""

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            estimate_alpha(((1.0, 0.1, 2.0, 0.1),), tiny_beta_geometries(2), OPTICS)

    def test_bad_row_width(self):
        geom = tiny_beta_geometries(1)
        with pytest.raises(ValueError):
            estimate_alpha(((1.0, 0.1, 2.0),), geom, OPTICS)

    def test_nonpositive_sigma(self):
        geom = tiny_beta_geometries(1)
        with pytest.raises(ValueError):
            estimate_alpha(((1.0, 0.0, 2.0, 0.1),), geom, OPTICS)

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
        est = estimate_alpha(((1.0, 0.1, 2.0, 0.1),), geom, OPTICS)
        assert np.shape(est.alpha_hat) == () and est.chi2_per_dof == 0.0

    def test_alpha_estimate_sigma_positive(self):
        with pytest.raises(ValueError):
            AlphaEstimate(alpha_hat=0.0, sigma_alpha=0.0, chi2_per_dof=1.0)
        with pytest.raises(ValueError):  # checked for every estimate of a batch
            AlphaEstimate(alpha_hat=np.zeros(3), sigma_alpha=np.array([1.0, 0.0, 1.0]),
                          chi2_per_dof=np.ones(3))

    def test_batch_of_measurement_rows(self):
        geom = tiny_beta_geometries(2)
        est = estimate_alpha(np.full((3, 5, 2, 4), 0.1), geom, OPTICS)
        assert est.alpha_hat.shape == est.sigma_alpha.shape == (3, 5)
        rows = np.full((3, 2, 4), 0.1)
        rows[1, 0, 3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            estimate_alpha(rows, geom, OPTICS)
        with pytest.raises(ValueError, match="align"):
            estimate_alpha(rows[:, :1], geom, OPTICS)


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
        rows = synthesize_measurements(geoms, OPTICS, RedshiftParams(0.0))
        est = estimate_alpha(rows, geoms, OPTICS)
        assert abs(est.alpha_hat) < 1e-12

    def test_noiseless_alpha_recovery(self):
        geoms = tiny_beta_geometries()
        rows = synthesize_measurements(geoms, OPTICS, RedshiftParams(3e-4))
        est = estimate_alpha(rows, geoms, OPTICS)
        assert abs(est.alpha_hat - 3e-4) < 1e-12

    def test_model_subtraction_residual(self):
        # exact synthesis vs expanded model terms: per-epoch residual stays
        # within the second-order truncation bound
        _, geom = leo_pass(20)
        red = RedshiftParams(2e-4)
        rows = synthesize_measurements(geom, OPTICS, red, model="exact")
        scale = OPTICS.phase_scale
        beta_max = np.max(np.linalg.norm([geom.beta1, geom.beta2, geom.beta3], axis=-1), axis=0)
        s_meas = rows[:, 0] - 0.5 * rows[:, 2]
        resid = s_meas / scale - velocity_terms(geom) \
            - (1.0 + red.alpha) * (geom.U2 - geom.U1)
        assert np.all(np.abs(resid) <= 10.0 * beta_max**3)

    def test_unbiased_under_phase_noise(self):
        _, geoms = leo_pass(50)
        truth = 3e-4
        alpha_hats = []
        sigma = None
        for seed in range(100):
            rows = synthesize_measurements(
                geoms, OPTICS, RedshiftParams(truth),
                sigma_sc=1e-3, sigma_gs=1e-3, seed=seed,
            )
            est = estimate_alpha(rows, geoms, OPTICS)
            alpha_hats.append(est.alpha_hat)
            sigma = est.sigma_alpha
        bias = float(np.mean(alpha_hats)) - truth
        assert abs(bias) <= 3.0 * sigma / math.sqrt(100.0)

    def test_chi2_health(self):
        _, geoms = leo_pass(50)
        rows = synthesize_measurements(
            geoms, OPTICS, RedshiftParams(0.0),
            sigma_sc=1e-3, sigma_gs=1e-3, seed=77,
        )
        est = estimate_alpha(rows, geoms, OPTICS)
        assert 0.5 < est.chi2_per_dof < 2.0

    def test_singular_when_no_leverage(self):
        geom = tiny_beta_geometries(1)
        flat = LinkGeometry(
            beta1=geom.beta1, beta2=geom.beta2, beta3=geom.beta3,
            n12=geom.n12, n23=geom.n23,
            U1=geom.U1, U2=geom.U1, a1=geom.a1, t_up=geom.t_up,
        )
        rows = synthesize_measurements(flat, OPTICS, RedshiftParams(0.0))
        with pytest.raises(SingularFit):
            estimate_alpha(rows, flat, OPTICS)

    def test_sigma_alpha_matches_propagation(self):
        _, geoms = leo_pass(25)
        rows = synthesize_measurements(
            geoms, OPTICS, RedshiftParams(0.0),
            sigma_sc=1e-3, sigma_gs=1e-3, seed=5,
        )
        est = estimate_alpha(rows, geoms, OPTICS)
        scale = OPTICS.phase_scale
        var_s = 1e-6 + 0.25e-6
        leverage = np.sum(scale**2 / var_s * (geoms.U2 - geoms.U1) ** 2)
        assert est.sigma_alpha == pytest.approx(1.0 / math.sqrt(leverage), rel=1e-9)

    def test_batch_matches_one_set_at_a_time(self):
        _, geoms = leo_pass(20)
        sets = [synthesize_measurements(geoms, OPTICS, RedshiftParams(3e-4),
                                        sigma_sc=1e-3, sigma_gs=2e-3, seed=k)
                for k in range(6)]
        batch = estimate_alpha(np.stack(sets).reshape(2, 3, 20, 4), geoms, OPTICS)
        for field in ("alpha_hat", "sigma_alpha", "chi2_per_dof"):
            one = [getattr(estimate_alpha(rows, geoms, OPTICS), field) for rows in sets]
            assert getattr(batch, field).shape == (2, 3)
            np.testing.assert_array_equal(getattr(batch, field).ravel(), one)

    def test_batch_names_the_set_without_leverage(self):
        _, geoms = leo_pass(5)
        rows = np.tile(synthesize_measurements(geoms, OPTICS, RedshiftParams(0.0)), (4, 1, 1))
        rows[2, :, 1] = rows[2, :, 3] = np.inf  # positive, but weighs nothing
        with pytest.raises(SingularFit, match=r" at trial \[2\]$"):
            estimate_alpha(rows, geoms, OPTICS)
        with pytest.raises(SingularFit, match=r" at trial \[12\]$"):  # counted from first
            estimate_alpha(rows, geoms, OPTICS, first=10)

    def test_unknown_model_rejected(self):
        geoms = tiny_beta_geometries(3)
        with pytest.raises(ValueError):
            synthesize_measurements(geoms, OPTICS, RedshiftParams(0.0), model="fancy")


def forecast_scenario(n_epochs=6, scan_points=8):
    return ForecastScenario(
        gs_trajectory=GroundStation(0.0, 0.0),
        sc_trajectory=CircularOrbit(6.771e6),
        cfg=OPTICS,
        red=RedshiftParams(3e-4),
        t_start=-240.0,
        t_end=240.0,
        n_epochs=n_epochs,
        scan_points=scan_points,
    )


class TestPrecisionForecast:
    def test_requires_ten_trials(self):
        with pytest.raises(ValueError):
            precision_forecast(forecast_scenario(), 10**6, trials=5, seed=1)

    def test_budget_below_one_pulse_per_point_rejected(self):
        # 6 epochs x 8 points x 2 terminals = 96 pulses; 0 means noiseless
        for budget in (1, 95):
            with pytest.raises(ValueError, match=r"photon budget \d+ is below one pulse .*\(96\)"):
                precision_forecast(forecast_scenario(), budget, trials=10, seed=1)

    def test_noiseless_pipeline_collapses(self):
        result = precision_forecast(forecast_scenario(), 0, trials=10, seed=1)
        assert result.sigma_alpha_empirical < 1e-10
        assert result.n_per_point == 0
        hats = result.alpha_hat
        assert max(hats) == min(hats)
        # truth phases use the exact ratios while the regression subtracts
        # the second-order model, so the noiseless pipeline is systematically
        # off by at most the truncation-over-leverage ratio; tight
        # unbiasedness is asserted on the matched-model path above
        beta_max = 2.6e-5
        delta_u = 4.0e-11
        assert abs(hats[0] - 3e-4) <= 10.0 * beta_max**3 / delta_u

    def test_empirical_matches_analytic(self):
        result = precision_forecast(
            forecast_scenario(), 192000, trials=12, seed=20260815
        )
        assert result.n_per_point == 2000
        assert result.sigma_alpha_empirical == pytest.approx(
            result.sigma_alpha_analytic, rel=0.3
        )

    def test_quadrupled_budget_halves_sigma(self):
        small = precision_forecast(forecast_scenario(), 96000, trials=10, seed=3)
        large = precision_forecast(forecast_scenario(), 384000, trials=10, seed=4)
        ratio = small.sigma_alpha_analytic / large.sigma_alpha_analytic
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_deterministic_under_seed(self):
        a = precision_forecast(forecast_scenario(), 96000, trials=10, seed=9)
        b = precision_forecast(forecast_scenario(), 96000, trials=10, seed=9)
        for field in ("alpha_hat", "sigma_alpha", "chi2_per_dof"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_budget_extrapolation(self):
        result = precision_forecast(forecast_scenario(), 96000, trials=10, seed=2)
        target = 1e-5
        budget = result.budget_for_target(target)
        # consistency of the 1/sqrt(N) rule with itself
        expected_sigma_ratio = result.sigma_alpha_analytic / target
        assert budget == pytest.approx(96000 * expected_sigma_ratio**2, rel=1e-12)
        noiseless = precision_forecast(forecast_scenario(), 0, trials=10, seed=2)
        with pytest.raises(ValueError):
            noiseless.budget_for_target(target)

    @pytest.mark.parametrize("target", [-1e-5, 0.0, -0.0, math.inf, math.nan])
    def test_budget_rejects_a_target_that_is_not_positive_and_finite(self, target):
        result = ForecastResult(sigma_alpha_empirical=2e-5, sigma_alpha_analytic=2e-5,
                                alpha_hat=np.zeros(10), sigma_alpha=np.full(10, 2e-5),
                                chi2_per_dof=np.ones(10), photon_budget=1000, n_per_point=10)
        assert result.budget_for_target(1e-5) == 4000.0
        with pytest.raises(ValueError, match="target sigma_alpha must be positive and finite"):
            result.budget_for_target(target)


    def test_budget_past_the_float_range_is_inf(self):
        # (sigma / target) ** 2 raised OverflowError instead of reaching inf
        result = ForecastResult(sigma_alpha_empirical=2e-5, sigma_alpha_analytic=2e-5,
                                alpha_hat=np.zeros(10), sigma_alpha=np.full(10, 2e-5),
                                chi2_per_dof=np.ones(10), photon_budget=1000, n_per_point=10)
        assert result.budget_for_target(1e-300) == math.inf


def per_trial_forecast(scenario, photon_budget, trials, seed):
    """The forecast one trial at a time, as precision_forecast ran before it fitted
    trials in blocks: per trial one fringe_scan, one fit_phase and one
    estimate_alpha call. Yields each trial's AlphaEstimate; a failed fit names
    its scan as [epoch, terminal]."""
    n_per_point = photon_budget // (2 * scenario.n_epochs * scenario.scan_points)
    epochs, geoms = build_pass(scenario.gs_trajectory, scenario.sc_trajectory,
                               scenario.t_start, scenario.t_end, scenario.n_epochs)
    truth = phase_pair(geoms, scenario.cfg, scenario.red)
    model = phase_pair(geoms, scenario.cfg, RedshiftParams(0.0))
    true_phase = np.stack([truth.phi_sc, truth.phi_gs], axis=-1)
    model_phase = np.stack([model.phi_sc, model.phi_gs], axis=-1)
    offsets = np.linspace(0.0, 2.0 * math.pi, scenario.scan_points, endpoint=False)
    for t in range(trials):
        if n_per_point > 0:
            fit = fit_phase(fringe_scan(offsets, true_phase, scenario.visibility, n_per_point,
                                        scenario.efficiency, np.random.SeedSequence((seed, t)),
                                        dark_rate=scenario.dark_rate))
            phase, sigma = model_phase + _wrap_phase(fit.phi_hat - model_phase), fit.sigma_phi
        else:
            phase, sigma = true_phase, np.full_like(true_phase, 1e-12)
        rows = np.stack([phase, sigma], axis=-1).reshape(len(epochs), 4)
        yield estimate_alpha(rows, geoms, scenario.cfg)


def trials_per_block(scenario):
    return max(1, estimator._BLOCK_POINTS // (2 * scenario.n_epochs * scenario.scan_points))


class TestBlockedForecast:
    @pytest.mark.parametrize("budget, noise", [
        (16000000, {}),
        (0, {}),  # noiseless: every trial fits the true phases
        (2400000, {"visibility": 0.9, "efficiency": 0.8, "dark_rate": 1e-4}),
    ])
    def test_matches_the_per_trial_loop_bit_for_bit(self, budget, noise):
        scenario = dataclasses.replace(forecast_scenario(n_epochs=25), **noise)
        block = trials_per_block(scenario)
        trials = 3 * block + block // 2 + 1  # three full blocks and a remainder
        assert block > 1 and trials % block
        result = precision_forecast(scenario, budget, trials=trials, seed=20260815)
        oracle = list(per_trial_forecast(scenario, budget, trials, seed=20260815))
        for field in ("alpha_hat", "sigma_alpha", "chi2_per_dof"):
            np.testing.assert_array_equal(getattr(result, field),
                                          [getattr(est, field) for est in oracle])

    @pytest.mark.parametrize("budget", [16000000, 0])
    def test_regresses_once_per_block(self, monkeypatch, budget):
        scenario = forecast_scenario(n_epochs=25)
        block = trials_per_block(scenario)
        trials = 3 * block + 1
        calls = []

        def counted(rows, geometries, cfg, first=0):
            calls.append(first)
            return estimate_alpha(rows, geometries, cfg, first=first)

        monkeypatch.setattr(estimator, "estimate_alpha", counted)
        precision_forecast(scenario, budget, trials=trials, seed=1)
        assert calls == [0, block, 2 * block, 3 * block]

    def test_failed_fit_names_the_global_trial(self):
        # 8 pulses per scan point: with this seed, trial 30's fit is the first to fail
        scenario, budget, seed = forecast_scenario(n_epochs=25), 3200, 6
        trial = 0  # the trials the loop finished before one failed
        with pytest.raises(GravlinkError) as failed:
            for _ in per_trial_forecast(scenario, budget, 40, seed):
                trial += 1
        assert trial >= 2 * trials_per_block(scenario)  # a later block
        local = re.fullmatch(r"(.*) at scan \[(\d+), (\d+)\]", str(failed.value))
        with pytest.raises(type(failed.value)) as blocked:
            precision_forecast(scenario, budget, trials=40, seed=seed)
        assert str(blocked.value) == f"{local[1]} at scan [{trial}, {local[2]}, {local[3]}]"
        assert isinstance(blocked.value, DegenerateVisibility)

    def test_singular_fit_names_the_global_trial(self, monkeypatch):
        # a fit whose every sigma_phi is infinite leaves its trial no weight
        scenario, lost = forecast_scenario(n_epochs=25), 23

        def fit_losing_a_trial(scan, first=0):
            fit = fit_phase(scan, first=first)
            sigma = fit.sigma_phi.copy()
            if 0 <= lost - first < len(sigma):
                sigma[lost - first] = np.inf
            return fit._replace(sigma_phi=sigma)

        monkeypatch.setattr(estimator, "fit_phase", fit_losing_a_trial)
        assert lost // trials_per_block(scenario) >= 2
        with pytest.raises(SingularFit, match=rf"no leverage \(0\.0\): .* at trial \[{lost}\]$"):
            precision_forecast(scenario, 16000000, trials=30, seed=1)


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
