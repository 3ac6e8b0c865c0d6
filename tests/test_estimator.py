"""Violation-parameter regression and Monte Carlo forecasting."""

import math

import numpy as np
import pytest

from gravlink.cli import main
from gravlink.errors import SingularFit
from gravlink.estimator import (
    AlphaEstimate,
    ForecastScenario,
    PassDataset,
    build_pass,
    estimate_alpha,
    precision_forecast,
    synthesize_measurements,
)
from gravlink.kinematics import CircularOrbit, GroundStation, LinkGeometry
from gravlink.link_model import OpticalConfig, RedshiftParams, velocity_terms

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
        U3=np.full(n, U_SURFACE), a1=np.tile([0.03, 0.0, 0.0], (n, 1)), t_up=np.full(n, 1.3e-3),
        d1=np.sum(n12 * b1, axis=1), d2=np.sum(n12 * b2, axis=1), d3=np.sum(n23 * b1, axis=1),
    )


def leo_pass(n_epochs=50):
    gs = GroundStation(0.0, 0.0)
    sc = CircularOrbit(6.771e6)
    return build_pass(gs, sc, -240.0, 240.0, n_epochs)


class TestPassDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PassDataset(epochs=(0.0,), geometries=tiny_beta_geometries(2),
                        phase_measurements=())

    def test_bad_row_width(self):
        geom = tiny_beta_geometries(1)
        with pytest.raises(ValueError):
            PassDataset(
                epochs=(0.0,), geometries=geom,
                phase_measurements=((1.0, 0.1, 2.0),),
            )

    def test_nonpositive_sigma(self):
        geom = tiny_beta_geometries(1)
        with pytest.raises(ValueError):
            PassDataset(
                epochs=(0.0,), geometries=geom,
                phase_measurements=((1.0, 0.0, 2.0, 0.1),),
            )

    def test_one_epoch_geometry_from_scalars(self):
        # 3-vectors and floats make a batch of one, with a length
        beta = np.array([0.0, 1.0e-8, 0.0])
        n12 = np.array([1.0, 0.0, 0.0])
        geom = LinkGeometry(
            beta1=beta, beta2=beta, beta3=beta, n12=n12, n23=-n12,
            U1=U_SURFACE, U2=U_SURFACE - 4.0e-11, U3=U_SURFACE, a1=np.zeros(3),
            t_up=1.3e-3, d1=0.0, d2=0.0, d3=0.0,
        )
        assert len(geom) == 1
        assert geom.n12.shape == (1, 3) and geom.U2.shape == (1,) and geom.d2.shape == (1,)
        data = PassDataset(epochs=(0.0,), geometries=geom,
                           phase_measurements=((1.0, 0.1, 2.0, 0.1),))
        assert len(data) == 1

    def test_alpha_estimate_sigma_positive(self):
        with pytest.raises(ValueError):
            AlphaEstimate(alpha_hat=0.0, sigma_alpha=0.0, chi2_per_dof=1.0)


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
        epochs = np.arange(len(geoms), dtype=float)
        data = synthesize_measurements(epochs, geoms, OPTICS, RedshiftParams(0.0))
        est = estimate_alpha(data, OPTICS)
        assert abs(est.alpha_hat) < 1e-12

    def test_noiseless_alpha_recovery(self):
        geoms = tiny_beta_geometries()
        epochs = np.arange(len(geoms), dtype=float)
        data = synthesize_measurements(epochs, geoms, OPTICS, RedshiftParams(3e-4))
        est = estimate_alpha(data, OPTICS)
        assert abs(est.alpha_hat - 3e-4) < 1e-12

    def test_exact_model_roundtrip(self):
        # synthesizing and estimating with the exact ratios leaves only the
        # documented O(beta, U) rescaling of alpha itself
        epochs, geoms = leo_pass(20)
        data = synthesize_measurements(
            epochs, geoms, OPTICS, RedshiftParams(3e-4), model="exact"
        )
        est = estimate_alpha(data, OPTICS, geometry_model="exact")
        assert est.alpha_hat == pytest.approx(3e-4, abs=1e-7)

    def test_model_subtraction_residual(self):
        # exact synthesis vs expanded model terms: per-epoch residual stays
        # within the second-order truncation bound
        epochs, geoms = leo_pass(20)
        red = RedshiftParams(2e-4)
        data = synthesize_measurements(epochs, geoms, OPTICS, red, model="exact")
        scale = OPTICS.phase_scale
        geom, rows = data.geometries, data.phase_measurements
        beta_max = np.max(np.linalg.norm([geom.beta1, geom.beta2, geom.beta3], axis=-1), axis=0)
        s_meas = rows[:, 0] - 0.5 * rows[:, 2]
        resid = s_meas / scale - velocity_terms(geom) \
            - (1.0 + red.alpha) * (geom.U2 - geom.U1)
        assert np.all(np.abs(resid) <= 10.0 * beta_max**3)

    def test_unbiased_under_phase_noise(self):
        epochs, geoms = leo_pass(50)
        truth = 3e-4
        alpha_hats = []
        sigma = None
        for seed in range(100):
            data = synthesize_measurements(
                epochs, geoms, OPTICS, RedshiftParams(truth),
                sigma_sc=1e-3, sigma_gs=1e-3, seed=seed,
            )
            est = estimate_alpha(data, OPTICS)
            alpha_hats.append(est.alpha_hat)
            sigma = est.sigma_alpha
        bias = float(np.mean(alpha_hats)) - truth
        assert abs(bias) <= 3.0 * sigma / math.sqrt(100.0)

    def test_chi2_health(self):
        epochs, geoms = leo_pass(50)
        data = synthesize_measurements(
            epochs, geoms, OPTICS, RedshiftParams(0.0),
            sigma_sc=1e-3, sigma_gs=1e-3, seed=77,
        )
        est = estimate_alpha(data, OPTICS)
        assert 0.5 < est.chi2_per_dof < 2.0

    def test_singular_when_no_leverage(self):
        geom = tiny_beta_geometries(1)
        flat = LinkGeometry(
            beta1=geom.beta1, beta2=geom.beta2, beta3=geom.beta3,
            n12=geom.n12, n23=geom.n23,
            U1=geom.U1, U2=geom.U1, U3=geom.U1,
            a1=geom.a1, t_up=geom.t_up,
            d1=geom.d1, d2=geom.d2, d3=geom.d3,
        )
        data = synthesize_measurements([0.0], flat, OPTICS, RedshiftParams(0.0))
        with pytest.raises(SingularFit):
            estimate_alpha(data, OPTICS)

    def test_sigma_alpha_matches_propagation(self):
        epochs, geoms = leo_pass(25)
        data = synthesize_measurements(
            epochs, geoms, OPTICS, RedshiftParams(0.0),
            sigma_sc=1e-3, sigma_gs=1e-3, seed=5,
        )
        est = estimate_alpha(data, OPTICS)
        scale = OPTICS.phase_scale
        var_s = 1e-6 + 0.25e-6
        geoms = data.geometries
        leverage = np.sum(scale**2 / var_s * (geoms.U2 - geoms.U1) ** 2)
        assert est.sigma_alpha == pytest.approx(1.0 / math.sqrt(leverage), rel=1e-9)

    def test_unknown_model_rejected(self):
        geoms = tiny_beta_geometries(3)
        data = synthesize_measurements([0, 1, 2], geoms, OPTICS, RedshiftParams(0.0))
        with pytest.raises(ValueError):
            estimate_alpha(data, OPTICS, geometry_model="cubic")
        with pytest.raises(ValueError):
            synthesize_measurements(
                [0, 1, 2], geoms, OPTICS, RedshiftParams(0.0), model="fancy"
            )


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
