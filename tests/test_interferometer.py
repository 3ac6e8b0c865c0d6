"""Three-peak cascade intensities, photon counting, and fringe fitting."""

import math

import numpy as np
import pytest

from gravlink.errors import DegenerateVisibility, FitDiverged, InsufficientScan
from gravlink.interferometer import (
    DetectionHistogram,
    PeakIntensities,
    cascade_intensities,
    fit_phase,
    fringe_scan,
    noiseless_scan,
    serialize_scan,
    simulate_counts,
)

FULL_SCAN = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
EIGHT_POINT_SCAN = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)


def binomial_root_weights(scan):
    """sqrt of the documented fit weights 1 / max(c (1 - c / n_sent), 1)."""
    counts = np.array([h.counts_central for h in scan], dtype=float)
    n_sent = np.array([h.n_sent for h in scan], dtype=float)
    return counts, 1.0 / np.sqrt(np.maximum(counts * (1.0 - counts / n_sent), 1.0))


def profile_chi2(phi, offsets, counts, root_w):
    """Weighted chi^2 of A (1 + V cos(phi + offset)) minimised over A and
    A V at fixed phi: a two-parameter linear fit."""
    design = np.column_stack([np.ones_like(offsets), np.cos(phi + offsets)])
    _, resid, _, _ = np.linalg.lstsq(root_w[:, None] * design, root_w * counts, rcond=None)
    return float(resid[0])


def crossing(f, target, inside, outside, iterations=60):
    """Bisect for f(phi) = target between f(inside) < target < f(outside)."""
    for _ in range(iterations):
        mid = 0.5 * (inside + outside)
        if f(mid) < target:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


class TestCascadeIntensities:
    def test_bright_fringe(self):
        peaks = cascade_intensities(0.0, 1.0)
        assert peaks.central == pytest.approx(0.25, abs=1e-15)
        assert peaks.early == pytest.approx(0.0625, abs=1e-15)
        assert peaks.late == pytest.approx(0.0625, abs=1e-15)
        assert peaks.central / peaks.early == pytest.approx(4.0, abs=1e-12)

    def test_dark_fringe(self):
        peaks = cascade_intensities(math.pi, 1.0)
        assert abs(peaks.central) < 1e-16
        assert peaks.early == pytest.approx(0.0625, abs=1e-15)

    def test_zero_visibility(self):
        for phi in (0.0, 1.0, 2.5):
            assert cascade_intensities(phi, 0.0).central == pytest.approx(
                0.125, abs=1e-15
            )

    def test_side_peaks_phase_independent(self):
        grid = np.linspace(-4.0, 8.0, 97)
        early = [cascade_intensities(float(p), 0.7).early for p in grid]
        late = [cascade_intensities(float(p), 0.7).late for p in grid]
        assert max(early) - min(early) < 1e-12
        assert max(late) - min(late) < 1e-12

    def test_both_ports_conserve_probability(self):
        # complementary port = same cascade, central fringe sign flipped;
        # the two monitored ports carry half the light, the rest exits
        # the preparation interferometer's unused port
        for phi in np.linspace(0.0, 2.0 * math.pi, 23):
            here = cascade_intensities(float(phi), 1.0)
            there = cascade_intensities(float(phi) + math.pi, 1.0)
            assert here.total + there.total == pytest.approx(0.5, abs=1e-12)

    def test_central_capped_at_quarter(self):
        for phi in np.linspace(0.0, 2.0 * math.pi, 50):
            assert 0.0 <= cascade_intensities(float(phi), 1.0).central <= 0.25

    def test_visibility_bound(self):
        with pytest.raises(ValueError):
            cascade_intensities(0.0, 1.5)
        with pytest.raises(ValueError):
            cascade_intensities(0.0, -0.1)

    def test_intensity_window(self):
        with pytest.raises(ValueError):
            PeakIntensities(early=0.5, central=0.1, late=0.0625)


class TestDetectionHistogram:
    def test_counts_cannot_exceed_sent(self):
        with pytest.raises(ValueError):
            DetectionHistogram(
                counts_early=600, counts_central=600, counts_late=0,
                n_sent=1000, phase_setting=0.0,
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            DetectionHistogram(
                counts_early=-1, counts_central=0, counts_late=0,
                n_sent=10, phase_setting=0.0,
            )


class TestSimulateCounts:
    def test_zero_efficiency(self):
        peaks = cascade_intensities(0.0, 1.0)
        hist = simulate_counts(peaks, 1000, 0.0, rng_seed=1)
        assert hist.counts_early == hist.counts_central == hist.counts_late == 0

    def test_bright_fringe_statistics(self):
        n = 10**6
        peaks = cascade_intensities(0.0, 1.0)
        hist = simulate_counts(peaks, n, 1.0, rng_seed=42)
        sigma = math.sqrt(0.25 * 0.75 * n)
        assert abs(hist.counts_central - 0.25 * n) < 5.0 * sigma
        sigma_side = math.sqrt(0.0625 * 0.9375 * n)
        assert abs(hist.counts_early - 0.0625 * n) < 5.0 * sigma_side

    def test_deterministic_under_seed(self):
        peaks = cascade_intensities(0.7, 0.9)
        a = simulate_counts(peaks, 5000, 0.3, rng_seed=123, dark_rate=1e-4)
        b = simulate_counts(peaks, 5000, 0.3, rng_seed=123, dark_rate=1e-4)
        assert (a.counts_early, a.counts_central, a.counts_late) == (
            b.counts_early, b.counts_central, b.counts_late
        )

    def test_total_bounded_by_sent(self):
        peaks = cascade_intensities(0.0, 1.0)
        for seed in range(20):
            hist = simulate_counts(peaks, 200, 1.0, rng_seed=seed, dark_rate=0.1)
            total = hist.counts_early + hist.counts_central + hist.counts_late
            assert total <= hist.n_sent

    def test_dark_counts_have_mean_rate(self):
        # efficiency 0 leaves only background clicks
        peaks = cascade_intensities(0.0, 1.0)
        n, rate = 10**6, 1e-3
        hist = simulate_counts(peaks, n, 0.0, rng_seed=7, dark_rate=rate)
        sigma = math.sqrt(rate * n)
        assert abs(hist.counts_central - rate * n) < 5.0 * sigma

    def test_overcommitted_probability_rejected(self):
        peaks = cascade_intensities(0.0, 1.0)
        with pytest.raises(ValueError):
            simulate_counts(peaks, 100, 1.0, rng_seed=1, dark_rate=0.4)
        with pytest.raises(ValueError):
            simulate_counts(peaks, 100, 1.0, rng_seed=1, dark_rate=-0.1)
        with pytest.raises(ValueError):
            simulate_counts(peaks, 0, 1.0, rng_seed=1)

    def test_generator_seed_accepted(self):
        peaks = cascade_intensities(0.0, 1.0)
        rng = np.random.default_rng(5)
        hist = simulate_counts(peaks, 1000, 1.0, rng_seed=rng)
        assert hist.n_sent == 1000


class TestFringeScan:
    def test_four_point_pattern(self):
        offsets = [0.0, math.pi / 2, math.pi, 1.5 * math.pi]
        scan = fringe_scan(offsets, 0.0, 1.0, 10**5, 1.0, seed=3)
        counts = [h.counts_central for h in scan]
        n = 10**5
        for count, inten in zip(counts, (0.25, 0.125, 0.0, 0.125)):
            sigma = math.sqrt(max(inten * (1 - inten) * n, 1.0))
            assert abs(count - inten * n) <= 5.0 * sigma

    def test_too_few_points(self):
        with pytest.raises(InsufficientScan):
            fringe_scan([0.0, 1.0, 2.0], 0.0, 1.0, 100, 1.0, seed=1)

    def test_too_narrow_span(self):
        with pytest.raises(InsufficientScan):
            fringe_scan([0.0, 0.1, 0.2, 0.3], 0.0, 1.0, 100, 1.0, seed=1)

    def test_deterministic_under_seed(self):
        a = fringe_scan(FULL_SCAN, 0.3, 1.0, 1000, 0.8, seed=11)
        b = fringe_scan(FULL_SCAN, 0.3, 1.0, 1000, 0.8, seed=11)
        assert [h.counts_central for h in a] == [h.counts_central for h in b]

    def test_noiseless_scan_matches_expectation(self):
        scan = noiseless_scan(FULL_SCAN, 0.0, 1.0, 1600, efficiency=0.5)
        for h, offset in zip(scan, FULL_SCAN):
            inten = cascade_intensities(float(offset), 1.0)
            assert h.counts_central == round(inten.central * 0.5 * 1600)


class TestFitPhase:
    def test_noiseless_inversion(self):
        scan = noiseless_scan(FULL_SCAN, 1.0, 1.0, 10**7)
        fit = fit_phase(scan)
        assert abs(fit.phi_hat - 1.0) < 1e-6
        assert fit.visibility_hat == pytest.approx(1.0, abs=1e-3)

    def test_recovers_base_third_pi(self):
        scan = fringe_scan(FULL_SCAN, math.pi / 3, 1.0, 10**6, 1.0, seed=8)
        fit = fit_phase(scan)
        assert abs(fit.phi_hat - math.pi / 3) < 0.01

    def test_result_is_wrapped(self):
        base = 7.0
        scan = fringe_scan(FULL_SCAN, base, 1.0, 10**6, 1.0, seed=21)
        fit = fit_phase(scan)
        expected = math.remainder(base, 2.0 * math.pi)
        assert abs(fit.phi_hat - expected) < 0.01
        assert -math.pi < fit.phi_hat <= math.pi

    def test_sigma_scales_with_photon_number(self):
        # Cramer-Rao: ten times fewer photons per point, sqrt(100) = 10x
        # the phase error
        def mean_sigma(n_per_point, seeds):
            values = []
            for s in seeds:
                scan = fringe_scan(FULL_SCAN, 0.9, 1.0, n_per_point, 1.0, seed=s)
                values.append(fit_phase(scan).sigma_phi)
            return float(np.mean(values))

        small = mean_sigma(10**4, range(100, 112))
        large = mean_sigma(10**6, range(200, 212))
        assert small / large == pytest.approx(10.0, rel=0.3)

    def test_zero_visibility_degenerate(self):
        scan = noiseless_scan(FULL_SCAN, 0.0, 0.0, 10**6)
        with pytest.raises(DegenerateVisibility):
            fit_phase(scan)

    def test_no_counts_degenerate(self):
        scan = noiseless_scan(FULL_SCAN, 0.0, 1.0, 100, efficiency=0.0)
        with pytest.raises(DegenerateVisibility):
            fit_phase(scan)

    def test_estimator_consistency_over_seeds(self):
        base = 0.7
        errors = []
        sigmas = []
        for seed in range(100):
            scan = fringe_scan(FULL_SCAN, base, 1.0, 2000, 1.0, seed=(9, seed))
            fit = fit_phase(scan)
            errors.append(fit.phi_hat - base)
            sigmas.append(fit.sigma_phi)
        bias = float(np.mean(errors))
        assert abs(bias) <= 3.0 * float(np.mean(sigmas)) / 10.0

    def test_sigma_close_to_shot_noise(self):
        # reported uncertainty tracks the observed scatter
        errors, sigmas = [], []
        for seed in range(60):
            scan = fringe_scan(FULL_SCAN, 0.4, 1.0, 5000, 1.0, seed=(13, seed))
            fit = fit_phase(scan)
            errors.append(fit.phi_hat - 0.4)
            sigmas.append(fit.sigma_phi)
        spread = float(np.std(errors, ddof=1))
        assert float(np.mean(sigmas)) == pytest.approx(spread, rel=0.35)

    def test_pulls_calibrated_with_binomial_weights(self):
        # multinomial counts have variance n p (1 - p); Poisson weights
        # leave these pulls at a std of about 0.96 at efficiency 1
        n_scans = 2000
        pulls = []
        for k in range(n_scans):
            base = -math.pi + 2.0 * math.pi * (k + 0.5) / n_scans
            fit = fit_phase(fringe_scan(FULL_SCAN, base, 1.0, 20000, 1.0, seed=(31, k)))
            pulls.append(math.remainder(fit.phi_hat - base, 2.0 * math.pi) / fit.sigma_phi)
        assert 0.97 <= float(np.std(pulls, ddof=1)) <= 1.03

    @pytest.mark.parametrize(
        "offsets, n_per_point, visibility, efficiency",
        [
            (EIGHT_POINT_SCAN, 40000, 1.0, 1.0),
            (FULL_SCAN, 5000, 0.8, 0.5),
            (np.linspace(0.0, 1.2 * math.pi, 6), 200000, 0.6, 0.9),
        ],
    )
    def test_fit_is_profile_chi2_optimum(self, offsets, n_per_point, visibility, efficiency):
        for k in range(10):
            base = -3.0 + 0.6 * k
            scan = fringe_scan(offsets, base, visibility, n_per_point, efficiency, seed=(41, k))
            fit = fit_phase(scan)
            counts, root_w = binomial_root_weights(scan)

            def chi2(phi):
                return profile_chi2(phi, offsets, counts, root_w)

            # vertex of the parabola through three points about phi_hat
            h = 0.01 * fit.sigma_phi
            lo, mid, hi = chi2(fit.phi_hat - h), chi2(fit.phi_hat), chi2(fit.phi_hat + h)
            vertex = fit.phi_hat - 0.5 * h * (hi - lo) / (hi - 2.0 * mid + lo)
            assert abs(vertex - fit.phi_hat) <= 1e-6
            target = mid + 1.0
            reach = 5.0 * fit.sigma_phi
            left = crossing(chi2, target, fit.phi_hat, fit.phi_hat - reach)
            right = crossing(chi2, target, fit.phi_hat, fit.phi_hat + reach)
            assert 0.5 * (right - left) == pytest.approx(fit.sigma_phi, rel=0.01)

    def test_singular_design_diverges_with_residuals(self):
        offsets = [0.0, 0.0, math.pi, math.pi]
        scan = [
            DetectionHistogram(100, c, 100, 10**4, offset)
            for c, offset in zip((900, 880, 120, 130), offsets)
        ]
        with pytest.raises(FitDiverged, match="residuals"):
            fit_phase(scan)


class TestSerializeScan:
    def test_columnar_roundtrip(self):
        scan = fringe_scan(FULL_SCAN, 0.0, 1.0, 3000, 1.0, seed=2)
        text = serialize_scan(scan)
        assert text.startswith("# offset_rad")
        data = np.loadtxt(text.splitlines())
        assert data.shape == (16, 5)
        np.testing.assert_allclose(data[:, 0], FULL_SCAN, atol=1e-12)
        assert [int(v) for v in data[:, 2]] == [h.counts_central for h in scan]
        assert all(int(v) == 3000 for v in data[:, 4])
