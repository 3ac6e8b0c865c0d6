"""The detection model (outcome probabilities at fringe phases), photon counting,
and fringe fitting."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gravlink.cli import _table, main
from gravlink.errors import DegenerateVisibility, FitDiverged, InsufficientScan
from gravlink.interferometer import (
    FringeScan,
    _wrap_phase,
    draw_counts,
    fit_phase,
    fringe_scan,
    outcome_probabilities,
)
from helpers import inv_fit_oracle

FULL_SCAN = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
EIGHT_POINT_SCAN = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
FOUR_POINT_SCAN = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)


def window_intensities(phi, visibility):
    """The module docstring's early, central and late intensities (..., 3): the window
    probabilities at efficiency 1 and no dark counts."""
    return outcome_probabilities(phi, visibility, 1.0)[..., :3]


def noiseless_scan(phi_offsets, base_phase, visibility, n_per_point, efficiency=1.0):
    """Expected counts rounded to integers, no shot noise; shapes as fringe_scan."""
    offsets = np.asarray(phi_offsets, dtype=float)
    pvals = outcome_probabilities(np.asarray(base_phase, dtype=float)[..., None] + offsets,
                                  visibility, efficiency)
    return FringeScan(offsets, np.rint(pvals[..., :3] * n_per_point), n_per_point)


def binomial_root_weights(scan):
    """sqrt of the documented fit weights 1 / max(c (1 - c / n_sent), 1)."""
    counts = scan.counts[..., 1].astype(float)
    return counts, 1.0 / np.sqrt(np.maximum(counts * (1.0 - counts / scan.n_sent), 1.0))


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


def svd_fit_oracle(offsets, counts, n_sent):
    """The one-scan weighted fit by SVD that fit_phase batched: returns
    (phi_hat, sigma_phi, visibility_hat) of central counts (P,), or raises
    as fit_phase does."""
    if counts.sum() <= 0:
        raise DegenerateVisibility("no central-peak counts; phase unidentifiable")
    design = np.column_stack([np.ones_like(offsets), np.cos(offsets), np.sin(offsets)])
    root_w = 1.0 / np.sqrt(np.maximum(counts * (1.0 - counts / n_sent), 1.0))
    u, s, vt = np.linalg.svd(root_w[:, None] * design, full_matrices=False)
    if s[-1] <= s[0] * offsets.size * np.finfo(float).eps:
        raise FitDiverged("singular fringe-fit normal matrix")
    a0, a1, a2 = vt.T @ ((u.T @ (root_w * counts)) / s)
    if a0 <= 0.0:
        raise DegenerateVisibility(f"non-positive fringe baseline {a0:.3g}")
    amp = math.hypot(a1, a2)
    if amp / a0 < 0.05:
        raise DegenerateVisibility("fitted visibility below 0.05")
    grad = (vt[:, 1] * a2 - vt[:, 2] * a1) / (amp * amp * s)
    phi = math.remainder(math.atan2(-a2, a1), 2.0 * math.pi)
    return (math.pi if phi <= -math.pi else phi), math.sqrt(float(grad @ grad)), amp / a0


def weight_spread(scan):
    """max w / min w over each scan's fit weights: the bound on the condition
    number of its normal matrix in the orthonormal basis."""
    _, root_w = binomial_root_weights(scan)
    return (root_w.max(axis=-1) / root_w.min(axis=-1)) ** 2


def exact_fit(offsets, counts, n_sent):
    """(phi_hat, sigma_phi, visibility_hat) of one scan's weighted fit, its normal
    equations solved in 50-digit arithmetic from the double inputs."""
    with mpmath.workdps(50):
        design = mpmath.matrix([[1, mpmath.cos(o), mpmath.sin(o)] for o in offsets.tolist()])
        c = [mpmath.mpf(int(x)) for x in counts]
        w = mpmath.diag([1 / max(x * (1 - x / n_sent), mpmath.mpf(1)) for x in c])
        cov = (design.T * w * design) ** -1
        a0, a1, a2 = cov * (design.T * w * mpmath.matrix(c))
        amp2 = a1 * a1 + a2 * a2
        grad = mpmath.matrix([0, a2 / amp2, -a1 / amp2])
        return (float(mpmath.atan2(-a2, a1)), float(mpmath.sqrt((grad.T * cov * grad)[0])),
                float(mpmath.sqrt(amp2) / a0))


class TestCascadeIntensities:
    def test_bright_fringe(self):
        early, central, late = window_intensities(0.0, 1.0)
        assert central == pytest.approx(0.25, abs=1e-15)
        assert early == pytest.approx(0.0625, abs=1e-15)
        assert late == pytest.approx(0.0625, abs=1e-15)
        assert central / early == pytest.approx(4.0, abs=1e-12)

    def test_dark_fringe(self):
        early, central, _ = window_intensities(math.pi, 1.0)
        assert abs(central) < 1e-16
        assert early == pytest.approx(0.0625, abs=1e-15)

    def test_zero_visibility(self):
        central = window_intensities(np.array([0.0, 1.0, 2.5]), 0.0)[:, 1]
        np.testing.assert_allclose(central, 0.125, atol=1e-15)

    def test_side_peaks_phase_independent(self):
        peaks = window_intensities(np.linspace(-4.0, 8.0, 97), 0.7)
        assert np.ptp(peaks[:, 0]) < 1e-12
        assert np.ptp(peaks[:, 2]) < 1e-12

    def test_both_ports_conserve_probability(self):
        # complementary port = same cascade, central fringe sign flipped;
        # the two monitored ports carry half the light, the rest exits
        # the preparation interferometer's unused port
        phi = np.linspace(0.0, 2.0 * math.pi, 23)
        here = window_intensities(phi, 1.0).sum(axis=-1)
        there = window_intensities(phi + math.pi, 1.0).sum(axis=-1)
        np.testing.assert_allclose(here + there, 0.5, atol=1e-12)

    def test_central_capped_at_quarter(self):
        central = window_intensities(np.linspace(0.0, 2.0 * math.pi, 50), 1.0)[:, 1]
        assert np.all((0.0 <= central) & (central <= 0.25))

    def test_batch_shape(self):
        assert outcome_probabilities(np.zeros((5, 2, 8)), 0.9, 1.0).shape == (5, 2, 8, 4)

    def test_visibility_bound(self):
        for visibility in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="^visibility must lie in"):
                outcome_probabilities(0.0, visibility, 1.0)

    def test_efficiency_bound(self):
        for efficiency in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError,
                               match=rf"^efficiency must lie in \[0, 1\], got {efficiency}$"):
                outcome_probabilities(0.0, 1.0, efficiency)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(phi=np.array([0.0, math.pi]), visibility=1.0, efficiency=1.0, dark_share=0.99)
    @given(
        phi=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                       elements=st.floats(-50.0, 50.0)),
        visibility=st.floats(0.0, 1.0),
        efficiency=st.floats(0.0, 1.0),
        dark_share=st.floats(0.0, 0.99),
    )
    def test_matches_the_closed_forms(self, phi, visibility, efficiency, dark_share):
        # dark_share of the largest dark rate that keeps every window sum <= 1
        dark_rate = dark_share * (1.0 - 0.375 * efficiency) / 3.0
        probs = outcome_probabilities(phi, visibility, efficiency, dark_rate)
        assert probs.shape == (*phi.shape, 4)
        side = efficiency / 16.0 + dark_rate
        central = efficiency / 8.0 * (1.0 + visibility * np.cos(phi)) + dark_rate
        want = np.stack([np.full_like(central, side), central, np.full_like(central, side)], -1)
        want = np.concatenate([want, 1.0 - want.sum(axis=-1, keepdims=True)], axis=-1)
        assert np.all(np.abs(probs - want) <= 4.0 * np.spacing(want))
        assert np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-15)


class TestFringeScanCounts:
    def test_counts_cannot_exceed_sent(self):
        with pytest.raises(ValueError):
            FringeScan(FOUR_POINT_SCAN, np.tile([600, 600, 0], (4, 1)), n_sent=1000)

    def test_negative_counts_rejected(self):
        counts = np.zeros((4, 3), dtype=int)
        counts[2, 0] = -1
        with pytest.raises(ValueError):
            FringeScan(FOUR_POINT_SCAN, counts, n_sent=10)

    def test_counts_must_end_in_points_and_windows(self):
        with pytest.raises(ValueError):
            FringeScan(FOUR_POINT_SCAN, np.zeros((4, 2), dtype=int), n_sent=10)

    def test_offsets_checked(self):
        with pytest.raises(InsufficientScan):
            FringeScan([0.0, 1.0, 2.0], np.zeros((3, 3), dtype=int), n_sent=10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30, np.uint64(2**63),
                                     2**70, -(2**70), None],
                             ids=["nan", "inf", "-inf", "1e30", "uint64_2**63",
                                  "object_2**70", "object_-2**70", "object_None"])
    def test_counts_past_int64_rejected_without_a_warning(self, bad):
        # the cast to int64 warns on the floats ("invalid value encountered in cast"), so
        # they must be refused before it; an object entry past int64 makes it raise
        counts = np.zeros((4, 3), dtype=np.asarray(bad).dtype)
        counts[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^counts must be non-negative integers$"):
                FringeScan(FOUR_POINT_SCAN, counts, n_sent=10)

    def test_int64_counts_kept_and_others_cast_exactly(self):
        counts = np.tile([1, 5, 2], (4, 1)).astype(np.int64)
        assert FringeScan(FOUR_POINT_SCAN, counts, n_sent=10).counts is counts
        for dtype in (np.float64, np.int32, np.uint64, object):
            scan = FringeScan(FOUR_POINT_SCAN, counts.astype(dtype), n_sent=10)
            assert scan.counts.dtype == np.int64
            np.testing.assert_array_equal(scan.counts, counts)
        with pytest.raises(ValueError, match="^counts must be non-negative integers$"):
            FringeScan(FOUR_POINT_SCAN, counts + 0.5, n_sent=10)
        largest = counts.astype(object)
        largest[0] = [2**63 - 1, 0, 0]  # the int64 maximum itself casts
        assert FringeScan(FOUR_POINT_SCAN, largest, n_sent=2**63 - 1).counts[0, 0] == 2**63 - 1

    def test_row_totals_past_int64_are_refused_unwrapped(self):
        # three counts of 2^62 add to 3 * 2^62, which an int64 sum wraps to -4.6e18
        counts = np.full((2, 4, 3), 2**62, dtype=np.int64)
        with pytest.raises(ValueError,
                           match=f"^total counts {3 * 2**62} exceed n_sent 10$"):
            FringeScan(FOUR_POINT_SCAN, counts, n_sent=10)
        counts[1] = 2**63 - 1
        with pytest.raises(ValueError, match=f"^total counts {3 * (2**63 - 1)} exceed"):
            FringeScan(FOUR_POINT_SCAN, counts, n_sent=2**62)


# every n_sent that is not a positive integer below 2**63, with Python's own error for
# each before draw_counts and FringeScan shared one check
BAD_N_SENT = pytest.mark.parametrize("bad", [
    2.5, 100.0, True, np.float64(8.0), np.nan, np.inf, "100", None, 0, -3, np.int64(-1),
    2**63, np.uint64(2**63), 2**70,
], ids=["2.5", "float_100", "True", "float64_8", "nan", "inf", "str", "None", "0", "-3",
        "int64_-1", "2**63", "uint64_2**63", "2**70"])


@BAD_N_SENT
def test_draw_counts_refuses_an_n_sent_that_is_not_a_positive_int64(bad):
    with pytest.raises(ValueError, match="^n_sent must be a positive integer below 2\\*\\*63"):
        draw_counts(outcome_probabilities(0.0, 1.0, 1.0), bad, 1)


@BAD_N_SENT
def test_fringe_scan_refuses_an_n_sent_that_is_not_a_positive_int64(bad):
    with pytest.raises(ValueError, match="^n_sent must be a positive integer below 2\\*\\*63"):
        FringeScan(FOUR_POINT_SCAN, np.zeros((4, 3), dtype=np.int64), n_sent=bad)


@pytest.mark.parametrize("good", [1, np.int32(7), np.uint64(2**63 - 1), 2**63 - 1])
def test_every_positive_int64_n_sent_is_an_int(good):
    assert draw_counts(outcome_probabilities(0.0, 1.0, 0.0), good, 1).tolist() == [0, 0, 0]
    scan = FringeScan(FOUR_POINT_SCAN, np.zeros((4, 3), dtype=np.int64), n_sent=good)
    assert type(scan.n_sent) is int and scan.n_sent == int(good)


class TestSimulateCounts:
    """Shot-noise counts: draw_counts(outcome_probabilities(...))."""

    def test_zero_efficiency(self):
        counts = draw_counts(outcome_probabilities(0.0, 1.0, 0.0), 1000, 1)
        assert counts.tolist() == [0, 0, 0]

    def test_bright_fringe_statistics(self):
        n = 10**6
        early, central, _ = draw_counts(outcome_probabilities(0.0, 1.0, 1.0), n, 42)
        sigma = math.sqrt(0.25 * 0.75 * n)
        assert abs(central - 0.25 * n) < 5.0 * sigma
        sigma_side = math.sqrt(0.0625 * 0.9375 * n)
        assert abs(early - 0.0625 * n) < 5.0 * sigma_side

    def test_deterministic_under_seed(self):
        a = draw_counts(outcome_probabilities(0.7, 0.9, 0.3, 1e-4), 5000, 123)
        b = draw_counts(outcome_probabilities(0.7, 0.9, 0.3, 1e-4), 5000, 123)
        np.testing.assert_array_equal(a, b)

    def test_total_bounded_by_sent(self):
        counts = draw_counts(outcome_probabilities(np.zeros(20), 1.0, 1.0, 0.1), 200, 0)
        assert np.all(counts.sum(axis=-1) <= 200)

    def test_dark_counts_have_mean_rate(self):
        # efficiency 0 leaves only background clicks
        n, rate = 10**6, 1e-3
        _, central, _ = draw_counts(outcome_probabilities(0.0, 1.0, 0.0, rate), n, 7)
        sigma = math.sqrt(rate * n)
        assert abs(central - rate * n) < 5.0 * sigma

    def test_overcommitted_probability_rejected(self):
        with pytest.raises(ValueError):
            draw_counts(outcome_probabilities(0.0, 1.0, 1.0, 0.4), 100, 1)
        with pytest.raises(ValueError):
            draw_counts(outcome_probabilities(0.0, 1.0, 1.0, -0.1), 100, 1)
        with pytest.raises(ValueError):
            draw_counts(outcome_probabilities(0.0, 1.0, 1.0), 0, 1)

    def test_generator_seed_accepted(self):
        rng = np.random.default_rng(5)
        counts = draw_counts(outcome_probabilities(0.0, 1.0, 1.0), 1000, rng)
        assert counts.shape == (3,) and counts.sum() <= 1000

    def test_one_draw_in_c_order(self):
        # the batch is one multinomial call: the same Generator drawing the
        # settings one by one, in C order, gives the same counts
        phases = np.linspace(0.0, 3.0, 6).reshape(3, 2)
        batch = draw_counts(outcome_probabilities(phases, 0.8, 0.7, 1e-3), 5000, (4, 2))
        peaks = window_intensities(phases, 0.8)
        rng = np.random.default_rng((4, 2))
        for index in np.ndindex(3, 2):
            probs = peaks[index] * 0.7 + 1e-3
            one = rng.multinomial(5000, np.append(probs, 1.0 - probs.sum()))
            np.testing.assert_array_equal(batch[index], one[:3])

    def test_draw_counts_seeds_one_generator(self):
        # a forecast trial: its counts are what its own SeedSequence draws alone
        seed = np.random.SeedSequence((7, 3))
        pvals = outcome_probabilities(np.linspace(0.0, 3.0, 6).reshape(3, 2), 0.8, 0.7, 1e-3)
        counts = draw_counts(pvals, 5000, seed)
        assert counts.shape == (3, 2, 3)
        np.testing.assert_array_equal(
            counts, np.random.default_rng((7, 3)).multinomial(5000, pvals)[..., :3])
        # a list of ints stays entropy for one Generator
        np.testing.assert_array_equal(draw_counts(pvals, 5000, [7, 0]),
                                      draw_counts(pvals, 5000, (7, 0)))
        with pytest.raises(ValueError):
            draw_counts(pvals, 0, seed)


class TestFringeScan:
    def test_four_point_pattern(self):
        offsets = [0.0, math.pi / 2, math.pi, 1.5 * math.pi]
        scan = fringe_scan(offsets, 0.0, 1.0, 10**5, 1.0, seed=3)
        n = 10**5
        for count, inten in zip(scan.counts[:, 1], (0.25, 0.125, 0.0, 0.125)):
            sigma = math.sqrt(max(inten * (1 - inten) * n, 1.0))
            assert abs(count - inten * n) <= 5.0 * sigma

    def test_too_few_points(self):
        with pytest.raises(InsufficientScan):
            fringe_scan([0.0, 1.0, 2.0], 0.0, 1.0, 100, 1.0, seed=1)

    def test_too_narrow_span(self):
        with pytest.raises(InsufficientScan):
            fringe_scan([0.0, 0.1, 0.2, 0.3], 0.0, 1.0, 100, 1.0, seed=1)

    def test_span_is_measured_around_the_circle(self):
        # offsets wrapped past 2 pi: max - min reads 6.22 rad, but the points
        # lie in an arc of 0.143 rad across 0
        with pytest.raises(InsufficientScan, match=r"^scan span 0\.143 rad must cover >= pi$"):
            fringe_scan([0.0549, 0.0951, 6.2351, 6.2763], 0.0, 1.0, 100, 1.0, seed=1)
        # the same wrap spread over more than half the circle is accepted
        fringe_scan([4.5, 5.5, 0.5, 1.5], 0.0, 1.0, 100, 1.0, seed=1)

    def test_deterministic_under_seed(self):
        a = fringe_scan(FULL_SCAN, 0.3, 1.0, 1000, 0.8, seed=11)
        b = fringe_scan(FULL_SCAN, 0.3, 1.0, 1000, 0.8, seed=11)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_batch_puts_scan_points_after_the_phase_axes(self):
        base = np.linspace(-1.0, 1.0, 6).reshape(3, 2)
        scan = fringe_scan(EIGHT_POINT_SCAN, base, 0.9, 4000, 0.8, seed=(5, 1), dark_rate=1e-4)
        assert scan.counts.shape == (3, 2, 8, 3)
        pvals = outcome_probabilities(base[..., None] + EIGHT_POINT_SCAN, 0.9, 0.8, 1e-4)
        expected = draw_counts(pvals, 4000, (5, 1))
        np.testing.assert_array_equal(scan.counts, expected)

    def test_noiseless_scan_matches_expectation(self):
        scan = noiseless_scan(FULL_SCAN, 0.0, 1.0, 1600, efficiency=0.5)
        for central, offset in zip(scan.counts[:, 1], FULL_SCAN):
            central_p = outcome_probabilities(float(offset), 1.0, 0.5)[1]
            assert central == round(central_p * 1600)


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
        counts = [[100, c, 100] for c in (900, 880, 120, 130)]
        scan = FringeScan(offsets, counts, n_sent=10**4)
        with pytest.raises(FitDiverged, match="residuals"):
            fit_phase(scan)

    def test_batch_matches_one_scan_at_a_time(self):
        base = np.linspace(-3.0, 3.0, 12).reshape(6, 2)
        scan = fringe_scan(EIGHT_POINT_SCAN, base, 0.9, 30000, 0.9, seed=17, dark_rate=1e-4)
        fit = fit_phase(scan)
        assert fit.phi_hat.shape == fit.sigma_phi.shape == fit.visibility_hat.shape == (6, 2)
        for index in np.ndindex(6, 2):
            one = fit_phase(FringeScan(EIGHT_POINT_SCAN, scan.counts[index], scan.n_sent))
            assert np.shape(one.phi_hat) == ()
            assert one.phi_hat == pytest.approx(fit.phi_hat[index], abs=1e-14)
            assert one.sigma_phi == pytest.approx(fit.sigma_phi[index], rel=1e-14)
            assert one.visibility_hat == pytest.approx(fit.visibility_hat[index], rel=1e-14)

    def test_unusable_covariance_names_its_scan_with_residuals(self):
        # FringeScan refuses a nan count, so one is set past its checks: the nan
        # reaches sigma_phi, and the message forms the residuals of that scan alone
        scan = fringe_scan(EIGHT_POINT_SCAN, np.zeros(3), 1.0, 5000, 1.0, seed=3)
        counts = scan.counts.astype(float)
        counts[1, 2, 1] = np.nan
        object.__setattr__(scan, "counts", counts)
        with pytest.raises(FitDiverged) as raised:
            fit_phase(scan, first=4)
        assert re.fullmatch(r"fit covariance unusable: sigma_phi = nan; residuals: \[(nan, ){7}nan\]"
                            r" at scan \[5\]", str(raised.value))
        with pytest.raises(FitDiverged) as oracle:
            inv_fit_oracle(scan, first=4)
        assert str(raised.value) == str(oracle.value)

    def test_dead_scan_in_a_batch_is_named(self):
        scan = fringe_scan(EIGHT_POINT_SCAN, np.zeros((4, 2)), 1.0, 5000, 1.0, seed=3)
        counts = scan.counts.copy()
        counts[2, 1, :, 1] = 0
        with pytest.raises(DegenerateVisibility, match=r"no central-peak counts.* at scan \[2, 1\]$"):
            fit_phase(FringeScan(EIGHT_POINT_SCAN, counts, scan.n_sent))
        counts[2, 1, :, 1] = 1000     # flat fringe: the visibility check names it
        with pytest.raises(DegenerateVisibility, match=r"fitted visibility 0\.000 .* at scan \[2, 1\]$"):
            fit_phase(FringeScan(EIGHT_POINT_SCAN, counts, scan.n_sent))

    def test_empty_batch_gives_empty_results(self):
        scan = fringe_scan(EIGHT_POINT_SCAN, np.zeros((0, 2)), 1.0, 100, 1.0, seed=1)
        assert scan.counts.shape == (0, 2, 8, 3)
        assert all(np.shape(v) == (0, 2) for v in fit_phase(scan))

    def test_single_scan_error_keeps_the_bare_message(self):
        with pytest.raises(DegenerateVisibility) as raised:
            fit_phase(noiseless_scan(FULL_SCAN, 0.0, 1.0, 100, efficiency=0.0))
        assert str(raised.value) == "no central-peak counts; phase unidentifiable"

    @settings(max_examples=200, deadline=None)
    @example(points=4, arc=0.3046875, visibility=1.0, log_pulses=4.0, dark_rate=0.0, base=0.0,
             seed=135276225)
    @given(
        points=st.integers(4, 16),
        arc=st.floats(0.3, 2.0 * math.pi),
        visibility=st.floats(0.3, 1.0),
        log_pulses=st.floats(3.0, 6.0),
        dark_rate=st.sampled_from([0.0, 1e-5, 1e-3]),
        base=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_svd_oracle(self, points, arc, visibility, log_pulses, dark_rate, base,
                                    seed):
        # offsets at random within an arc about 0, wrapped to [0, 2 pi): from
        # all over the circle down to clustered scans; a scan that covers less
        # than pi of the circle, wrapped or not, is rejected before any fit
        rng = np.random.default_rng(seed)
        offsets = np.sort(np.mod(rng.uniform(-0.5 * arc, 0.5 * arc, points), 2.0 * math.pi))
        n_sent = int(10**log_pulses)
        widest_gap = np.max(np.diff(np.append(offsets, offsets[0] + 2.0 * math.pi)))
        if 2.0 * math.pi - widest_gap < math.pi - 1e-9:
            with pytest.raises(InsufficientScan):
                fringe_scan(offsets, base, visibility, n_sent, 1.0, seed=seed)
            return
        scan = fringe_scan(offsets, base, visibility, n_sent, 1.0, seed=seed, dark_rate=dark_rate)
        try:
            phi, sigma, vis = svd_fit_oracle(scan.offsets, scan.counts[:, 1].astype(float), n_sent)
        except (DegenerateVisibility, FitDiverged) as exc:
            with pytest.raises(type(exc)):
                fit_phase(scan)
            return
        fit = fit_phase(scan)
        assert abs(math.remainder(fit.phi_hat - phi, 2.0 * math.pi)) <= 1e-12
        assert fit.sigma_phi == pytest.approx(sigma, rel=1e-10)
        assert fit.visibility_hat == pytest.approx(vis, rel=1e-10)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        points=st.integers(4, 16),
        jitter=st.floats(0.0, 0.45),
        log2_pulses=st.floats(math.log2(10.0), 40.0),
        log_efficiency=st.floats(-3.0, 0.0),
        visibility=st.floats(0.3, 1.0),
        dark_rate=st.sampled_from([0.0, 1e-4]),
        batch=st.sampled_from([(), (3,), (3, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_lapack_oracle(self, points, jitter, log2_pulses, log_efficiency,
                                       visibility, dark_rate, batch, seed):
        # offsets on an even grid, each moved by up to jitter of a spacing (so uneven
        # ones, whose gaps stay below pi), turned by a random angle
        rng = np.random.default_rng(seed)
        grid = np.arange(points) + rng.uniform(-jitter, jitter, points)
        offsets = np.mod(grid * 2.0 * math.pi / points + rng.uniform(0.0, 2.0 * math.pi),
                         2.0 * math.pi)
        n_sent = int(round(2.0**log2_pulses))
        scan = fringe_scan(offsets, rng.uniform(-math.pi, math.pi, batch), visibility, n_sent,
                           10.0**log_efficiency, seed, dark_rate=dark_rate)
        try:
            want = inv_fit_oracle(scan)
        except (DegenerateVisibility, FitDiverged) as exc:
            with pytest.raises(type(exc)) as raised:
                fit_phase(scan)
            assert str(raised.value) == str(exc)
            return
        fit = fit_phase(scan)
        assert np.shape(fit.phi_hat) == batch
        # both solve the same normal systems, whose condition number is at most the
        # weights' spread: past a spread of ~4500 the bound grows with it (see
        # test_ill_conditioned_fits_stay_near_the_exact_solve)
        tol = np.maximum(1e-12, np.finfo(float).eps * weight_spread(scan))
        assert np.all(np.abs(_wrap_phase(fit.phi_hat - want.phi_hat)) <= tol)
        assert np.all(np.abs(fit.sigma_phi / want.sigma_phi - 1.0) <= tol)
        assert np.all(np.abs(fit.visibility_hat / want.visibility_hat - 1.0) <= tol)

    def test_ill_conditioned_fits_stay_near_the_exact_solve(self):
        # 2^40 pulses at full visibility with one point next to the dark fringe: a
        # central count near 0 has weight 1, the bright ones ~4e-12, so each normal
        # system loses up to log10(spread) digits, and the LAPACK oracle with it
        base = math.pi - EIGHT_POINT_SCAN[3] + np.array([1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 1e-3])
        scan = fringe_scan(EIGHT_POINT_SCAN, base, 1.0, 2**40, 1.0, seed=5)
        spread = weight_spread(scan)
        assert spread.min() > 1e6
        fit, oracle = fit_phase(scan), inv_fit_oracle(scan)
        for k in range(len(base)):
            phi, sigma, vis = exact_fit(scan.offsets, scan.counts[k, :, 1], scan.n_sent)
            bound = np.finfo(float).eps * spread[k]
            for got in (fit, oracle):
                assert abs(got.phi_hat[k] - phi) <= bound
                assert abs(got.sigma_phi[k] / sigma - 1.0) <= bound
                assert abs(got.visibility_hat[k] / vis - 1.0) <= bound


FRINGE_DEMO = """
mode: fringe-demo
seed: 2
output_dir: out
fringe:
  base_phase_rad: 0.0
  scan_points: 16
  n_per_point: 3000
noise:
  visibility: 1.0
"""


class TestSerializeScan:
    def test_columnar_roundtrip(self, tmp_path, monkeypatch):
        # the scan table gravlink run writes through its one table writer
        config = tmp_path / "fringe.yaml"
        config.write_text(FRINGE_DEMO, encoding="utf-8")
        monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", str(config)]) == 0
        scan = fringe_scan(FULL_SCAN, 0.0, 1.0, 3000, 1.0, seed=2)
        text = (tmp_path / "out" / "fringe_scan.txt").read_text(encoding="utf-8")
        assert text.startswith("# offset_rad")
        data = np.loadtxt(text.splitlines())
        assert data.shape == (16, 5)
        np.testing.assert_allclose(data[:, 0], FULL_SCAN, atol=1e-12)
        assert [int(v) for v in data[:, 2]] == scan.counts[:, 1].tolist()
        assert all(int(v) == 3000 for v in data[:, 4])

    def test_batch_rows_follow_c_order(self):
        # six scans of four points: the offsets and n_sent broadcast against the counts
        scan = fringe_scan(FOUR_POINT_SCAN, np.zeros((2, 3)), 1.0, 500, 1.0, seed=6)
        chunks = _table("offset_rad counts_early counts_central counts_late n_sent",
                        [scan.offsets, *np.moveaxis(scan.counts.reshape(6, 4, 3), -1, 0),
                         np.array(scan.n_sent)])
        data = np.loadtxt(b"".join(chunks).splitlines())
        assert data.shape == (24, 5)
        np.testing.assert_allclose(data[:, 0], np.tile(FOUR_POINT_SCAN, 6), atol=1e-12)
        np.testing.assert_array_equal(data[:, 1:4], scan.counts.reshape(-1, 3))
