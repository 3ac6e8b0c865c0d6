"""One batch check: every module names the first failing entry of a batch the same way;
and the argument checks refuse NaN as they refuse any other value out of range."""

import math

import numpy as np
import pytest

from gravlink.ephemeris import EphemerisTrajectory, parse_cpf
from gravlink.errors import (
    BadAltitude,
    DegenerateVisibility,
    OrthogonalSelection,
    OutOfRange,
    SingularFit,
    reject,
)
from gravlink.estimator import estimate_alpha, precision_forecast
from gravlink.interferometer import FringeScan, fit_phase, fringe_scan, outcome_probabilities
from gravlink.kinematics import (
    CircularOrbit,
    GroundStation,
    LinkGeometry,
    _states,
    build_link_geometry,
)
from gravlink.link_model import gravitational_phase, phase_pair, phase_scale
from gravlink.spin_weak import amplification_scan, constants_report
from test_interferometer import noiseless_scan

OFFSETS = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
TABLE = """10 0 61267 0.000 0 7000000.0 0.0 0.0
10 0 61267 60.000 0 6999000.0 118000.0 0.0
10 0 61267 120.000 0 6996000.0 236000.0 0.0
10 0 61267 180.000 0 6991000.0 354000.0 0.0
"""


def state_batch():
    pos = np.array([[7.0e6, 0.0, 0.0], [1.0e6, 0.0, 0.0], [7.0e6, 0.0, 0.0]])
    _states(pos, np.zeros((3, 3)), np.array([0.0, 5.0, 9.0]))


def geometry_batch():
    n12 = np.tile([1.0, 0.0, 0.0], (4, 1))
    beta2 = np.zeros((4, 3))
    beta2[2, 0] = 1e-4
    LinkGeometry(beta1=np.zeros((4, 3)), beta2=beta2, beta3=np.zeros((4, 3)), n12=n12,
                 n23=-n12, U1=np.full(4, 7e-10), U2=np.full(4, 7e-10),
                 a1=np.zeros((4, 3)), t_up=np.full(4, 1e-3))


def scan_batch():
    counts = noiseless_scan(OFFSETS, np.zeros((2, 3)), 1.0, 1000).counts
    counts[1, 2, :, 1] = 0   # scan [1, 2] has an empty central peak
    fit_phase(FringeScan(OFFSETS, counts, 1000))


def trial_batch(sigma=np.inf):
    epochs = np.array([-60.0, 0.0, 60.0])
    geoms = build_link_geometry(GroundStation(0.0, 0.0), CircularOrbit(6.771e6), epochs)
    rows = np.tile([1.0, 1e-3, 2.0, 1e-3], (4, 3, 1))
    rows[1, :, 1] = sigma   # an infinite sigma leaves trial 1 no usable weight
    estimate_alpha(rows, phase_pair(geoms, phase_scale(800e-9, 2.0e-5)))


BATCHES = [
    pytest.param(state_batch, BadAltitude, " at epoch [1] (t = 5 s)", id="StateVector"),
    pytest.param(geometry_batch, ValueError, " at epoch [2]", id="LinkGeometry"),
    pytest.param(lambda: EphemerisTrajectory(parse_cpf(TABLE)).states([0.0, 90.0, 200.0]),
                 OutOfRange, " at epoch [2]", id="EphemerisTrajectory"),
    pytest.param(scan_batch, DegenerateVisibility, " at scan [1, 2]", id="fit_phase"),
    pytest.param(trial_batch, SingularFit, " at trial [1]", id="estimate_alpha"),
    pytest.param(lambda: amplification_scan([0.9273, np.pi / 2, 0.0], [1e-3], 1.0),
                 OrthogonalSelection, " at selection [1]", id="amplification_scan"),
]


@pytest.mark.parametrize("run, error, where", BATCHES)
def test_a_batch_names_its_first_bad_entry(run, error, where):
    with pytest.raises(error) as raised:
        run()
    message = str(raised.value)
    assert message.endswith(where)
    assert message.count(" at ") == 1


@pytest.mark.parametrize("run, error", [
    (lambda: amplification_scan(np.pi / 2, [1e-3], 1.0), OrthogonalSelection),
    (lambda: fit_phase(FringeScan(OFFSETS, np.zeros((8, 3)), 1000)), DegenerateVisibility),
])
def test_one_entry_keeps_the_bare_message(run, error):
    with pytest.raises(error) as raised:
        run()
    assert " at " not in str(raised.value)


def test_reject_counts_the_leading_index_from_first_and_formats_the_entry():
    bad = np.zeros((2, 3), dtype=bool)
    bad[1, 2] = bad[1, 0] = True
    value = np.arange(6.0).reshape(2, 3)
    with pytest.raises(KeyError, match=r"'value 3\.0 at scan \[11, 0\]'"):
        reject(bad, KeyError, "value {:.1f}", value, what="scan", first=10)
    with pytest.raises(ValueError, match=r"^late at epoch \[1\] \(t = 2\.5 s\)$"):
        reject(np.array([False, True]), ValueError, "late", times=[1.0, 2.5])
    reject(np.zeros(3, dtype=bool), ValueError, "never raised")


SCALE = phase_scale(800e-9, 2.0e-5)


@pytest.mark.parametrize("run, message", [
    (lambda: outcome_probabilities(0.0, 1.0, 1.0, math.nan), "dark_rate must be non-negative"),
    (lambda: fringe_scan(OFFSETS, 0.0, 1.0, 100, 1.0, 0, dark_rate=math.nan),
     "dark_rate must be non-negative"),
    (lambda: gravitational_phase(SCALE, 9.8, math.nan), "height must be non-negative"),
    (lambda: gravitational_phase(SCALE, 9.8, math.inf), "height must be non-negative"),
    (lambda: gravitational_phase(SCALE, math.nan, 4.0e5), "g must be positive"),
    (lambda: gravitational_phase(SCALE, math.inf, 4.0e5), "g must be positive"),
    (lambda: trial_batch(sigma=math.nan), "phase uncertainties must be positive"),
    (lambda: GroundStation(0.3, math.inf), "station angle not finite: lon=inf"),
    (lambda: GroundStation(0.3, -math.inf), "station angle not finite: lon=-inf"),
    (lambda: constants_report(0.0), "g must be positive"),
    (lambda: constants_report(-1.0), "g must be positive"),
    (lambda: constants_report(math.nan), "g must be positive"),
    (lambda: constants_report(math.inf), "g must be positive"),
    (lambda: outcome_probabilities(math.inf, 1.0, 1.0), "fringe phase must be finite"),
    (lambda: outcome_probabilities([0.0, math.nan], 1.0, 1.0), "fringe phase must be finite"),
    (lambda: fringe_scan(OFFSETS, math.nan, 1.0, 100, 1.0, 0), "fringe phase must be finite"),
], ids=["outcome_probabilities", "fringe_scan", "height_nan", "height_inf", "g_nan", "g_inf",
        "estimate_alpha", "station_lon_inf", "station_lon_minus_inf", "constants_g_zero",
        "constants_g_negative", "constants_g_nan", "constants_g_inf", "phase_inf", "phase_nan",
        "fringe_scan_phase_nan"])
def test_argument_checks_refuse_nan_and_inf(run, message):
    """The package's own ValueError, not another library's error, a warning or a NaN result."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        run()


@pytest.mark.parametrize("scale, need", [(math.nan, "finite"), (math.inf, "finite"),
                                         (-math.inf, "positive"), (0.0, "positive"),
                                         (-1.0, "positive")])
def test_every_phase_function_refuses_the_scale_phase_scale_refuses(scale, need):
    geoms = build_link_geometry(GroundStation(0.0, 0.0), CircularOrbit(6.771e6),
                                [-60.0, 0.0, 60.0])
    for run in (lambda: gravitational_phase(scale, 9.8, 4.0e5), lambda: phase_pair(geoms, scale),
                lambda: precision_forecast(geoms, scale, 0.0, 0, 10, 0)):
        with pytest.raises(ValueError, match=rf"^omega0\*tau_l = {scale} must be {need}$"):
            run()


def test_a_tiny_scale_passes_the_check():
    # omega0 * tau_l = 4e-296, a 1e300 m wavelength: positive and finite, so each phase is
    # formed; what such a scale does to the regression weights is a separate question
    geoms = build_link_geometry(GroundStation(0.0, 0.0), CircularOrbit(6.771e6), [0.0])
    assert 0.0 < gravitational_phase(4e-296, 9.8, 4.0e5) < 1e-300
    assert np.all(np.isfinite(phase_pair(geoms, 4e-296)))
