"""One batch check: every module names the first failing entry of a batch the same way."""

import numpy as np
import pytest

from gravlink.ephemeris import interpolate_state, parse_cpf
from gravlink.errors import (
    BadAltitude,
    DegenerateGeometry,
    DegenerateVisibility,
    OrthogonalSelection,
    OutOfRange,
    SingularFit,
    reject,
)
from gravlink.estimator import PassDataset, estimate_alpha
from gravlink.interferometer import FringeScan, fit_phase
from gravlink.kinematics import (
    CircularOrbit,
    GroundStation,
    LinkGeometry,
    StateVector,
    build_link_geometry,
)
from gravlink.link_model import OpticalConfig, _check_denominator
from gravlink.spin_weak import QuantumState, pauli, weak_value
from test_interferometer import noiseless_scan

OFFSETS = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
TABLE = """10 0 61267 0.000 0 7000000.0 0.0 0.0
10 0 61267 60.000 0 6999000.0 118000.0 0.0
10 0 61267 120.000 0 6996000.0 236000.0 0.0
10 0 61267 180.000 0 6991000.0 354000.0 0.0
"""


def state_batch():
    pos = np.array([[7.0e6, 0.0, 0.0], [1.0e6, 0.0, 0.0], [7.0e6, 0.0, 0.0]])
    StateVector(position=pos, velocity=np.zeros((3, 3)), epoch=[0.0, 5.0, 9.0])


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


def trial_batch():
    epochs = np.array([-60.0, 0.0, 60.0])
    geoms = build_link_geometry(GroundStation(0.0, 0.0), CircularOrbit(6.771e6), epochs)
    rows = np.tile([1.0, 1e-3, 2.0, 1e-3], (4, 3, 1))
    rows[1, :, 1] = np.inf   # trial 1 has no usable weight
    estimate_alpha(PassDataset(epochs, geoms, rows), OpticalConfig(800e-9, 6.0e3))


def selection_batch():
    weak_value(pauli(1), QuantumState([1.0, 0.0]),
               QuantumState([[0.6, 0.8], [0.0, 1.0], [1.0, 0.0]]))


BATCHES = [
    pytest.param(state_batch, BadAltitude, " at epoch [1] (t = 5 s)", id="StateVector"),
    pytest.param(geometry_batch, ValueError, " at epoch [2]", id="LinkGeometry"),
    pytest.param(lambda: _check_denominator(np.array([1.0, 0.9, 0.2]), "denominator"),
                 DegenerateGeometry, " at epoch [2]", id="_check_denominator"),
    pytest.param(lambda: interpolate_state(parse_cpf(TABLE), np.array([0.0, 90.0, 200.0])),
                 OutOfRange, " at epoch [2]", id="interpolate_state"),
    pytest.param(scan_batch, DegenerateVisibility, " at scan [1, 2]", id="fit_phase"),
    pytest.param(trial_batch, SingularFit, " at trial [1]", id="estimate_alpha"),
    pytest.param(lambda: QuantumState([[1.0, 0.0], [2.0, 0.0]]), ValueError, " at state [1]",
                 id="QuantumState"),
    pytest.param(selection_batch, OrthogonalSelection, " at selection [1]", id="weak_value"),
]


@pytest.mark.parametrize("run, error, where", BATCHES)
def test_a_batch_names_its_first_bad_entry(run, error, where):
    with pytest.raises(error) as raised:
        run()
    message = str(raised.value)
    assert message.endswith(where)
    assert message.count(" at ") == 1


@pytest.mark.parametrize("run, error", [
    (lambda: QuantumState([2.0, 0.0]), ValueError),
    (lambda: weak_value(pauli(1), QuantumState([1.0, 0.0]), QuantumState([0.0, 1.0])),
     OrthogonalSelection),
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
