"""Ephemeris parsing, serialization, and interpolation accuracy."""

import math

import numpy as np
import pytest

from gravlink.constants import GM_EARTH, OMEGA_EARTH
from gravlink.ephemeris import (
    EphemerisTrajectory,
    interpolate_state,
    parse_cpf,
    serialize_cpf,
)
from gravlink.errors import (
    EmptyEphemeris,
    InsufficientRecords,
    MalformedRecord,
    NonMonotonicTime,
    OutOfRange,
)

SAMPLE = """H1 CPF 2 TST 2026 8 15 1 demo
H2 1234567 1234 567 DEMO-SAT 61267 0 61267 86400 60 1 1 0 0
10 0 61267 0.000 0 7000000.0 0.0 0.0
10 0 61267 60.000 0 6999000.0 118000.0 0.0
10 0 61267 120.000 0 6996000.0 236000.0 0.0
10 0 61267 180.000 0 6991000.0 354000.0 0.0
"""


def circular_orbit_table(a=7.0e6, inc=0.0, spacing=60.0, n_records=40, mjd=61267):
    """Table of ECEF positions sampled from an analytic circular orbit.

    The inertial frame coincides with the rotating frame at the first
    epoch, matching the interpolator's convention.
    """
    n = math.sqrt(GM_EARTH / a**3)
    lines = []
    for i in range(n_records):
        t = spacing * i
        u = n * t
        ci, si = math.cos(inc), math.sin(inc)
        r_eci = np.array(
            [a * math.cos(u), a * math.sin(u) * ci, a * math.sin(u) * si]
        )
        th = -OMEGA_EARTH * t
        c, s = math.cos(th), math.sin(th)
        r = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]) @ r_eci
        lines.append(f"10 0 {mjd} {t:.6f} 0 {r[0]:.9f} {r[1]:.9f} {r[2]:.9f}")
    return parse_cpf("\n".join(lines))


def analytic_eci_state(a, inc, t):
    n = math.sqrt(GM_EARTH / a**3)
    u = n * t
    ci, si = math.cos(inc), math.sin(inc)
    pos = np.array([a * math.cos(u), a * math.sin(u) * ci, a * math.sin(u) * si])
    vel = a * n * np.array([-math.sin(u), math.cos(u) * ci, math.cos(u) * si])
    return pos, vel


class TestParse:
    def test_single_record_field_echo(self):
        table = parse_cpf("10 0 58600 0.0 0 7000000.0 0.0 0.0")
        assert table.n_records == 1
        rec = table.records[0]
        assert rec.mjd == 58600
        assert rec.sod == 0.0
        assert rec.position == (7.0e6, 0.0, 0.0)

    def test_two_records_gap(self):
        table = parse_cpf(
            "10 0 58600 0.0 0 7000000.0 0.0 0.0\n"
            "10 0 58600 60.0 0 7000000.0 100.0 0.0\n"
        )
        assert table.n_records == 2
        assert table.span_seconds == 60.0

    def test_headers_become_source(self):
        table = parse_cpf(SAMPLE)
        assert "H1 CPF 2 TST" in table.source
        assert "DEMO-SAT" in table.source
        assert table.n_records == 4

    def test_other_lines_ignored(self):
        table = parse_cpf(
            "99 some other record type\n"
            "10 0 58600 0.0 0 7000000.0 0.0 0.0\n"
            "\n"
            "trailing commentary\n"
        )
        assert table.n_records == 1

    def test_non_monotonic(self):
        text = (
            "10 0 58600 60.0 0 7000000.0 0.0 0.0\n"
            "10 0 58600 0.0 0 7000000.0 100.0 0.0\n"
        )
        with pytest.raises(NonMonotonicTime) as err:
            parse_cpf(text)
        assert err.value.line_number == 2

    def test_day_rollover_is_monotonic(self):
        table = parse_cpf(
            "10 0 58600 86340.0 0 7000000.0 0.0 0.0\n"
            "10 0 58601 0.0 0 7000000.0 100.0 0.0\n"
        )
        assert table.span_seconds == 60.0

    def test_wrong_field_count(self):
        with pytest.raises(MalformedRecord) as err:
            parse_cpf("10 0 58600 0.0 0 7000000.0 0.0")
        assert err.value.line_number == 1
        assert "field" in str(err.value)

    def test_non_numeric_field(self):
        with pytest.raises(MalformedRecord):
            parse_cpf("10 0 58600 0.0 0 seven 0.0 0.0")
        with pytest.raises(MalformedRecord):
            parse_cpf("10 0 wrong 0.0 0 7000000.0 0.0 0.0")

    def test_seconds_of_day_bound(self):
        with pytest.raises(MalformedRecord):
            parse_cpf("10 0 58600 86400.0 0 7000000.0 0.0 0.0")
        with pytest.raises(MalformedRecord):
            parse_cpf("10 0 58600 -1.0 0 7000000.0 0.0 0.0")

    def test_position_sanity_window(self):
        with pytest.raises(MalformedRecord):
            parse_cpf("10 0 58600 0.0 0 1000.0 0.0 0.0")
        with pytest.raises(MalformedRecord):
            parse_cpf("10 0 58600 0.0 0 9.9e8 0.0 0.0")
        with pytest.raises(MalformedRecord):
            parse_cpf("10 0 58600 0.0 0 nan 0.0 0.0")

    def test_empty_inputs(self):
        with pytest.raises(EmptyEphemeris):
            parse_cpf("")
        with pytest.raises(EmptyEphemeris):
            parse_cpf("H1 CPF only headers here\nsome noise\n")

    def test_roundtrip_identity(self):
        table = parse_cpf(SAMPLE)
        again = parse_cpf(serialize_cpf(table))
        assert again.records == table.records
        assert again.source == table.source

    def test_roundtrip_precision(self):
        text = "10 0 58600 12345.678901 0 7123456.123456789 -987654.321 42.0\n"
        table = parse_cpf(text)
        again = parse_cpf(serialize_cpf(table))
        assert again.records == table.records


class TestInterpolation:
    def test_node_reproduction(self):
        table = parse_cpf(SAMPLE)
        state = interpolate_state(table, 0.0)
        # t = first epoch: inertial and Earth-fixed frames coincide
        np.testing.assert_allclose(state.position, [[7.0e6, 0.0, 0.0]], atol=1e-6)
        assert state.epoch == 0.0

    def test_node_reproduction_rotated(self):
        table = circular_orbit_table(n_records=12)
        t = 300.0
        state = interpolate_state(table, t)
        pos, _ = analytic_eci_state(7.0e6, 0.0, t)
        np.testing.assert_allclose(state.position, [pos], atol=1e-5)

    @pytest.mark.parametrize("times", [[10.0, 20.0], (10.0, 20.0),
                                       [10.0, 20.0, 30.0], (10.0, 20.0, 30.0)])
    def test_sequences_are_epochs(self, times):
        table = circular_orbit_table(n_records=8)
        expected = interpolate_state(table, np.array(times))
        state = interpolate_state(table, times)
        assert state.position.shape == (len(times), 3)
        np.testing.assert_array_equal(state.position, expected.position)
        np.testing.assert_array_equal(state.velocity, expected.velocity)
        np.testing.assert_array_equal(state.epoch, times)

    def test_out_of_range(self):
        table = parse_cpf(SAMPLE)  # spans [0, 180] s
        with pytest.raises(OutOfRange):
            interpolate_state(table, 200.0)
        with pytest.raises(OutOfRange):
            interpolate_state(table, -1.0)

    def test_insufficient_records(self):
        table = parse_cpf(
            "10 0 58600 0.0 0 7000000.0 0.0 0.0\n"
            "10 0 58600 60.0 0 7000000.0 100.0 0.0\n"
        )
        with pytest.raises(InsufficientRecords):
            interpolate_state(table, 30.0)

    def test_dense_table_meter_accuracy(self):
        # windowed interpolation on 60 s samples of a circular orbit must
        # stay below 1 m / 1e-3 m/s through the span interior
        a, inc = 7.0e6, 0.6
        table = circular_orbit_table(a=a, inc=inc, n_records=40)
        worst_pos = worst_vel = 0.0
        for t in np.arange(310.0, 2000.0, 37.0):
            state = interpolate_state(table, float(t))
            pos, vel = analytic_eci_state(a, inc, float(t))
            worst_pos = max(worst_pos, float(np.linalg.norm(state.position - pos)))
            worst_vel = max(worst_vel, float(np.linalg.norm(state.velocity - vel)))
        assert worst_pos < 1.0
        assert worst_vel < 1e-3

    def test_minimal_table_midpoint(self):
        # with only 4 records the window degrades to a cubic, whose
        # mid-interval error on this orbit is meter-scale
        table = circular_orbit_table(n_records=4)
        state = interpolate_state(table, 90.0)
        pos, vel = analytic_eci_state(7.0e6, 0.0, 90.0)
        assert float(np.linalg.norm(state.position - pos)) < 5.0
        assert float(np.linalg.norm(state.velocity - vel)) < 0.2


class TestTrajectory:
    def test_state_matches_interpolant(self):
        table = circular_orbit_table(n_records=10)
        traj = EphemerisTrajectory(table)
        np.testing.assert_allclose(
            traj.states(123.0).position, interpolate_state(table, 123.0).position
        )

    def test_needs_four_records(self):
        table = parse_cpf("10 0 58600 0.0 0 7000000.0 0.0 0.0")
        with pytest.raises(InsufficientRecords):
            EphemerisTrajectory(table)

    def test_acceleration_is_central_gravity(self):
        table = circular_orbit_table(n_records=20)
        traj = EphemerisTrajectory(table)
        t = 300.0
        acc = traj.accelerations(t)
        state = traj.states(t)
        r = float(np.linalg.norm(state.position))
        expected = -GM_EARTH / r**3 * state.position
        np.testing.assert_allclose(acc, expected, atol=1e-5 * GM_EARTH / r**2)


def _product_form_state(table, t):
    """Reference interpolant: the windowed Lagrange product form, one epoch at a time."""
    epochs = np.array([r.epoch_seconds() for r in table.records]) - table.records[0].epoch_seconds()
    n = table.n_records
    width = min(8, n)
    i = int(np.searchsorted(epochs, t))
    start = min(max(i - width // 2, 0), n - width)
    nodes = epochs[start:start + width]
    coords = np.array([table.records[j].position for j in range(start, start + width)])
    values, derivs = np.empty(width), np.empty(width)
    for k in range(width):
        others = np.delete(nodes, k)
        denom = np.prod(nodes[k] - others)
        values[k] = np.prod(t - others) / denom
        derivs[k] = sum(np.prod(np.delete(t - others, m)) for m in range(width - 1)) / denom
    c, s = math.cos(OMEGA_EARTH * t), math.sin(OMEGA_EARTH * t)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pos = rot @ (values @ coords)
    vel = rot @ (derivs @ coords) + np.cross([0.0, 0.0, OMEGA_EARTH], pos)
    return pos, vel


class TestBatchInterpolation:
    @pytest.mark.parametrize("n_records", [4, 6, 40])
    def test_matches_product_form(self, n_records):
        table = circular_orbit_table(a=7.0e6, inc=0.6, n_records=n_records)
        span = table.span_seconds
        nodes = table.relative_epochs
        rng = np.random.default_rng(n_records)
        times = np.concatenate([
            rng.uniform(0.0, span, 50),
            nodes[1:-1] + 1e-9, nodes[1:-1] - 1e-6,   # next to nodes
            [0.0, span, 0.5 * span],
        ])
        batch = interpolate_state(table, times)
        assert batch.position.shape == batch.velocity.shape == (times.size, 3)
        for i, t in enumerate(times):
            pos, vel = _product_form_state(table, float(t))
            assert np.max(np.abs(batch.position[i] - pos)) <= 1e-6
            assert np.max(np.abs(batch.velocity[i] - vel)) <= 1e-7
            one = interpolate_state(table, float(t))
            np.testing.assert_allclose(one.position[0], batch.position[i], rtol=0, atol=1e-9)

    def test_node_hits_are_exact(self):
        table = circular_orbit_table(n_records=12)
        nodes = table.relative_epochs
        state = interpolate_state(table, nodes)
        np.testing.assert_array_equal(state.position[0], table.records[0].position)
        c, s = np.cos(OMEGA_EARTH * nodes), np.sin(OMEGA_EARTH * nodes)
        x, y, z = table.positions.T
        np.testing.assert_array_equal(state.position,
                                      np.stack([c * x - s * y, s * x + c * y, z], axis=-1))

    def test_out_of_range_epoch_is_named(self):
        table = parse_cpf(SAMPLE)  # spans [0, 180] s
        with pytest.raises(OutOfRange, match=r"t = 200\.000 s .* at epoch \[2\]$"):
            interpolate_state(table, np.array([0.0, 90.0, 200.0, 300.0]))

    def test_trajectory_states_match_one_epoch_views(self):
        """Each row of a batch equals the same epoch run as a batch of one."""
        traj = EphemerisTrajectory(circular_orbit_table(n_records=20))
        times = np.array([30.0, 300.0, 601.5, 1000.0])
        pos = traj.states(times).position
        acc = traj.accelerations(times)
        for i, t in enumerate(times):
            np.testing.assert_allclose(traj.states(t).position[0], pos[i], rtol=0, atol=1e-9)
            np.testing.assert_allclose(traj.accelerations(t)[0], acc[i], rtol=1e-12)
