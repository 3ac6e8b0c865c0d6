"""Ephemeris parsing, serialization, and interpolation accuracy."""

import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravlink.constants import GM_EARTH, OMEGA_EARTH, SECONDS_PER_DAY
from gravlink.ephemeris import (
    EphemerisRecord,
    EphemerisTable,
    EphemerisTrajectory,
    _bulk,
    _by_line,
    _lagrange_basis,
    _lagrange_denominators,
    parse_cpf,
    serialize_cpf,
)
from gravlink.errors import (
    EmptyEphemeris,
    GravlinkError,
    InsufficientRecords,
    MalformedRecord,
    NonMonotonicTime,
    OutOfRange,
)
from gravlink.kinematics import rotate_z

from helpers import interpolate_oracle

SAMPLE_CPF = Path(__file__).resolve().parents[1] / "scenarios" / "leo_sample.cpf"

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


def orbit_table(epochs, angle, radius=7.0e6, inc=0.5):
    """Table of a circular path of the given radius [m] through the in-plane angles
    angle(epochs) [rad], written Earth-fixed at the relative epochs [s] given. Built
    directly, so neither a parser window nor an even spacing applies."""
    u, ci, si = angle(epochs), math.cos(inc), math.sin(inc)
    inertial = radius * np.stack([np.cos(u), np.sin(u) * ci, np.sin(u) * si], axis=-1)
    fixed = rotate_z(-OMEGA_EARTH * epochs, inertial)
    return EphemerisTable(records=[EphemerisRecord(61267, float(t), tuple(map(float, r)))
                                   for t, r in zip(epochs, fixed)])


@st.composite
def ephemeris_tables(draw):
    """4 to 12 records 60 s apart, or unevenly 5 to 200 s apart, of a LEO-like orbit."""
    n = draw(st.integers(4, 12))
    steps = draw(st.one_of(st.just([60.0] * (n - 1)),
                           st.lists(st.floats(5.0, 200.0), min_size=n - 1, max_size=n - 1)))
    epochs = np.concatenate([[0.0], np.cumsum(steps)])
    rate, inc = draw(st.floats(5e-4, 1.3e-3)), draw(st.floats(0.0, math.pi))
    return orbit_table(epochs, lambda t: rate * t, radius=draw(st.floats(6.6e6, 7.5e6)), inc=inc)


@st.composite
def table_epochs(draw, table):
    """Epochs of a table's span, shuffled: some nodes, both span ends, points between, and
    at least one point each where the 8-node window is clipped to the first or last nodes."""
    nodes = table.relative_epochs
    half = min(8, len(nodes)) // 2
    picked = draw(st.lists(st.sampled_from(nodes.tolist()), max_size=len(nodes)))
    inside = draw(st.lists(st.floats(0.0, float(nodes[-1])), max_size=8))
    first = draw(st.lists(st.floats(0.0, float(nodes[half])), min_size=1, max_size=3))
    last = draw(st.lists(st.floats(float(nodes[-1 - half]), float(nodes[-1]), exclude_min=True),
                         min_size=1, max_size=3))
    return np.asarray(draw(st.permutations([0.0, float(nodes[-1])] + picked + inside
                                           + first + last)))


class TestParse:
    def test_single_record_field_echo(self):
        table = parse_cpf("10 0 58600 0.0 0 7000000.0 0.0 0.0")
        assert table.n_records == 1
        np.testing.assert_array_equal(table.records["mjd"], [58600])
        np.testing.assert_array_equal(table.records["sod"], [0.0])
        np.testing.assert_array_equal(table.positions, [[7.0e6, 0.0, 0.0]])

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

    @pytest.mark.parametrize("text", [SAMPLE, SAMPLE.split("\n", 2)[2]],
                             ids=["header first", "records first"])
    def test_byte_order_mark_is_skipped(self, text):
        # str.strip keeps U+FEFF, so the first line's tag once read neither 10 nor H1 and
        # the line was dropped: a header from source, or the first record
        plain, marked = parse_cpf(text), parse_cpf("\ufeff" + text)
        assert np.array_equal(marked.records, plain.records)
        assert marked.source == plain.source

    def test_roundtrip_identity(self):
        table = parse_cpf(SAMPLE)
        again = parse_cpf(serialize_cpf(table))
        assert np.array_equal(again.records, table.records)
        assert again.source == table.source

    def test_roundtrip_precision(self):
        text = "10 0 58600 12345.678901 0 7123456.123456789 -987654.321 42.0\n"
        table = parse_cpf(text)
        again = parse_cpf(serialize_cpf(table))
        assert np.array_equal(again.records, table.records)


class TestInterpolation:
    def test_node_reproduction(self):
        table = parse_cpf(SAMPLE)
        position, _ = EphemerisTrajectory(table).states(0.0)
        # t = first epoch: inertial and Earth-fixed frames coincide
        np.testing.assert_allclose(position, [[7.0e6, 0.0, 0.0]], atol=1e-6)

    def test_node_reproduction_rotated(self):
        table = circular_orbit_table(n_records=12)
        t = 300.0
        position, _ = EphemerisTrajectory(table).states(t)
        pos, _ = analytic_eci_state(7.0e6, 0.0, t)
        np.testing.assert_allclose(position, [pos], atol=1e-5)

    @pytest.mark.parametrize("times", [[10.0, 20.0], (10.0, 20.0),
                                       [10.0, 20.0, 30.0], (10.0, 20.0, 30.0)])
    def test_sequences_are_epochs(self, times):
        trajectory = EphemerisTrajectory(circular_orbit_table(n_records=8))
        expected = trajectory.states(np.array(times))
        state = trajectory.states(times)
        assert state[0].shape == (len(times), 3)
        np.testing.assert_array_equal(state[0], expected[0])
        np.testing.assert_array_equal(state[1], expected[1])

    def test_out_of_range(self):
        trajectory = EphemerisTrajectory(parse_cpf(SAMPLE))  # spans [0, 180] s
        with pytest.raises(OutOfRange):
            trajectory.states(200.0)
        with pytest.raises(OutOfRange):
            trajectory.states(-1.0)

    def test_insufficient_records(self):
        # refused when the trajectory is built: three records, one short of a cubic
        table = parse_cpf("\n".join(SAMPLE.splitlines()[:-1]))
        with pytest.raises(InsufficientRecords, match="^trajectory needs >= 4 records, "
                                                      "table has 3$"):
            EphemerisTrajectory(table)

    def test_dense_table_meter_accuracy(self):
        # windowed interpolation on 60 s samples of a circular orbit must
        # stay below 1 m / 1e-3 m/s through the span interior
        a, inc = 7.0e6, 0.6
        trajectory = EphemerisTrajectory(circular_orbit_table(a=a, inc=inc, n_records=40))
        worst_pos = worst_vel = 0.0
        for t in np.arange(310.0, 2000.0, 37.0):
            position, velocity = trajectory.states(float(t))
            pos, vel = analytic_eci_state(a, inc, float(t))
            worst_pos = max(worst_pos, float(np.linalg.norm(position - pos)))
            worst_vel = max(worst_vel, float(np.linalg.norm(velocity - vel)))
        assert worst_pos < 1.0
        assert worst_vel < 1e-3

    def test_minimal_table_midpoint(self):
        # with only 4 records the window degrades to a cubic, whose
        # mid-interval error on this orbit is meter-scale
        table = circular_orbit_table(n_records=4)
        position, velocity = EphemerisTrajectory(table).states(90.0)
        pos, vel = analytic_eci_state(7.0e6, 0.0, 90.0)
        assert float(np.linalg.norm(position - pos)) < 5.0
        assert float(np.linalg.norm(velocity - vel)) < 0.2


class TestTrajectory:
    def test_state_matches_interpolant(self):
        table = circular_orbit_table(n_records=10)
        state = EphemerisTrajectory(table).states(123.0)
        position, velocity, _ = interpolate_oracle(table, 123.0, velocities=True)
        for got, want in zip(state, (position, velocity)):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), table=ephemeris_tables())
    def test_matches_the_per_call_interpolation_bit_for_bit(self, data, table):
        """Denominators computed once per table give the bits of the product formed on
        every call, for positions and states alike."""
        trajectory, t = EphemerisTrajectory(table), data.draw(table_epochs(table))
        position, velocity, _ = interpolate_oracle(table, t, velocities=True)
        state = trajectory.states(t)
        np.testing.assert_array_equal(_bits(state[0]), _bits(position))
        np.testing.assert_array_equal(_bits(state[1]), _bits(velocity))
        np.testing.assert_array_equal(_bits(trajectory.positions(t)),
                                      _bits(interpolate_oracle(table, t, velocities=False)[0]))

    def test_needs_four_records(self):
        table = parse_cpf("10 0 58600 0.0 0 7000000.0 0.0 0.0")
        with pytest.raises(InsufficientRecords):
            EphemerisTrajectory(table)


def _product_form_state(table, t):
    """Reference interpolant: the windowed Lagrange product form, one epoch at a time."""
    epochs = table.records["mjd"] * 86400.0 + table.records["sod"]
    epochs -= epochs[0]
    n = table.n_records
    width = min(8, n)
    i = int(np.searchsorted(epochs, t))
    start = min(max(i - width // 2, 0), n - width)
    nodes = epochs[start:start + width]
    coords = table.records["position"][start:start + width]
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
        trajectory = EphemerisTrajectory(table)
        positions, velocities = trajectory.states(times)
        assert positions.shape == velocities.shape == (times.size, 3)
        for i, t in enumerate(times):
            pos, vel = _product_form_state(table, float(t))
            assert np.max(np.abs(positions[i] - pos)) <= 1e-6
            assert np.max(np.abs(velocities[i] - vel)) <= 1e-7
            one, _ = trajectory.states(float(t))
            np.testing.assert_allclose(one[0], positions[i], rtol=0, atol=1e-9)

    def test_node_hits_are_exact(self):
        table = circular_orbit_table(n_records=12)
        nodes = table.relative_epochs
        position, _ = EphemerisTrajectory(table).states(nodes)
        np.testing.assert_array_equal(position[0], table.records["position"][0])
        c, s = np.cos(OMEGA_EARTH * nodes), np.sin(OMEGA_EARTH * nodes)
        x, y, z = table.positions.T
        np.testing.assert_array_equal(position,
                                      np.stack([c * x - s * y, s * x + c * y, z], axis=-1))

    def test_out_of_range_epoch_is_named(self):
        trajectory = EphemerisTrajectory(parse_cpf(SAMPLE))  # spans [0, 180] s
        with pytest.raises(OutOfRange, match=r"t = 200\.000 s .* at epoch \[2\]$"):
            trajectory.states(np.array([0.0, 90.0, 200.0, 300.0]))

    def test_nan_epoch_is_named(self):
        trajectory = EphemerisTrajectory(parse_cpf(SAMPLE))
        with pytest.raises(OutOfRange, match=r"t = nan s .* at epoch \[1\]$"):
            trajectory.states([10.0, math.nan])

    def test_trajectory_states_match_one_epoch_views(self):
        """Each row of a batch equals the same epoch run as a batch of one."""
        traj = EphemerisTrajectory(circular_orbit_table(n_records=20))
        times = np.array([30.0, 300.0, 601.5, 1000.0])
        pos, _ = traj.states(times)
        for i, t in enumerate(times):
            np.testing.assert_allclose(traj.states(t)[0][0], pos[i], rtol=0, atol=1e-9)


def reference_parse_cpf(text):
    """Reference parser: one record at a time, stopping at the first bad line.

    Returns the relative epochs, the positions and the header block that
    parse_cpf's table must hold, or raises what parse_cpf must raise.
    """
    records = []
    headers = []
    last_epoch = -math.inf
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        tag = tokens[0]
        if len(tag) == 2 and tag[0] in "Hh" and tag[1].isdigit():
            headers.append(raw.strip())
            continue
        if tag != "10":
            continue
        if len(tokens) != 8:
            raise MalformedRecord(line_no, f"expected 8 fields, got {len(tokens)}")
        try:
            mjd = int(tokens[2])
            sod = float(tokens[3])
            int(tokens[1])
            int(tokens[4])
            pos = (float(tokens[5]), float(tokens[6]), float(tokens[7]))
        except ValueError as exc:
            raise MalformedRecord(line_no, f"non-numeric field: {exc}") from None
        if not 0.0 <= sod < SECONDS_PER_DAY:
            raise MalformedRecord(line_no, f"seconds-of-day {sod} outside [0, 86400)")
        mag = math.hypot(*pos)
        if not 6.4e6 <= mag <= 5.0e8:
            raise MalformedRecord(
                line_no, f"|position| = {mag:.3e} m outside sanity window [6.4e+06, 5.0e+08]"
            )
        epoch = mjd * SECONDS_PER_DAY + sod
        if not math.isfinite(epoch):
            raise MalformedRecord(line_no, f"epoch mjd*86400 + sod = {epoch} s is not finite")
        if epoch <= last_epoch:
            raise NonMonotonicTime(line_no, "record epochs must strictly increase")
        last_epoch = epoch
        records.append((epoch, pos))
    if not records:
        raise EmptyEphemeris("no valid position records in input")
    t0 = records[0][0]
    return (np.array([epoch - t0 for epoch, _ in records]),
            np.array([pos for _, pos in records], dtype=float), "\n".join(headers))


def cpf_mutations(count=10000, seed=20260815):
    """Texts of the shipped sample CPF with 1-3 random byte edits each."""
    base = SAMPLE_CPF.read_bytes()
    rng = np.random.default_rng(seed)
    for _ in range(count):
        data = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            if not data:
                break
            op = int(rng.integers(0, 4))
            i = int(rng.integers(0, len(data)))
            if op == 0:
                data[i] = int(rng.integers(0, 256))
            elif op == 1:
                data.insert(i, int(rng.integers(0, 256)))
            elif op == 2:
                del data[i]
            else:
                del data[i:]
        yield bytes(data).decode("latin-1")


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


def assert_matches_reference(text):
    """parse_cpf raises what the reference raises, or holds the same table bit for bit."""
    try:
        epochs, positions, source = reference_parse_cpf(text)
    except GravlinkError as exc:
        with pytest.raises(GravlinkError) as got:
            parse_cpf(text)
        assert type(got.value) is type(exc)
        assert getattr(got.value, "line_number", None) == getattr(exc, "line_number", None)
        assert str(got.value) == str(exc)
        return exc
    table = parse_cpf(text)
    np.testing.assert_array_equal(_bits(table.relative_epochs), _bits(epochs))
    np.testing.assert_array_equal(_bits(table.positions), _bits(positions))
    assert table.source == source
    return table


GOOD = "10 0 58600 {sod} 0 7000000.0 {y} 0.0"


class TestReferenceParser:
    def test_mutation_corpus(self):
        rejected = sum(isinstance(assert_matches_reference(text), GravlinkError)
                       for text in cpf_mutations())
        assert 0 < rejected < 10000

    @pytest.mark.parametrize("lines, error, line_number", [
        # a field-count error after a monotonicity error
        ([GOOD.format(sod=60.0, y=0.0), GOOD.format(sod=0.0, y=100.0),
          "10 0 58600 120.0 0 7000000.0 0.0"], NonMonotonicTime, 2),
        # a non-numeric field after a position-window error
        (["10 0 58600 0.0 0 1000.0 0.0 0.0", "10 0 58600 60.0 0 seven 0.0 0.0"],
         MalformedRecord, 1),
        # a non-numeric field before a field-count error, after good lines
        ([GOOD.format(sod=0.0, y=0.0), "H2 header", GOOD.format(sod=60.0, y=1.0),
          "10 x 58600 120.0 0 7000000.0 0.0 0.0", "10 0 58600"], MalformedRecord, 4),
        # a non-numeric leap flag and a bad seconds-of-day on one line: fields convert first
        (["10 0 58600 86400.0 z 7000000.0 0.0 0.0"], MalformedRecord, 1),
        # two mjd beyond int64: 60 s is below the spacing of floats near 8.6e23 s
        (["10 0 10000000000000000001 0.0 0 7000000.0 0.0 0.0",
          "10 0 10000000000000000001 60.0 0 7000000.0 1.0 0.0"], NonMonotonicTime, 2),
        # an mjd of 305 nines puts the epoch at inf, and its negative at -inf: each is named
        # before the monotonicity rule could (or, as the last record, could not) catch it
        ([GOOD.format(sod=0.0, y=0.0), "10 0 " + "9" * 305 + " 30.0 0 7000000.0 0.0 0.0"],
         MalformedRecord, 2),
        (["10 0 -" + "9" * 305 + " 30.0 0 7000000.0 0.0 0.0"], MalformedRecord, 1),
    ])
    def test_first_failing_line_is_named(self, lines, error, line_number):
        exc = assert_matches_reference("\n".join(lines))
        assert type(exc) is error
        assert exc.line_number == line_number

    @pytest.mark.parametrize("mjd", ["10000000000000000001", "-9223372036854775809", "9" * 303])
    def test_mjd_beyond_int64_parses_as_before(self, mjd):
        # one record; 303 nines keep the epoch (8.6e307 s) finite, while an mjd past 2e303
        # puts it at inf, a malformed record (test_first_failing_line_is_named)
        table = assert_matches_reference(f"10 0 {mjd} 30.0 0 7000000.0 0.0 0.0")
        assert table.records["mjd"][0] == float(int(mjd))

    def test_mjd_beyond_float_is_a_malformed_record(self):
        text = GOOD.format(sod=0.0, y=0.0) + "\n10 0 " + "9" * 310 + " 0.0 0 7000000.0 0.0 0.0"
        with pytest.raises(OverflowError):
            reference_parse_cpf(text)
        with pytest.raises(MalformedRecord, match="line 2: non-numeric field: int too large"):
            parse_cpf(text)


def record_lines(text):
    """Line numbers and text of the "10" lines, as parse_cpf selects them."""
    lines = text.splitlines()
    line_nos = [no for no, raw in enumerate(lines, 1) if raw.split()[:1] == ["10"]]
    return line_nos, [lines[no - 1] for no in line_nos]


def bulk_refusal_classes(rows):
    """Why _bulk may refuse record lines that the line pass accepts: a token spelled
    with "_", which numpy's reader does not take, or an int field past int64."""
    tokens = [raw.split() for raw in rows]
    classes = {"_"} if any("_" in token for line in tokens for token in line) else set()
    if any(not -2**63 <= int(line[i]) < 2**63 for line in tokens for i in (1, 2, 4)):
        classes.add("int64")
    return classes


def assert_bulk_keeps_its_contract(text, allowed):
    """_bulk refuses every text that the reference rejects. Where it accepts, it holds
    _by_line's records bit for bit; it refuses a text the reference accepts only for
    one of the allowed refusal classes. Returns whether it accepted."""
    line_nos, rows = record_lines(text)
    records = _bulk(rows)
    try:
        reference_parse_cpf(text)
    except (GravlinkError, OverflowError):
        assert records is None
        return False
    if records is None:
        assert bulk_refusal_classes(rows) & allowed, text
        return False
    assert records.tobytes() == EphemerisTable(_by_line(line_nos, rows)).records.tobytes()
    return True


def infinite_epoch_texts():
    """The sample CPF with an mjd of 305 nines (epoch inf) on its last record, where no
    later record's monotonicity check catches it, and with its negative on the first."""
    lines = SAMPLE_CPF.read_text(encoding="utf-8").splitlines()
    records = [no for no, line in enumerate(lines) if line.startswith("10 ")]
    for no, mjd in ((records[-1], "9" * 305), (records[0], "-" + "9" * 305)):
        tokens = lines[no].split()
        yield "\n".join(lines[:no] + [" ".join(tokens[:2] + [mjd] + tokens[3:])] + lines[no + 1:])


def test_bulk_accepts_exactly_what_the_line_pass_accepts():
    accepted = sum(assert_bulk_keeps_its_contract(text, allowed={"_"})
                   for text in [*cpf_mutations(), *infinite_epoch_texts()])
    assert accepted > 0


@pytest.mark.parametrize("record, bulk_reads", [
    ("10 1.0 61267 60.0 0 7000000.0 0.0 0.0", False),  # an int field spelled as a float
    ("10 0 9223372036854775808 60.0 0 7000000.0 0.0 0.0", False),  # an mjd past int64
    ("10 0 586\u01fe00 60.0 0 7000000.0 0.0 0.0", False),  # numpy reads it as 632200
    ("10 0 61267\xa060.0 0 7000000.0\xa00.0 0.0", True),
    ("10 0 61267 60.0 0\x0b7000000.0 0.0 0.0", False),  # a line break: five fields
    ("10 0 61267 60.0 0 7000000.0 0.0 0.0 # note", False),  # ten fields
    ("10\t0\t61267\t60.0\t0\t7000000.0\t0.0\t0.0", True),
    # |position| by math.hypot is 6399999.999999999 and 500000000.00000006, outside the
    # window, where numpy's hypot of a hypot reads 6.4e6 and 5e8 here
    ("10 0 61267 60.0 0 -5308831.7647387525 -256521.02603566428 -3565179.133914932", False),
    ("10 0 61267 60.0 0 321112692.8473657 383240941.57176 -3608212.2310468857", False),
])
def test_bulk_reads_these_records_or_leaves_them_to_the_line_pass(record, bulk_reads):
    text = "H1 targeted\n10 0 61267 0.0 0 7000000.0 1.0 0.0\n" + record + "\n"
    assert_matches_reference(text)
    assert assert_bulk_keeps_its_contract(text, allowed={"int64"}) == bulk_reads


def test_a_reader_warning_leaves_the_text_to_the_line_pass(monkeypatch):
    # older numpy read an int field spelled 1.0 with a DeprecationWarning and went on
    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return loadtxt(*args, **kwargs)

    loadtxt, lines = np.loadtxt, SAMPLE.splitlines()[2:]
    assert _bulk(lines) is not None
    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as outside the tests, which make every warning an error
        assert _bulk(lines) is None


def spell_int(rng, value):
    """A spelling of an integer that Python's int accepts: 7, +7, 007 or 1_0."""
    digits = str(abs(value))
    form = rng.choice(("plain", "plus", "zeros", "underscore"))
    if form == "zeros":
        digits = "00" + digits
    elif form == "underscore" and len(digits) > 1:
        cut = rng.randrange(1, len(digits))
        digits = digits[:cut] + "_" + digits[cut:]
    return ("-" if value < 0 else "+" if form == "plus" else "") + digits


def spell_float(rng, value):
    """A spelling of a float that Python's float accepts: 6.9e+06, +60.0, 6_900_000.5 or 60."""
    form = rng.choice(("repr", "exponent", "plus", "underscore", "integer"))
    text = repr(value)
    if form == "exponent":  # the shortest that reads back the same value
        return next(f"{value:.{p}e}" for p in range(17) if float(f"{value:.{p}e}") == value)
    if form == "plus" and value >= 0:
        return "+" + text
    if form == "integer" and value.is_integer():
        return str(int(value))
    if form == "underscore":
        cuts = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()
                and "e" not in text[:i]]
        if cuts:
            cut = rng.choice(cuts)
            return text[:cut] + "_" + text[cut:]
    return text


FAULTS = ("drop", "extra", "word", "sod", "far", "repeat", "huge_mjd")


def inject(rng, tokens, previous, fault):
    """The tokens of one record line with one fault."""
    tokens = list(tokens)
    if fault == "drop":
        del tokens[rng.randrange(1, 8)]
    elif fault == "extra":
        tokens.insert(rng.randrange(1, 9), "0")
    elif fault == "word":
        tokens[rng.randrange(1, 8)] = rng.choice(("x", "1.0.0", "nan", "inf", "1__0", ""))
    elif fault == "sod":
        tokens[3] = rng.choice(("86400", "86400.0", "-1e-9", "1e5"))
    elif fault == "far":
        tokens[5:] = rng.choice((["1000.0", "0", "0"], ["6e8", "0", "0"], ["0", "0", "0"]))
    elif fault == "repeat" and previous is not None:
        tokens[2:4] = previous[2:4]
    elif fault == "huge_mjd":
        tokens[2] = "9" * rng.randrange(19, 40)
    return [token for token in tokens if token]


@st.composite
def cpf_tables(draw):
    """CPF texts of 4-400 records over day rollovers, in the token spellings int and
    float accept, with repeated mjd and flag tokens and at most one injected fault."""
    n = draw(st.integers(4, 400))
    step = draw(st.sampled_from((0.5, 1.0, 30.0, 60.0, 600.0, 3600.0, 21600.0)))
    start = SECONDS_PER_DAY - step * draw(st.integers(1, n - 1))  # the first rollover
    mjd0 = draw(st.integers(40000, 70000))
    radius = draw(st.floats(6.5e6, 4.0e8))
    fault = draw(st.sampled_from((None,) + FAULTS))
    at = draw(st.integers(0, n - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    flags = [spell_int(rng, rng.choice((0, 1))) for _ in range(3)]  # a few spellings, repeated
    lines, previous = ["H1 CPF 2 TST 2026 8 15 1 generated"], None
    for k in range(n):
        epoch = start + k * step
        day = math.floor(epoch / SECONDS_PER_DAY)
        u = 0.01 * k
        position = (radius * math.cos(u) * 0.8, radius * math.sin(u) * 0.8, radius * 0.6)
        tokens = ["10", rng.choice(flags), spell_int(rng, mjd0 + day),
                  spell_float(rng, epoch - day * SECONDS_PER_DAY), rng.choice(flags)]
        tokens += [spell_float(rng, c) for c in position]
        if k == at and fault:
            tokens = inject(rng, tokens, previous, fault)
        lines.append(" ".join(tokens))
        if rng.random() < 0.05:
            lines.append("99 a line that is not a record")
        previous = tokens
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=cpf_tables())
def test_generated_tables_match_reference(text):
    assert_matches_reference(text)


@settings(max_examples=150, deadline=None)
@given(text=cpf_tables())
def test_bulk_keeps_its_contract_on_generated_tables(text):
    # the tables spell tokens with "_", and the huge_mjd fault writes an mjd past int64
    assert_bulk_keeps_its_contract(text, allowed={"_", "int64"})


def masked_lagrange_basis(t, nodes):
    """Reference basis: the same products, updating the columns j != k through mask copies."""
    offsets = t[:, None] - nodes
    values = np.ones_like(offsets)
    derivs = np.zeros_like(offsets)
    denoms = np.ones_like(offsets)
    for k in range(nodes.shape[1]):
        j = np.arange(nodes.shape[1]) != k
        derivs[:, j] = derivs[:, j] * offsets[:, k, None] + values[:, j]
        values[:, j] *= offsets[:, k, None]
        denoms[:, j] *= nodes[:, j] - nodes[:, k, None]
    return values / denoms, derivs / denoms


@pytest.mark.parametrize("width", range(4, 9))
def test_basis_matches_masked_loop_bit_for_bit(width):
    rng = np.random.default_rng(width)
    uneven = np.sort(rng.uniform(0.0, 3600.0, (40, width)), axis=1)
    even = 60.0 * (np.arange(width) + rng.integers(0, 1440, (40, 1)))
    nodes = np.concatenate([uneven, even])
    on_node = nodes[np.arange(len(nodes)), rng.integers(0, width, len(nodes))]
    inside = rng.uniform(nodes[:, 0], nodes[:, -1])
    t, windows = np.concatenate([on_node, inside]), np.concatenate([nodes, nodes])
    want = masked_lagrange_basis(t, windows)
    denoms = _lagrange_denominators(windows)
    for got, expected in zip(_lagrange_basis(t, windows, denoms), want):
        np.testing.assert_array_equal(_bits(got), _bits(expected))
    # the positions path skips the derivative half of the same loop
    values, derivs = _lagrange_basis(t, windows, denoms, derivatives=False)
    assert derivs is None
    np.testing.assert_array_equal(_bits(values), _bits(want[0]))


def test_basis_forms_no_product_that_overflows_where_the_basis_does_not():
    # nodes 2e77 s apart: the product of all four offsets at t = 3e77 s passes the float
    # range, every product the basis is made of (three factors) stays well inside it
    nodes, t = 2e77 * np.arange(4.0)[None, :], np.array([3e77])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for derivatives in (True, False):
            got = _lagrange_basis(t, nodes, _lagrange_denominators(nodes), derivatives)
            for values, want in zip(got, masked_lagrange_basis(t, nodes)[:1 + derivatives]):
                np.testing.assert_array_equal(_bits(values), _bits(want))


def test_positions_path_keeps_the_table_checks():
    """positions refuses the epochs that states refuses, in the same words."""
    trajectory, t = EphemerisTrajectory(parse_cpf(SAMPLE)), np.array([0.0, 90.0, 200.0])
    with pytest.raises(OutOfRange) as state_path:
        trajectory.states(t)
    with pytest.raises(OutOfRange) as position_path:
        trajectory.positions(t)
    assert str(position_path.value) == str(state_path.value)
