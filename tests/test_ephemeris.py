"""Ephemeris parsing, serialization, and interpolation accuracy."""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravlink.constants import GM_EARTH, OMEGA_EARTH, SECONDS_PER_DAY
from gravlink.ephemeris import (
    EphemerisTable,
    EphemerisTrajectory,
    _bulk,
    _by_line,
    _lagrange_basis,
    interpolate_state,
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
        np.testing.assert_array_equal(state.position[0], table.records["position"][0])
        c, s = np.cos(OMEGA_EARTH * nodes), np.sin(OMEGA_EARTH * nodes)
        x, y, z = table.positions.T
        np.testing.assert_array_equal(state.position,
                                      np.stack([c * x - s * y, s * x + c * y, z], axis=-1))

    def test_out_of_range_epoch_is_named(self):
        table = parse_cpf(SAMPLE)  # spans [0, 180] s
        with pytest.raises(OutOfRange, match=r"t = 200\.000 s .* at epoch \[2\]$"):
            interpolate_state(table, np.array([0.0, 90.0, 200.0, 300.0]))

    def test_nan_epoch_is_named(self):
        trajectory = EphemerisTrajectory(parse_cpf(SAMPLE))
        with pytest.raises(OutOfRange, match=r"t = nan s .* at epoch \[1\]$"):
            trajectory.states([10.0, math.nan])

    def test_trajectory_states_match_one_epoch_views(self):
        """Each row of a batch equals the same epoch run as a batch of one."""
        traj = EphemerisTrajectory(circular_orbit_table(n_records=20))
        times = np.array([30.0, 300.0, 601.5, 1000.0])
        pos = traj.states(times).position
        for i, t in enumerate(times):
            np.testing.assert_allclose(traj.states(t).position[0], pos[i], rtol=0, atol=1e-9)


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
    ])
    def test_first_failing_line_is_named(self, lines, error, line_number):
        exc = assert_matches_reference("\n".join(lines))
        assert type(exc) is error
        assert exc.line_number == line_number

    @pytest.mark.parametrize("mjd", ["10000000000000000001", "-9223372036854775809", "9" * 305])
    def test_mjd_beyond_int64_parses_as_before(self, mjd):
        # one record; an mjd past 2e303 puts the epoch at inf, and its relative epoch at nan
        table = assert_matches_reference(f"10 0 {mjd} 30.0 0 7000000.0 0.0 0.0")
        assert table.records["mjd"][0] == float(int(mjd))

    def test_mjd_beyond_float_is_a_malformed_record(self):
        text = GOOD.format(sod=0.0, y=0.0) + "\n10 0 " + "9" * 310 + " 0.0 0 7000000.0 0.0 0.0"
        with pytest.raises(OverflowError):
            reference_parse_cpf(text)
        with pytest.raises(MalformedRecord, match="line 2: non-numeric field: int too large"):
            parse_cpf(text)


def record_rows(text):
    """Line numbers and tokens of the "10" lines, as parse_cpf selects them."""
    numbered = [(no, raw.split()) for no, raw in enumerate(text.splitlines(), 1)]
    numbered = [(no, tokens) for no, tokens in numbered if tokens and tokens[0] == "10"]
    return [no for no, _ in numbered], [tokens for _, tokens in numbered]


def test_bulk_accepts_exactly_what_the_line_pass_accepts():
    accepted = 0
    for text in cpf_mutations():
        line_nos, rows = record_rows(text)
        records = _bulk(rows)
        try:
            reference_parse_cpf(text)
        except (GravlinkError, OverflowError):
            assert records is None
            continue
        assert records is not None
        assert records.tobytes() == EphemerisTable(_by_line(line_nos, rows)).records.tobytes()
        accepted += 1
    assert accepted > 0


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
    for got, want in zip(_lagrange_basis(t, windows), masked_lagrange_basis(t, windows)):
        np.testing.assert_array_equal(_bits(got), _bits(want))
