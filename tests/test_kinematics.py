"""Platform states, light-time solver, and link-geometry assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravlink.constants import C_LIGHT, GM_EARTH, OMEGA_EARTH, R_EARTH
from gravlink.ephemeris import EphemerisTrajectory
from gravlink.errors import BadAltitude, DegenerateGeometry, NoConvergence
from gravlink.kinematics import (
    EARTH_ROTATION,
    CircularOrbit,
    GroundStation,
    LinkGeometry,
    StateVector,
    build_link_geometry,
    newtonian_potential,
    rotate_z,
    solve_light_time,
)
from gravlink.link_model import OpticalConfig, RedshiftParams, phase_pair

from helpers import StaticPlatform
from test_ephemeris import circular_orbit_table


def station_acceleration(station, t):
    """a1 of the link geometry from station at emission epoch(s) t."""
    return build_link_geometry(station, CircularOrbit(6.9e6, inclination=1.2), t).a1


class TestStateVector:
    def test_below_earth_rejected(self):
        with pytest.raises(BadAltitude):
            StateVector(position=[1.0e6, 0, 0], velocity=[0, 0, 0], epoch=0.0)

    def test_overspeed_rejected(self):
        with pytest.raises(ValueError):
            StateVector(position=[7.0e6, 0, 0], velocity=[2.0e4, 0, 0], epoch=0.0)

    @pytest.mark.parametrize("position, velocity, error", [
        ([math.nan, 0.0, 0.0], [0.0, 0.0, 0.0], BadAltitude),
        ([7.0e6, 0.0, 0.0], [0.0, math.nan, 0.0], ValueError),
    ])
    def test_nan_rejected(self, position, velocity, error):
        with pytest.raises(error, match=r"= nan m.* at epoch \[0\] \(t = 0 s\)$"):
            StateVector(position=position, velocity=velocity, epoch=0.0)

    def test_arrays_coerced(self):
        s = StateVector(position=(7.0e6, 0, 0), velocity=(0, 7.0e3, 0), epoch=1.0)
        assert isinstance(s.position, np.ndarray)
        assert s.position.dtype == float


class TestCircularOrbit:
    def test_construction_axes(self):
        s = CircularOrbit(7.0e6, 0.0, 0.0, 0.0).states(0.0)
        np.testing.assert_allclose(s.position, [[7.0e6, 0.0, 0.0]], atol=1e-9)
        assert s.velocity[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert s.velocity[0, 1] > 0.0
        assert s.velocity[0, 2] == pytest.approx(0.0, abs=1e-9)

    def test_altitude_bounds(self):
        with pytest.raises(BadAltitude):
            CircularOrbit(1.0e6, 0.0, 0.0, 0.0).states(0.0)
        with pytest.raises(BadAltitude):
            CircularOrbit(6.0e7, 0.0, 0.0, 0.0).states(0.0)

    def test_energy_like_invariant(self):
        # vis-viva for a circular orbit: v^2 a / GM = 1
        orbit = CircularOrbit(6.9e6, inclination=1.1, raan=0.4, phase=2.2)
        velocity = orbit.states(np.linspace(0.0, 6000.0, 17)).velocity
        v2 = np.einsum("ij,ij->i", velocity, velocity)
        assert np.max(np.abs(v2 * orbit.semi_major_axis / GM_EARTH - 1.0)) < 1e-12

    def test_radius_constant(self):
        orbit = CircularOrbit(7.1e6, inclination=0.7)
        positions = orbit.states([0.0, 800.0, 3000.0]).position
        assert np.linalg.norm(positions, axis=1) == pytest.approx(7.1e6, rel=1e-12)


class TestGroundStation:
    def test_equatorial_speed(self):
        s = GroundStation(0.0, 0.0, 0.0).states(0.0)
        speed = float(np.linalg.norm(s.velocity))
        assert abs(speed - OMEGA_EARTH * R_EARTH) < 0.1
        assert speed == pytest.approx(464.5807, abs=1e-3)

    def test_pole_is_stationary(self):
        s = GroundStation(math.pi / 2, 0.0, 0.0).states(123.0)
        assert float(np.linalg.norm(s.velocity)) == pytest.approx(0.0, abs=1e-9)
        acc = station_acceleration(GroundStation(math.pi / 2, 0.0, 0.0), 123.0)
        assert float(np.linalg.norm(acc)) == pytest.approx(0.0, abs=1e-12)

    def test_equatorial_centripetal_acceleration(self):
        acc = station_acceleration(GroundStation(0.0, 0.0, 0.0), 0.0)
        mag = float(np.linalg.norm(acc))
        assert mag == pytest.approx(OMEGA_EARTH**2 * R_EARTH, rel=0.01)
        assert mag == pytest.approx(3.387776e-2, rel=1e-5)
        # centripetal: anti-parallel to position
        pos = GroundStation(0.0, 0.0, 0.0).states(0.0).position
        assert float(acc[0] @ pos[0]) < 0.0

    def test_latitude_bound(self):
        with pytest.raises(ValueError):
            GroundStation(2.0, 0.0, 0.0).states(0.0)

    def test_nan_coordinates_rejected(self):
        with pytest.raises(ValueError, match="latitude nan rad"):
            GroundStation(math.nan, 0.0)
        for lon, alt in ((math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(BadAltitude, match=r"\|position\| = nan m"):
                GroundStation(0.3, lon, alt)

    @pytest.mark.parametrize("lat, lon, alt", [(0.0, 0.0, 0.0), (0.7, -2.1, 1500.0),
                                               (-math.pi / 2, 0.3, 0.0)])
    def test_potential_is_constant(self, lat, lon, alt):
        # the station is the equal-potential endpoint of both legs that
        # roundtrip_fractional_shift assumes
        u = newtonian_potential(GroundStation(lat, lon, alt).states(np.linspace(0.0, 86400.0, 97))
                                .position)
        np.testing.assert_allclose(u, u[0], rtol=1e-15, atol=0.0)

    def test_rotation_carries_station(self):
        gs = GroundStation(0.3, 1.1, 200.0)
        quarter_day = 0.5 * math.pi / OMEGA_EARTH
        p0, p1 = gs.states([0.0, quarter_day]).position
        np.testing.assert_allclose(rotate_z(math.pi / 2, p0), p1, atol=1e-6)


class TestPotential:
    def test_surface_value(self):
        u = newtonian_potential([R_EARTH, 0.0, 0.0])
        assert u == pytest.approx(6.961e-10, rel=1e-3)
        assert u == pytest.approx(6.9612745866e-10, rel=1e-9)

    def test_monotonic_decrease(self):
        radii = np.linspace(R_EARTH, 50.0 * R_EARTH, 40)
        values = [newtonian_potential([r, 0.0, 0.0]) for r in radii]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 2e-11

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError):
            newtonian_potential([0.0, 0.0, 0.0])


class _LinearPlatform:
    """Straight-line motion; positions may be physically inconsistent."""

    def __init__(self, position, velocity):
        self.p0 = np.asarray(position, dtype=float)
        self.v = np.asarray(velocity, dtype=float)

    def states(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return StateVector(position=self.p0 + self.v * t[:, None],
                           velocity=np.broadcast_to(self.v, (len(t), 3)), epoch=t)


class _RunawayPlatform:
    """Position recedes near light speed; defeats the fixed-point iteration."""

    def states(self, t):
        t = np.asarray(t, dtype=float)
        position = np.stack([6.5e6 + 0.99 * C_LIGHT * t, 0.0 * t, 0.0 * t], axis=-1)
        return StateVector(position=position, velocity=np.zeros((len(t), 3)), epoch=t)


class TestLightTime:
    def test_static_range(self):
        emitter = StateVector(
            position=[7.0e6, 0, 0], velocity=[0, 0, 0], epoch=0.0
        )
        receiver = StaticPlatform([7.4e6, 0.0, 0.0])
        t_flight, n_hat = solve_light_time(emitter, receiver)
        assert abs(t_flight - 4.0e5 / C_LIGHT) < 1e-9
        assert t_flight == pytest.approx(1.3342564e-3, rel=1e-6)
        np.testing.assert_allclose(n_hat, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_coincident_raises(self):
        emitter = StateVector(
            position=[7.0e6, 0, 0], velocity=[0, 0, 0], epoch=0.0
        )
        receiver = StaticPlatform([7.0e6, 0.0, 0.0])
        with pytest.raises(DegenerateGeometry):
            solve_light_time(emitter, receiver)

    def test_receding_receiver_against_grid_search(self):
        # brute-force oracle: bisect f(T) = |r_recv(t+T) - r_emit| - cT
        emitter = StateVector(
            position=[7.0e6, 0, 0], velocity=[0, 0, 0], epoch=0.0
        )
        receiver = _LinearPlatform([7.4e6, 0.0, 0.0], [7.0e3, 0.0, 0.0])

        def miss(t_flight):
            sep = receiver.states(t_flight).position - emitter.position
            return float(np.linalg.norm(sep)) - C_LIGHT * t_flight

        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if miss(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        t_oracle = 0.5 * (lo + hi)

        t_flight, _ = solve_light_time(emitter, receiver)
        t_static = 4.0e5 / C_LIGHT
        excess = t_flight - t_static
        assert excess == pytest.approx(t_static * 7.0e3 / C_LIGHT, rel=0.01)
        assert excess == pytest.approx(t_oracle - t_static, rel=0.01)
        assert abs(t_flight - t_oracle) < 1e-12

    def test_range_consistency(self):
        # recomputing the range at the converged epoch reproduces cT
        gs = GroundStation(0.0, 0.0)
        orbit = CircularOrbit(6.778e6, inclination=0.9)
        emit = gs.states(100.0)
        t_flight, _ = solve_light_time(emit, orbit)
        sep = orbit.states(100.0 + t_flight).position - emit.position
        assert abs(float(np.linalg.norm(sep)) - C_LIGHT * t_flight) < 1e-3

    def test_emission_epoch_is_read_from_the_state(self):
        # one station position, labelled t = 0 or t = 300 s: the state's epoch
        # sets when the light leaves, so it meets the orbit elsewhere
        orbit = CircularOrbit(6.771e6)
        now = GroundStation(0.0, 0.0).states(0.0)
        relabelled = StateVector(position=now.position, velocity=now.velocity, epoch=300.0)
        t_now, _ = solve_light_time(now, orbit)
        t_later, _ = solve_light_time(relabelled, orbit)
        assert t_now == pytest.approx(1.334e-3, rel=1e-3)
        assert t_later == pytest.approx(7.531e-3, rel=1e-3)

    def test_direction_reverses_on_swap(self):
        a = StaticPlatform([7.0e6, 1.0e5, 0.0])
        b = StaticPlatform([7.3e6, -2.0e5, 4.0e5])
        _, n_ab = solve_light_time(a.states(0.0), b)
        _, n_ba = solve_light_time(b.states(0.0), a)
        np.testing.assert_allclose(n_ab, -n_ba, atol=1e-12)

    def test_runaway_receiver_no_convergence(self):
        emitter = StateVector(
            position=[6.4e6, 0, 0], velocity=[0, 0, 0], epoch=0.0
        )
        with pytest.raises(NoConvergence):
            solve_light_time(emitter, _RunawayPlatform())


_ONE_EPOCH = dict(beta1=[1e-6, 2e-6, 0.0], beta2=[0.0, 3e-6, -1e-6], beta3=[2e-6, 0.0, 5e-7],
                  n12=[0.6, 0.8, 0.0], n23=[0.0, -0.6, -0.8], U1=7e-10, U2=6e-10,
                  a1=np.zeros(3), t_up=1e-3)


class TestLinkGeometry:
    def test_projections_are_derived(self):
        geom = LinkGeometry(**_ONE_EPOCH)
        n12, n23 = np.array(_ONE_EPOCH["n12"]), np.array(_ONE_EPOCH["n23"])
        for d, n, beta in ((geom.d1, n12, "beta1"), (geom.d2, n12, "beta2"),
                           (geom.d3, n23, "beta3")):
            assert d.shape == (1,)
            assert d[0] == pytest.approx(float(n @ np.array(_ONE_EPOCH[beta])), rel=1e-15)

    @pytest.mark.parametrize("name", ["d1", "d2", "d3", "U3"])
    def test_derived_or_removed_fields_are_not_arguments(self, name):
        with pytest.raises(TypeError):
            LinkGeometry(**_ONE_EPOCH, **{name: 0.0})

    @pytest.mark.parametrize("name, value, error", [
        ("n12", [math.nan, 0.0, 0.0], DegenerateGeometry),
        ("n23", [0.0, 0.0, math.nan], DegenerateGeometry),
        ("beta2", [math.nan, 0.0, 0.0], ValueError),
        ("U2", math.nan, ValueError),
    ])
    def test_nan_rejected(self, name, value, error):
        with pytest.raises(error, match=r"nan.* at epoch \[0\]$"):
            LinkGeometry(**{**_ONE_EPOCH, name: value})

    def test_unit_vector_enforced(self):
        with pytest.raises(DegenerateGeometry):
            LinkGeometry(
                beta1=np.zeros(3), beta2=np.zeros(3), beta3=np.zeros(3),
                n12=[1.0, 1.0, 0.0], n23=[0.0, 0.0, 1.0],
                U1=7e-10, U2=7e-10, a1=np.zeros(3), t_up=1e-3,
            )

    def test_beta_cap_enforced(self):
        with pytest.raises(ValueError):
            LinkGeometry(
                beta1=[1e-4, 0, 0], beta2=np.zeros(3), beta3=np.zeros(3),
                n12=[1.0, 0.0, 0.0], n23=[-1.0, 0.0, 0.0],
                U1=7e-10, U2=7e-10, a1=np.zeros(3), t_up=1e-3,
            )

    def test_potential_window_enforced(self):
        for bad_u in (0.0, -1e-10, 2e-8):
            with pytest.raises(ValueError):
                LinkGeometry(
                    beta1=np.zeros(3), beta2=np.zeros(3), beta3=np.zeros(3),
                    n12=[1.0, 0.0, 0.0], n23=[-1.0, 0.0, 0.0],
                    U1=bad_u, U2=7e-10, a1=np.zeros(3), t_up=1e-3,
                )


class TestBuildLinkGeometry:
    def test_static_overhead(self):
        gs = StaticPlatform([R_EARTH, 0.0, 0.0])
        sc = StaticPlatform([R_EARTH + 4.0e5, 0.0, 0.0])
        geom = build_link_geometry(gs, sc, 0.0)
        assert float(np.linalg.norm(geom.beta1)) == 0.0
        assert float(np.linalg.norm(geom.beta2)) == 0.0
        np.testing.assert_allclose(geom.n23, -geom.n12, atol=1e-12)
        assert geom.U2 < geom.U1

    def test_zenith_pass_midpoint(self):
        gs = GroundStation(0.0, 0.0)
        sc = CircularOrbit(R_EARTH + 4.0e5)
        geom = build_link_geometry(gs, sc, 0.0)
        # station velocity is tangential; its projection on the nearly
        # radial uplink direction is far below the full beta
        b1 = float(np.linalg.norm(geom.beta1))
        assert abs(geom.d1) <= b1
        assert geom.U2 < geom.U1

    def test_projections_match_definitions(self):
        gs = GroundStation(0.2, 0.5)
        sc = CircularOrbit(6.778e6, inclination=0.9)
        geom = build_link_geometry(gs, sc, 120.0)
        assert geom.d1 == pytest.approx(np.sum(geom.n12 * geom.beta1, axis=1), abs=1e-18)
        assert geom.d2 == pytest.approx(np.sum(geom.n12 * geom.beta2, axis=1), abs=1e-18)
        assert geom.d3 == pytest.approx(np.sum(geom.n23 * geom.beta3, axis=1), abs=1e-18)

    def test_pass_sweep_invariants(self):
        gs = GroundStation(0.0, 0.0)
        sc = CircularOrbit(6.778e6, inclination=0.2)
        for t in np.linspace(-300.0, 300.0, 13):
            geom = build_link_geometry(gs, sc, float(t))
            assert abs(float(np.linalg.norm(geom.n12)) - 1.0) < 1e-12
            assert abs(float(np.linalg.norm(geom.n23)) - 1.0) < 1e-12
            for beta in (geom.beta1, geom.beta2, geom.beta3):
                assert float(np.linalg.norm(beta)) < 4e-5
            for u in (geom.U1, geom.U2):
                assert 0.0 < u < 1e-8
            assert geom.t_up > 0.0

    def test_station_acceleration_recorded(self):
        gs = GroundStation(0.0, 0.0)
        sc = CircularOrbit(6.778e6)
        geom = build_link_geometry(gs, sc, 0.0)
        np.testing.assert_allclose(geom.a1, [[-OMEGA_EARTH**2 * R_EARTH, 0.0, 0.0]],
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("kind", ["circular", "ephemeris"])
    def test_reception_radius_from_the_potential(self, kind):
        """GM / (c^2 U2), the pass summary's orbit radius, is |r| of the spacecraft at
        reception, with no second state evaluation."""
        orbit = (CircularOrbit(6.9e6, inclination=1.2) if kind == "circular"
                 else EphemerisTrajectory(circular_orbit_table(inc=0.9)))
        t = np.linspace(300.0, 1500.0, 9)
        geom = build_link_geometry(GroundStation(0.4, 0.3), orbit, t)
        radius = np.linalg.norm(orbit.states(t + geom.t_up).position, axis=-1)
        np.testing.assert_allclose(GM_EARTH / (C_LIGHT**2 * geom.U2), radius, rtol=2e-15)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lat=st.floats(-math.pi / 2, math.pi / 2), lon=st.floats(-math.pi, math.pi),
           alt=st.floats(0.0, 3.0e3),
           epochs=st.lists(st.floats(-4.0e4, 4.0e4), min_size=1, max_size=6))
    def test_station_acceleration_is_centripetal(self, lat, lon, alt, epochs):
        """a1 = omega x v1 of a co-rotating station is -omega^2 (x, y, 0)."""
        station = GroundStation(lat, lon, alt)
        x, y, _ = station.states(epochs).position.T
        expected = -OMEGA_EARTH**2 * np.stack([x, y, np.zeros_like(x)], axis=-1)
        np.testing.assert_allclose(station_acceleration(station, epochs), expected,
                                   rtol=1e-15, atol=1e-30)


def test_earth_rotation_vector():
    np.testing.assert_array_equal(EARTH_ROTATION, [0.0, 0.0, OMEGA_EARTH])
    with pytest.raises(ValueError, match="read-only"):
        EARTH_ROTATION[2] = 0.0


def test_rotation_z_orthonormal():
    r = rotate_z(0.7, np.eye(3)).T  # columns: the rotated basis vectors
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-15)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-15)


class TestBatchPath:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        lat=st.floats(-1.4, 1.4), lon=st.floats(-math.pi, math.pi), alt=st.floats(0.0, 3.0e3),
        a=st.floats(6.6e6, 8.0e6), inc=st.floats(0.0, math.pi), raan=st.floats(0.0, 6.3),
        phase=st.floats(0.0, 6.3), t_start=st.floats(-600.0, 600.0),
        span=st.floats(1.0, 900.0), n=st.integers(1, 24),
    )
    def test_batch_signal_equals_one_epoch_views(self, lat, lon, alt, a, inc, raan, phase,
                                                 t_start, span, n):
        """The s of a batch equals the s of each epoch run as a batch of one."""
        gs = GroundStation(lat, lon, alt)
        sc = CircularOrbit(a, inclination=inc, raan=raan, phase=phase)
        optics = OpticalConfig(lambda0=800e-9, delay_length=6.0e3)
        red = RedshiftParams(1e-4)
        epochs = np.linspace(t_start, t_start + span, n)
        batch = phase_pair(build_link_geometry(gs, sc, epochs), optics, red).s_signal
        rows = [phase_pair(build_link_geometry(gs, sc, [t]), optics, red).s_signal
                for t in epochs]
        assert batch.shape == (n,)
        assert np.max(np.abs(batch - np.concatenate(rows))) <= 1e-8

    def test_bad_epoch_in_a_state_batch_is_named(self):
        pos = np.array([[7.0e6, 0.0, 0.0], [1.0e6, 0.0, 0.0], [7.0e6, 0.0, 0.0]])
        with pytest.raises(BadAltitude, match=r" at epoch \[1\] \(t = 5 s\)$"):
            StateVector(position=pos, velocity=np.zeros((3, 3)), epoch=np.array([0.0, 5.0, 9.0]))

    def test_batch_of_one_names_epoch_0(self):
        with pytest.raises(BadAltitude) as raised:
            StaticPlatform([1.0e6, 0.0, 0.0])
        assert str(raised.value) == ("|position| = 1.0000e+06 m is below 6.3e+06 m"
                                     " at epoch [0] (t = 0 s)")

    def test_bad_epoch_in_a_geometry_batch_is_named(self):
        beta = np.zeros((4, 3))
        beta[2, 0] = 1e-4
        n12 = np.tile([1.0, 0.0, 0.0], (4, 1))
        with pytest.raises(ValueError,
                           match=r"\|beta2\| = 1\.000e-04 exceeds 4\.0e-05 at epoch \[2\]$"):
            LinkGeometry(
                beta1=np.zeros((4, 3)), beta2=beta, beta3=np.zeros((4, 3)), n12=n12, n23=-n12,
                U1=np.full(4, 7e-10), U2=np.full(4, 7e-10),
                a1=np.zeros((4, 3)), t_up=np.full(4, 1e-3),
            )

    def test_bad_epoch_in_a_light_time_batch_is_named(self):
        emitter = StateVector(position=[[7.0e6, 0.0, 0.0], [7.4e6, 0.0, 0.0]],
                              velocity=np.zeros((2, 3)), epoch=np.array([0.0, 1.0]))
        with pytest.raises(DegenerateGeometry, match=r" at epoch \[1\] \(t = 1 s\)$"):
            solve_light_time(emitter, StaticPlatform([7.4e6, 0.0, 0.0]))
