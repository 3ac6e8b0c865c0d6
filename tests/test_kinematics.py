"""Platform states, light-time solver, and link-geometry assembly."""

import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gravlink.constants import C_LIGHT, GM_EARTH, OMEGA_EARTH, R_EARTH
from gravlink.ephemeris import (EphemerisRecord, EphemerisTable, EphemerisTrajectory, parse_cpf,
                                serialize_cpf)
from gravlink.errors import BadAltitude, DegenerateGeometry, NoConvergence, OutOfRange
from gravlink.kinematics import (
    _LIGHT_TIME_TOL,
    EARTH_ROTATION,
    CircularOrbit,
    GroundStation,
    LinkGeometry,
    _cross,
    _norm,
    _states,
    build_link_geometry,
    build_pass,
    newtonian_potential,
    rotate_z,
    solve_light_time,
)
from gravlink.link_model import phase_pair, phase_scale

from helpers import StaticPlatform, rotate_z_oracle, solve_light_time_oracle
from test_ephemeris import circular_orbit_table, ephemeris_tables, orbit_table, table_epochs


def station_acceleration(station, t):
    """a1 of the link geometry from station at emission epoch(s) t."""
    return build_link_geometry(station, CircularOrbit(6.9e6, inclination=1.2), t).a1


def one_state(position, velocity, t=0.0):
    """kinematics._states on a batch of one: position and velocity (3,), epoch t."""
    return _states(np.array([position], dtype=float), np.array([velocity], dtype=float),
                   np.array([t]))


class TestStateVector:
    """The one check of every states batch: the radius floor, then the speed ceiling."""

    def test_below_earth_rejected(self):
        with pytest.raises(BadAltitude):
            one_state([1.0e6, 0, 0], [0, 0, 0])
        with pytest.raises(BadAltitude, match=r"= 1\.3710e\+06 m .* at epoch \[0\] \(t = 0 s\)$"):
            GroundStation(0.0, 0.0, -5.0e6)

    def test_overspeed_rejected(self):
        with pytest.raises(ValueError):
            one_state([7.0e6, 0, 0], [2.0e4, 0, 0])

    @pytest.mark.parametrize("position, velocity, error", [
        ([math.nan, 0.0, 0.0], [0.0, 0.0, 0.0], BadAltitude),
        ([7.0e6, 0.0, 0.0], [0.0, math.nan, 0.0], ValueError),
    ])
    def test_nan_rejected(self, position, velocity, error):
        with pytest.raises(error, match=r"= nan m.* at epoch \[0\] \(t = 0 s\)$"):
            one_state(position, velocity)

    def test_arrays_coerced(self):
        trajectories = (CircularOrbit(7.0e6, 0.4), GroundStation(0.3, 0.2, 100.0),
                        EphemerisTrajectory(circular_orbit_table()))
        for trajectory, t in itertools.product(trajectories, (0, 60.0, [0, 60, 120],
                                                              np.array([30.0, 90.0]))):
            states = trajectory.states(t)
            assert type(states) is tuple and len(states) == 2
            for array in states:
                assert isinstance(array, np.ndarray)
                assert array.dtype == np.float64 and array.shape == (np.size(t), 3)


class TestCircularOrbit:
    def test_construction_axes(self):
        position, velocity = CircularOrbit(7.0e6, 0.0, 0.0, 0.0).states(0.0)
        np.testing.assert_allclose(position, [[7.0e6, 0.0, 0.0]], atol=1e-9)
        assert velocity[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert velocity[0, 1] > 0.0
        assert velocity[0, 2] == pytest.approx(0.0, abs=1e-9)

    def test_altitude_bounds(self):
        with pytest.raises(BadAltitude):
            CircularOrbit(1.0e6, 0.0, 0.0, 0.0).states(0.0)
        with pytest.raises(BadAltitude):
            CircularOrbit(6.0e7, 0.0, 0.0, 0.0).states(0.0)

    def test_energy_like_invariant(self):
        # vis-viva for a circular orbit: v^2 a / GM = 1
        orbit = CircularOrbit(6.9e6, inclination=1.1, raan=0.4, phase=2.2)
        _, velocity = orbit.states(np.linspace(0.0, 6000.0, 17))
        v2 = np.einsum("ij,ij->i", velocity, velocity)
        assert np.max(np.abs(v2 * orbit.semi_major_axis / GM_EARTH - 1.0)) < 1e-12

    def test_radius_constant(self):
        orbit = CircularOrbit(7.1e6, inclination=0.7)
        positions, _ = orbit.states([0.0, 800.0, 3000.0])
        assert np.linalg.norm(positions, axis=1) == pytest.approx(7.1e6, rel=1e-12)

    @pytest.mark.parametrize("angles", [(0.0, 0.0, 0.0), (1.1, 0.4, 2.2), (3.0, -2.5, 1.0e3)])
    def test_states_are_the_rotated_plane_vectors_bit_for_bit(self, angles):
        # states takes cos and sin once; each half is the plane vector it stands for
        orbit = CircularOrbit(6.9e6, *angles)
        t = np.concatenate([np.linspace(-9.0e4, 9.0e4, 301), [0.0, -0.0, 1.0e9]])
        u = orbit.phase + orbit._mean_motion * t
        a, speed = orbit.semi_major_axis, orbit.semi_major_axis * orbit._mean_motion
        rotation, zero = orbit._plane_to_inertial, np.zeros_like(u)
        position = np.stack([a * np.cos(u), a * np.sin(u), zero], axis=-1) @ rotation
        velocity = np.stack([-(speed * np.sin(u)), speed * np.cos(u), zero], axis=-1) @ rotation
        states = orbit.states(t)
        for got, want in zip((*states, orbit.positions(t)), (position, velocity, position)):
            assert got.tobytes() == want.tobytes()


class TestGroundStation:
    def test_equatorial_speed(self):
        _, velocity = GroundStation(0.0, 0.0, 0.0).states(0.0)
        speed = float(np.linalg.norm(velocity))
        assert abs(speed - OMEGA_EARTH * R_EARTH) < 0.1
        assert speed == pytest.approx(464.5807, abs=1e-3)

    def test_pole_is_stationary(self):
        _, velocity = GroundStation(math.pi / 2, 0.0, 0.0).states(123.0)
        assert float(np.linalg.norm(velocity)) == pytest.approx(0.0, abs=1e-9)
        acc = station_acceleration(GroundStation(math.pi / 2, 0.0, 0.0), 123.0)
        assert float(np.linalg.norm(acc)) == pytest.approx(0.0, abs=1e-12)

    def test_equatorial_centripetal_acceleration(self):
        acc = station_acceleration(GroundStation(0.0, 0.0, 0.0), 0.0)
        mag = float(np.linalg.norm(acc))
        assert mag == pytest.approx(OMEGA_EARTH**2 * R_EARTH, rel=0.01)
        assert mag == pytest.approx(3.387776e-2, rel=1e-5)
        # centripetal: anti-parallel to position
        pos, _ = GroundStation(0.0, 0.0, 0.0).states(0.0)
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
        # phase_pair's round trip assumes
        u = newtonian_potential(GroundStation(lat, lon, alt).states(np.linspace(0.0, 86400.0, 97))
                                [0])
        np.testing.assert_allclose(u, u[0], rtol=1e-15, atol=0.0)

    def test_rotation_carries_station(self):
        gs = GroundStation(0.3, 1.1, 200.0)
        quarter_day = 0.5 * math.pi / OMEGA_EARTH
        p0, p1 = gs.states([0.0, quarter_day])[0]
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

    def positions(self, t):
        return self.p0 + self.v * np.atleast_1d(np.asarray(t, dtype=float))[:, None]

    def states(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _states(self.positions(t), np.broadcast_to(self.v, (len(t), 3)), t)


class _RunawayPlatform:
    """Position recedes near light speed; defeats the fixed-point iteration."""

    def positions(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([6.5e6 + 0.99 * C_LIGHT * t, 0.0 * t, 0.0 * t], axis=-1)

    def states(self, t):
        t = np.asarray(t, dtype=float)
        return _states(self.positions(t), np.zeros((len(t), 3)), t)


class _ScriptedPlatform:
    """Positions from a function of the epochs, zero velocities; records the size of each
    batch of epochs its positions are asked for (states build on positions)."""

    def __init__(self, position):
        self.position = position
        self.batch_sizes = []

    def positions(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self.batch_sizes.append(len(t))
        return self.position(t)

    def states(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _states(self.positions(t), np.zeros((len(t), 3)), t)


class TestLightTime:
    def test_static_range(self):
        receiver = StaticPlatform([7.4e6, 0.0, 0.0])
        t_flight, n_hat = solve_light_time(0.0, np.array([[7.0e6, 0.0, 0.0]]), receiver)
        assert abs(t_flight - 4.0e5 / C_LIGHT) < 1e-9
        assert t_flight == pytest.approx(1.3342564e-3, rel=1e-6)
        np.testing.assert_allclose(n_hat, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_coincident_raises(self):
        receiver = StaticPlatform([7.0e6, 0.0, 0.0])
        with pytest.raises(DegenerateGeometry):
            solve_light_time(0.0, np.array([[7.0e6, 0.0, 0.0]]), receiver)

    def test_receding_receiver_against_grid_search(self):
        # brute-force oracle: bisect f(T) = |r_recv(t+T) - r_emit| - cT
        r_emit = np.array([[7.0e6, 0.0, 0.0]])
        receiver = _LinearPlatform([7.4e6, 0.0, 0.0], [7.0e3, 0.0, 0.0])

        def miss(t_flight):
            sep = receiver.states(t_flight)[0] - r_emit
            return float(np.linalg.norm(sep)) - C_LIGHT * t_flight

        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if miss(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        t_oracle = 0.5 * (lo + hi)

        t_flight, _ = solve_light_time(0.0, r_emit, receiver)
        t_static = 4.0e5 / C_LIGHT
        excess = t_flight - t_static
        assert excess == pytest.approx(t_static * 7.0e3 / C_LIGHT, rel=0.01)
        assert excess == pytest.approx(t_oracle - t_static, rel=0.01)
        assert abs(t_flight - t_oracle) < 1e-12

    def test_range_consistency(self):
        # recomputing the range at the converged epoch reproduces cT
        gs = GroundStation(0.0, 0.0)
        orbit = CircularOrbit(6.778e6, inclination=0.9)
        r_emit, _ = gs.states(100.0)
        t_flight, _ = solve_light_time(100.0, r_emit, orbit)
        sep = orbit.states(100.0 + t_flight)[0] - r_emit
        assert abs(float(np.linalg.norm(sep)) - C_LIGHT * t_flight) < 1e-3

    def test_emission_epoch_is_read_from_the_state(self):
        # one station position, emitted at t = 0 or t = 300 s: the emission epoch
        # sets when the light leaves, so it meets the orbit elsewhere
        orbit = CircularOrbit(6.771e6)
        r_now, _ = GroundStation(0.0, 0.0).states(0.0)
        t_now, _ = solve_light_time(0.0, r_now, orbit)
        t_later, _ = solve_light_time(300.0, r_now, orbit)
        assert t_now == pytest.approx(1.334e-3, rel=1e-3)
        assert t_later == pytest.approx(7.531e-3, rel=1e-3)

    def test_direction_reverses_on_swap(self):
        a = StaticPlatform([7.0e6, 1.0e5, 0.0])
        b = StaticPlatform([7.3e6, -2.0e5, 4.0e5])
        _, n_ab = solve_light_time(0.0, a.states(0.0)[0], b)
        _, n_ba = solve_light_time(0.0, b.states(0.0)[0], a)
        np.testing.assert_allclose(n_ab, -n_ba, atol=1e-12)

    def test_runaway_receiver_no_convergence(self):
        with pytest.raises(NoConvergence):
            solve_light_time(0.0, np.array([[6.4e6, 0.0, 0.0]]), _RunawayPlatform())

    # Epoch 0 (t = 0 s) starts 1e-5 m from the receiver, so its first update, 3e-14 s, is
    # below the tolerance and it settles on the first iteration. Epoch 1 (t = 1 s) goes on
    # alone, so the second iteration runs on a gathered subset of the epochs.
    _EMITTED = np.array([0.0, 1.0]), np.array([[7.0e6, 0.0, 0.0], [7.4e6, 0.0, 0.0]])

    def test_coincidence_after_a_partial_settle_names_the_original_epoch(self):
        # the receiver waits 4e5 m from epoch 1's emitter until t = 1 s, then sits on it
        stops = np.array([[7.0e6 + 1e-5, 0.0, 0.0], [7.0e6, 0.0, 0.0], [7.4e6, 0.0, 0.0]])
        receiver = _ScriptedPlatform(lambda t: stops[np.searchsorted([0.5, 1.0], t)])
        with pytest.raises(DegenerateGeometry) as raised:
            solve_light_time(*self._EMITTED, receiver)
        assert str(raised.value) == ("emitter and receiver separated by 0.000e+00 m; direction "
                                     "undefined at epoch [1] (t = 1 s)")
        assert receiver.batch_sizes == [2, 1]

    def test_epochs_settling_on_different_iterations_match_their_own_solves(self):
        # epoch 0 settles on iteration 1, epoch 1 (a static receiver 4e5 m off) on 2, and
        # epoch 2 (a moving one) later: the results are the bits of three batches of one
        def position(t):
            moving = np.stack([7.0e6 - 7.0e3 * (t - 2.0), 1.0e5 + 0.0 * t, 0.0 * t], axis=-1)
            return np.where((t < 0.5)[:, None], [7.0e6 + 1e-5, 0.0, 0.0],
                            np.where((t < 1.5)[:, None], [7.0e6, 0.0, 0.0], moving))

        t_emit = np.array([0.0, 1.0, 2.0])
        r_emit = np.array([[7.0e6, 0.0, 0.0], [7.4e6, 0.0, 0.0], [7.4e6, 0.0, 0.0]])
        receiver = _ScriptedPlatform(position)
        t_flight, n_hat = solve_light_time(t_emit, r_emit, receiver)
        assert receiver.batch_sizes[:3] == [3, 2, 1]
        for k in range(3):
            t_one, n_one = solve_light_time(t_emit[k], r_emit[k:k + 1], _ScriptedPlatform(position))
            assert t_flight[k] == t_one[0]
            np.testing.assert_array_equal(n_hat[k], n_one[0])

    def test_runaway_after_a_partial_settle_names_the_original_epoch(self):
        # past t = 0.5 s the receiver recedes from epoch 1's emitter as _RunawayPlatform does
        def position(t):
            x = np.where(t < 0.5, 7.0e6 + 1e-5, 7.5e6 + 0.99 * C_LIGHT * (t - 1.0))
            return np.stack([x, 0.0 * t, 0.0 * t], axis=-1)

        receiver = _ScriptedPlatform(position)
        with pytest.raises(NoConvergence, match=r"in 50 steps at epoch \[1\] \(t = 1 s\)$"):
            solve_light_time(*self._EMITTED, receiver)
        assert receiver.batch_sizes == [2] + [1] * 49


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
        radius = np.linalg.norm(orbit.states(t + geom.t_up)[0], axis=-1)
        np.testing.assert_allclose(GM_EARTH / (C_LIGHT**2 * geom.U2), radius, rtol=2e-15)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lat=st.floats(-math.pi / 2, math.pi / 2), lon=st.floats(-math.pi, math.pi),
           alt=st.floats(0.0, 3.0e3),
           epochs=st.lists(st.floats(-4.0e4, 4.0e4), min_size=1, max_size=6))
    def test_station_acceleration_is_centripetal(self, lat, lon, alt, epochs):
        """a1 = omega x v1 of a co-rotating station is -omega^2 (x, y, 0)."""
        station = GroundStation(lat, lon, alt)
        x, y, _ = station.states(epochs)[0].T
        expected = -OMEGA_EARTH**2 * np.stack([x, y, np.zeros_like(x)], axis=-1)
        np.testing.assert_allclose(station_acceleration(station, epochs), expected,
                                   rtol=1e-15, atol=1e-30)


_FLOOR_NAN = r"^\|position\| = nan m is below 6\.3e\+06 m at epoch \[0\] \(t = 0 s\)$"
_SWEEP = GroundStation(0.0, 0.0), CircularOrbit(6.771e6)


@pytest.mark.parametrize("build, error, message", [
    (lambda: CircularOrbit(6.9e6, inclination=math.inf), ValueError,
     r"^orbit angle not finite: inclination=inf, raan=0\.0, phase=0\.0$"),
    (lambda: CircularOrbit(6.9e6, raan=-math.inf), ValueError, r": .* raan=-inf, phase=0\.0$"),
    (lambda: CircularOrbit(6.9e6, phase=math.nan), ValueError, r": .* phase=nan$"),
    (lambda: GroundStation(0.3, 0.2, math.inf), BadAltitude, _FLOOR_NAN),
    (lambda: GroundStation(0.0, 0.0, -math.inf), BadAltitude, _FLOOR_NAN),
    (lambda: build_pass(*_SWEEP, math.inf, 60.0, 3), ValueError,
     r"^sweep bound t_start = inf s must be finite$"),
    (lambda: build_pass(*_SWEEP, 0.0, math.inf, 3), ValueError,
     r"^sweep bound t_end = inf s must be finite$"),
    (lambda: build_pass(*_SWEEP, -math.inf, math.inf, 0), ValueError, r"^n_epochs must be >= 1$"),
], ids=["inclination", "raan", "phase", "alt_inf", "alt_minus_inf", "t_start", "t_end",
        "n_epochs_first"])
def test_non_finite_orbit_station_and_sweep_arguments_raise(build, error, message):
    """Each raises its own error, where numpy once warned on the way to a NaN (the tests
    turn warnings into errors)."""
    with pytest.raises(error, match=message):
        build()


def test_earth_rotation_vector():
    np.testing.assert_array_equal(EARTH_ROTATION, [0.0, 0.0, OMEGA_EARTH])
    with pytest.raises(ValueError, match="read-only"):
        EARTH_ROTATION[2] = 0.0


def test_rotation_z_orthonormal():
    r = rotate_z(0.7, np.eye(3)).T  # columns: the rotated basis vectors
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-15)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-15)


# Values whose rounding, signs and specials the kernels must reproduce: signed zeros,
# subnormals, infinities, nan and normal magnitudes from 1e-300 to 1e300.
_BIT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.builds(lambda sign, mantissa, power: sign * mantissa * 10.0**power,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0, exclude_max=True),
              st.integers(-300, 299)),
)


def _vectors(n):
    return hnp.arrays(np.float64, (3,) if n is None else (n, 3), elements=_BIT_VALUES)


_ONE_ROW_OR_MANY = st.one_of(st.none(), st.integers(1, 8))
_VECTORS = _ONE_ROW_OR_MANY.flatmap(_vectors)
# (3,), (N, 3) or a (3,) x (N, 3) broadcast, in either order
_PAIRS = st.integers(1, 8).flatmap(
    lambda n: st.sampled_from([(None, None), (n, n), (None, n), (n, None)])).flatmap(
    lambda rows: st.tuples(_vectors(rows[0]), _vectors(rows[1])))
# every ordered triple of these, against 4000 random pairings of the triples
_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-308, 1e-300, -3.7e-150,
             1.0, -0.7, 6.4e6, -1.9e154, 1e300, -np.finfo(float).max]


def assert_same_bits(got, want):
    """Equal shapes, and every entry the same float64 bits, or nan where want is nan."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


class TestKernelBits:
    """_norm, _cross and rotate_z give numpy's own bits: same operations, same order."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(vectors=_VECTORS)
    def test_norm_equals_linalg_norm(self, vectors):
        with np.errstate(all="ignore"):
            want = np.asarray(np.linalg.norm(vectors, axis=-1))
            assert_same_bits(np.asarray(_norm(vectors)), want)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pair=_PAIRS)
    def test_cross_equals_np_cross(self, pair):
        with np.errstate(all="ignore"):
            assert_same_bits(_cross(*pair), np.cross(*pair))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pair=_PAIRS)
    def test_rotate_z_equals_the_stacked_form(self, pair):
        # each x component is an angle: one angle, or one per row
        angle = pair[0][..., 0]
        with np.errstate(all="ignore"):
            assert_same_bits(rotate_z(angle, pair[1]), rotate_z_oracle(angle, pair[1]))

    def test_every_triple_of_special_values(self):
        rows = np.array(list(itertools.product(_SPECIALS, repeat=3)))
        rng = np.random.default_rng(22)
        a, b = rows[rng.integers(0, len(rows), (2, 4000))]
        with np.errstate(all="ignore"):
            assert_same_bits(_norm(rows), np.linalg.norm(rows, axis=-1))
            assert_same_bits(_cross(a, b), np.cross(a, b))
            assert_same_bits(rotate_z(a[:, 0], b), rotate_z_oracle(a[:, 0], b))
            assert_same_bits(rotate_z(0.3, rows), rotate_z_oracle(0.3, rows))


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
        scale, alpha = phase_scale(800e-9, 6.0e3 / C_LIGHT), 1e-4
        epochs = np.linspace(t_start, t_start + span, n)
        batch = phase_pair(build_link_geometry(gs, sc, epochs), scale, alpha).s_signal
        rows = [phase_pair(build_link_geometry(gs, sc, [t]), scale, alpha).s_signal
                for t in epochs]
        assert batch.shape == (n,)
        assert np.max(np.abs(batch - np.concatenate(rows))) <= 1e-8

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        lat=st.floats(-1.4, 1.4), lon=st.floats(-math.pi, math.pi), alt=st.floats(0.0, 3.0e3),
        a=st.floats(6.6e6, 8.0e6), inc=st.floats(0.0, math.pi), raan=st.floats(0.0, 6.3),
        phase=st.floats(0.0, 6.3), t_start=st.floats(-600.0, 600.0),
        span=st.floats(1.0, 900.0), n=st.integers(1, 24), delta=st.floats(-math.pi, math.pi),
    )
    def test_rotation_about_the_earth_axis_leaves_the_phases(self, lat, lon, alt, a, inc, raan,
                                                             phase, t_start, span, n, delta):
        """Station longitude and orbit node turned by the same delta give the same phases.

        The Earth and its rotation are symmetric about +z. Over this domain the phases
        (~1e6 rad) moved by at most 7.2e-9 rad, and s by 5e-10 rad, from rounding alone."""
        scale, alpha = phase_scale(800e-9, 6.0e3 / C_LIGHT), 1e-4
        epochs = np.linspace(t_start, t_start + span, n)
        pairs = [phase_pair(build_link_geometry(GroundStation(lat, lon + turn, alt),
                                                CircularOrbit(a, inc, raan + turn, phase),
                                                epochs), scale, alpha)
                 for turn in (0.0, delta)]
        assert np.max(np.abs(pairs[1].phi_sc - pairs[0].phi_sc)) <= 1e-7
        assert np.max(np.abs(pairs[1].phi_gs - pairs[0].phi_gs)) <= 1e-7
        assert np.max(np.abs(pairs[1].s_signal - pairs[0].s_signal)) <= 1e-8

    def test_bad_epoch_in_a_state_batch_is_named(self):
        pos = np.array([[7.0e6, 0.0, 0.0], [1.0e6, 0.0, 0.0], [7.0e6, 0.0, 0.0]])
        with pytest.raises(BadAltitude, match=r" at epoch \[1\] \(t = 5 s\)$"):
            _states(pos, np.zeros((3, 3)), np.array([0.0, 5.0, 9.0]))

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
        r_emit = np.array([[7.0e6, 0.0, 0.0], [7.4e6, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometry, match=r" at epoch \[1\] \(t = 1 s\)$"):
            solve_light_time(np.array([0.0, 1.0]), r_emit, StaticPlatform([7.4e6, 0.0, 0.0]))

    @pytest.mark.parametrize("t_emit", [np.array([0.0, 5.0]), 5.0], ids=["batch", "one_epoch"])
    def test_emitter_below_the_floor_is_named(self, t_emit):
        # positions no states call has checked: solve_light_time holds them to the floor,
        # and a float epoch stands for every row
        r_emit = np.array([[7.0e6, 0.0, 0.0], [6.0e6, 0.0, 0.0]])
        receiver = _ScriptedPlatform(lambda t: np.tile([7.4e6, 0.0, 0.0], (len(t), 1)))
        with pytest.raises(BadAltitude) as raised:
            solve_light_time(t_emit, r_emit, receiver)
        assert str(raised.value) == ("|position| = 6.0000e+06 m is below 6.3e+06 m"
                                     " at epoch [1] (t = 5 s)")
        assert receiver.batch_sizes == []


def assert_same_geometry(got, want):
    for name in ("beta1", "beta2", "beta3", "n12", "n23", "U1", "U2", "a1", "t_up",
                 "d1", "d2", "d3"):
        assert_same_bits(getattr(got, name), getattr(want, name))


def oracle_geometry(gs, sc, t_emit):
    """build_link_geometry with the light time solved on full receiver states."""
    with mock.patch("gravlink.kinematics.solve_light_time", solve_light_time_oracle):
        return build_link_geometry(gs, sc, t_emit)


def raised(call):
    """The exception call raises (type and message), for comparing two paths."""
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


class TestPositionsPath:
    """The light-time loop reads receiver positions only: the bits, the checks and the
    epoch naming of a loop on full states, but velocities only where the link uses them."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), table=ephemeris_tables(),
           lat=st.floats(-math.pi / 2, math.pi / 2), lon=st.floats(-math.pi, math.pi),
           alt=st.floats(0.0, 3.0e3), a=st.floats(6.6e6, 4.2e7), inc=st.floats(0.0, math.pi),
           raan=st.floats(0.0, 6.3), phase=st.floats(0.0, 6.3),
           times=st.lists(st.floats(-1.0e5, 1.0e5), min_size=1, max_size=8))
    def test_positions_are_the_states_positions(self, data, table, lat, lon, alt, a, inc,
                                                 raan, phase, times):
        ephemeris = EphemerisTrajectory(table)
        for trajectory, t in ((ephemeris, data.draw(table_epochs(table))),
                              (CircularOrbit(a, inc, raan, phase), times),
                              (GroundStation(lat, lon, alt), times)):
            assert_same_bits(trajectory.positions(t), trajectory.states(t)[0])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["circular", "ephemeris"]),
           lat=st.floats(-1.4, 1.4), lon=st.floats(-math.pi, math.pi), alt=st.floats(0.0, 3.0e3),
           a=st.floats(6.6e6, 8.0e6), inc=st.floats(0.0, math.pi), raan=st.floats(0.0, 6.3),
           phase=st.floats(0.0, 6.3), t_start=st.floats(300.0, 1500.0),
           span=st.floats(0.0, 800.0), n=st.integers(1, 30))
    def test_matches_the_states_loop(self, kind, lat, lon, alt, a, inc, raan, phase,
                                     t_start, span, n):
        gs = GroundStation(lat, lon, alt)
        sc = (CircularOrbit(a, inc, raan, phase) if kind == "circular"
              else EphemerisTrajectory(circular_orbit_table(a=a, inc=inc)))
        epochs, geometry = build_pass(gs, sc, t_start, t_start + span, n)
        assert_same_geometry(geometry, oracle_geometry(gs, sc, epochs))
        t_down = epochs + geometry.t_up
        up, down = (epochs, gs.states(epochs)[0]), (t_down, sc.states(t_down)[0])
        for (t_emit, r_emit), receiver in ((up, sc), (down, gs)):
            for got, expected in zip(solve_light_time(t_emit, r_emit, receiver),
                                     solve_light_time_oracle(t_emit, r_emit, receiver)):
                assert_same_bits(got, expected)

    def test_day_long_table_matches_the_states_loop(self):
        # 1440 records at 60 s, as a day-long CPF, with 400 epochs across the day
        table = orbit_table(60.0 * np.arange(1440), lambda t: 1.1e-3 * t, inc=0.9)
        gs, sc = GroundStation(0.6, -1.2, 150.0), EphemerisTrajectory(table)
        epochs, geometry = build_pass(gs, sc, 300.0, 86000.0, 400)
        assert_same_geometry(geometry, oracle_geometry(gs, sc, epochs))

    def test_overspeed_is_named_at_the_reception_state(self):
        # 7 km/s up to t = 1200 s, then 17.5 km/s: the loop on states named the first
        # fast epoch at emission, from the first guess; s2 now names it at reception
        epochs = 60.0 * np.arange(41)
        table = orbit_table(epochs, lambda t: 1e-3 * t + 1.5e-3 * np.maximum(t - 1200.0, 0.0))
        gs, sc = GroundStation(0.0, 0.0), EphemerisTrajectory(table)
        t_emit = np.array([300.0, 600.0, 1800.0, 2000.0])
        error, message = raised(lambda: build_link_geometry(gs, sc, t_emit))
        old_error, old_message = raised(lambda: oracle_geometry(gs, sc, t_emit))
        t_up, _ = solve_light_time(t_emit, gs.states(t_emit)[0], sc)
        assert error is old_error is ValueError
        assert old_message.endswith(" m/s exceeds 1.1e+04 m/s at epoch [2] (t = 1800 s)")
        assert message.startswith("|velocity| = ")
        assert message.endswith(f" m/s exceeds 1.1e+04 m/s at epoch [2] "
                                f"(t = {t_emit[2] + t_up[2]:.6g} s)")
        assert f"{t_emit[2] + t_up[2]:.6g}" != "1800"  # the light time shows in the name

    def test_receiver_below_the_floor_is_named_as_before(self):
        # an ephemeris that dips to 6.2e6 m between t = 600 s and 900 s, built without the
        # parser's position window
        epochs = 60.0 * np.arange(41)
        table = orbit_table(epochs, lambda t: 1.1e-3 * t)
        dip = table.records.copy()
        dip["position"][10:16] *= 6.2 / 7.0
        sc, gs = EphemerisTrajectory(EphemerisTable(dip)), GroundStation(0.3, 0.2)
        t_emit = np.array([100.0, 300.0, 700.0, 800.0])
        new, old = (raised(lambda: build_link_geometry(gs, sc, t_emit)),
                    raised(lambda: oracle_geometry(gs, sc, t_emit)))
        assert new == old
        assert new[0] is BadAltitude and new[1].endswith(" at epoch [2] (t = 700 s)")

    def test_receiver_below_the_floor_after_a_partial_settle(self):
        # epoch 0 settles on the first iteration; epoch 1's receiver is below the floor
        # once t > 1 s, so the second, gathered iteration names it in a batch of one
        def position(t):
            x = np.where(t < 0.5, 7.0e6 + 1e-5, np.where(t <= 1.0, 7.4e6, 6.0e6))
            return np.stack([x, 0.0 * t, 0.0 * t], axis=-1)

        t_emit, r_emit = np.array([0.0, 1.0]), np.array([[7.0e6, 0.0, 0.0], [7.0e6, 0.0, 0.0]])
        receiver = _ScriptedPlatform(position)
        new = raised(lambda: solve_light_time(t_emit, r_emit, receiver))
        assert new == raised(lambda: solve_light_time_oracle(t_emit, r_emit,
                                                             _ScriptedPlatform(position)))
        assert new == (BadAltitude, "|position| = 6.0000e+06 m is below 6.3e+06 m at epoch [0] "
                                    f"(t = {1.0 + 4.0e5 / C_LIGHT:.6g} s)")
        assert receiver.batch_sizes == [2, 1]

    @pytest.mark.parametrize("t_emit, named", [
        ([100.0, 2500.0, 3000.0], r"t = 2500\.000 s outside .* at epoch \[1\]$"),
        # inside the span on the first guess, past its end at t_emit + T
        ([100.0, 2400.0 - 1e-4], r"t = 2400\.0\d\d s outside .* at epoch \[1\]$"),
    ], ids=["past_the_span", "leaves_it_in_flight"])
    def test_out_of_span_epoch_is_named_as_before(self, t_emit, named):
        sc = EphemerisTrajectory(orbit_table(60.0 * np.arange(41), lambda t: 1.1e-3 * t))
        r_emit, _ = GroundStation(0.3, 0.2).states(t_emit)
        new = raised(lambda: solve_light_time(t_emit, r_emit, sc))
        assert new == raised(lambda: solve_light_time_oracle(t_emit, r_emit, sc))
        assert new[0] is OutOfRange and re.search(named, new[1])


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(lat=st.floats(-1.4, 1.4), lon=st.floats(-math.pi, math.pi), alt=st.floats(0.0, 3.0e3),
       a=st.floats(6.6e6, 8.0e6), inc=st.floats(0.0, math.pi), raan=st.floats(0.0, 6.3),
       phase=st.floats(0.0, 6.3))
def test_pass_over_a_sampled_cpf_is_the_analytic_pass(lat, lon, alt, a, inc, raan, phase):
    """A day-long CPF sampled from a circular orbit (1440 records at 60 s, rotated into the
    Earth-fixed frame and written with serialize_cpf) gives that orbit's pass within the
    interpolator's stated error at 60 s spacing: below dr = 1 cm and dv = 1e-3 m/s."""
    orbit, gs = CircularOrbit(a, inc, raan, phase), GroundStation(lat, lon, alt)
    t = 60.0 * np.arange(1440)
    records = [EphemerisRecord(61267, float(sod), tuple(map(float, r)))
               for sod, r in zip(t, rotate_z(-OMEGA_EARTH * t, orbit.positions(t)))]
    text = serialize_cpf(EphemerisTable(records=records, source="H1 CPF 2 TST 2026 8 15 1 day"))
    _, got = build_pass(gs, EphemerisTrajectory(parse_cpf(text)), 0.0, 86000.0, 1500)
    _, want = build_pass(gs, orbit, 0.0, 86000.0, 1500)
    dr, dv = 0.01, 1e-3
    # a light time off by dr / c, and each solve settled within its tolerance, moves a
    # reception epoch by dt; the spacecraft there by dr + speed * dt
    dt = dr / C_LIGHT + 2.0 * _LIGHT_TIME_TOL
    dr_sc = dr + math.sqrt(GM_EARTH / a) * dt
    rounding = 8.0 * np.finfo(float).eps

    def assert_within(name, bound):
        got_value, want_value = getattr(got, name), getattr(want, name)
        bound = np.reshape(bound, np.shape(bound) + (1,) * (want_value.ndim - np.ndim(bound)))
        assert np.all(np.abs(got_value - want_value) <= bound + rounding * np.abs(want_value)), name

    for name in ("beta1", "U1", "a1"):  # the station at emission: no interpolated epoch
        assert_same_bits(getattr(got, name), getattr(want, name))
    assert_within("t_up", dt)
    assert_within("beta2", (dv + GM_EARTH / a**2 * dt) / C_LIGHT)
    assert_within("U2", want.U2 * dr_sc / a)        # U = GM / (c^2 r)
    for name in ("n12", "n23"):                      # a unit vector over range c * t_up
        assert_within(name, 2.0 * dr_sc / (C_LIGHT * want.t_up))
    # the station at the final reception, moved by at most 2 dt at acceleration w^2 r
    assert_within("beta3", OMEGA_EARTH**2 * (R_EARTH + alt) * 2.0 * dt / C_LIGHT)
