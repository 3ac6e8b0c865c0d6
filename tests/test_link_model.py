"""Frequency ratios, fringe phases, and the Doppler-cancelling combination."""

import math

import mpmath
import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gravlink.constants import C_LIGHT, R_EARTH
from gravlink.kinematics import (
    CircularOrbit,
    GroundStation,
    LinkGeometry,
    _dot,
    build_link_geometry,
)
from gravlink.config import load_config
from gravlink.link_model import (
    expanded_signal,
    gravitational_phase,
    phase_pair,
    phase_scale,
)

U_SURFACE = 6.961274586591855e-10
DELTA_U_400KM = 4.1124056042486224e-11

SCALE = phase_scale(800e-9, 2.0014e-5)


def make_geometry(
    beta1=(0.0, 0.0, 0.0),
    beta2=(0.0, 0.0, 0.0),
    beta3=(0.0, 0.0, 0.0),
    n12=(1.0, 0.0, 0.0),
    n23=(-1.0, 0.0, 0.0),
    u1=U_SURFACE,
    u2=U_SURFACE,
    a1=(0.0, 0.0, 0.0),
    t_up=1.4e-3,
):
    """One-epoch geometry from 3-vectors and floats: a LinkGeometry batch of one."""
    return LinkGeometry(
        beta1=beta1, beta2=beta2, beta3=beta3, n12=n12, n23=n23,
        U1=u1, U2=u2, a1=a1, t_up=t_up,
    )


def uplink(geom, alpha=0.0):
    """(uplink frequency ratio) - 1: phase_pair's phi_sc at scale 1, which is exact."""
    return phase_pair(geom, 1.0, alpha).phi_sc


def roundtrip(geom):
    """(round-trip frequency ratio) - 1: phase_pair's phi_gs at scale 1."""
    return phase_pair(geom, 1.0).phi_gs


def redshift(alpha, u1, u2):
    """expanded_signal's (1 + alpha)(U2 - U1) on a static geometry, whose velocity
    terms are exactly 0.0."""
    return expanded_signal(make_geometry(u1=u1, u2=u2), alpha)


def optical_section(tmp_path, monkeypatch, **optical):
    """cfg.optical of a minimal redshift-pass config, with these optical keys added."""
    monkeypatch.delenv("GRAVLINK_OUTPUT_DIR", raising=False)
    tree = {"mode": "redshift-pass", "orbit": {"semi_major_axis_m": 6.771e6},
            "station": {"latitude_deg": 0.0, "longitude_deg": 0.0},
            "optical": {"wavelength_m": 800e-9, "delay_length_m": 6.0e3, **optical},
            "sweep": {"t_start_s": -60.0, "t_end_s": 60.0, "n_epochs": 12}}
    path = tmp_path / "pass.yaml"
    path.write_text(yaml.safe_dump(tree), encoding="utf-8")
    return load_config(str(path)).optical


class TestOpticalConfig:
    """The optical section's numbers: phase_scale(lambda0, tau_l), and the tau_l
    that config derives when tau_l_s is absent."""

    def test_omega0_wavelength_identity(self):
        omega0 = phase_scale(800e-9, 1.0)  # tau_l = 1 s
        assert abs(omega0 * 800e-9 - 2.0 * math.pi * C_LIGHT) < 1e-9 * 2.0 * math.pi * C_LIGHT

    def test_tau_default_from_length(self, tmp_path, monkeypatch):
        optical = optical_section(tmp_path, monkeypatch, group_index=1.5)
        assert optical.tau_l == 6.0e3 * 1.5 / C_LIGHT

    def test_explicit_tau_wins(self, tmp_path, monkeypatch):
        optical = optical_section(tmp_path, monkeypatch, group_index=1.5, tau_l_s=2.0014e-5)
        assert optical.tau_l == 2.0014e-5
        assert phase_scale(optical.lambda0, optical.tau_l) == SCALE
        assert SCALE == pytest.approx(4.7124253085e10, rel=1e-9)
        # omega0 * tau_l, operation for operation, so every phase keeps its bits
        assert SCALE == 2.0 * math.pi * C_LIGHT / 800e-9 * 2.0014e-5

    def test_invalid_inputs(self):
        for lambda0, tau_l in ((-800e-9, 2.0e-5), (800e-9, -1.0), (800e-9, 0.0)):
            with pytest.raises(ValueError, match=r"omega0\*tau_l = -?\S+ must be positive"):
                phase_scale(lambda0, tau_l)

    @pytest.mark.parametrize("fields", [
        {"lambda0": 1.0e-300, "tau_l": 6.0e3 / C_LIGHT},                # omega0 overflows
        {"lambda0": 800e-9, "tau_l": 6.0e3 * 1.0e308 / C_LIGHT},        # tau_l overflows
        {"lambda0": 1.0e-200, "tau_l": 1.0e200},                        # their product
        {"lambda0": 0.0, "tau_l": 6.0e3 / C_LIGHT},                     # omega0 = 2 pi c / 0
    ])
    def test_phase_scale_must_be_finite(self, fields):
        with pytest.raises(ValueError, match=r"omega0\*tau_l = inf must be finite"):
            phase_scale(**fields)


class TestRedshiftParams:
    """alpha, the redshift section's violation strength, is checked wherever it enters."""

    def test_alpha_bound(self):
        geom = make_geometry(u2=U_SURFACE - DELTA_U_400KM)
        assert phase_pair(geom, SCALE, 0.99).phi_sc < 0.0
        for alpha in (1.0, -1.0, 1.5, math.nan):
            for reach in (lambda: phase_pair(geom, SCALE, alpha),
                          lambda: expanded_signal(geom, alpha),
                          lambda: gravitational_phase(SCALE, 9.80665, 4.0e5, alpha)):
                with pytest.raises(ValueError, match=r"\|alpha\| must be < 1"):
                    reach()


class TestGravitationalPhase:
    def test_textbook_magnitude(self):
        # SCALE gives tau_l = 2.0014e-5 s, a little above 6000 m / c
        phi = gravitational_phase(SCALE, 9.80665, 4.0e5)
        assert phi == pytest.approx(2.0567606, rel=1e-6)
        assert abs(phi - 2.06) / 2.06 < 0.05

    def test_scales_with_the_pass_phase_scale(self):
        vacuum = 6.0e3 / C_LIGHT
        phi = gravitational_phase(phase_scale(800e-9, vacuum), 9.80665, 4.0e5)
        assert phi == pytest.approx(2.0567447, rel=1e-6)
        glass = phase_scale(800e-9, 6.0e3 * 1.5 / C_LIGHT)
        assert gravitational_phase(glass, 9.80665, 4.0e5) == pytest.approx(1.5 * phi, rel=1e-15)
        explicit = phase_scale(800e-9, 2.0 * vacuum)
        assert gravitational_phase(explicit, 9.80665, 4.0e5) == pytest.approx(2.0 * phi, rel=1e-15)

    def test_zero_height(self):
        assert gravitational_phase(SCALE, 9.80665, 0.0) == 0.0

    def test_alpha_scaling(self):
        base = gravitational_phase(SCALE, 9.80665, 4.0e5, alpha=0.0)
        shifted = gravitational_phase(SCALE, 9.80665, 4.0e5, alpha=0.5)
        assert shifted == pytest.approx(1.5 * base, rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gravitational_phase(SCALE, 9.80665, -1.0)
        with pytest.raises(ValueError):
            gravitational_phase(SCALE, 0.0, 4.0e5)


class TestUplinkRatio:
    def test_identity_configuration(self):
        geom = make_geometry()
        assert uplink(geom) == 0.0

    def test_pure_gravitational_redshift(self):
        geom = make_geometry(u1=U_SURFACE, u2=U_SURFACE - DELTA_U_400KM)
        shift = uplink(geom)
        # received frequency lower at altitude: shift = (U2-U1)/(1-U2)
        assert abs(shift - (-DELTA_U_400KM)) < 1e-15
        oracle = (geom.U2 - geom.U1) / (1.0 - geom.U2)
        assert shift == pytest.approx(oracle, rel=1e-12)

    def test_first_order_doppler_dominates(self):
        geom = make_geometry(beta2=(2.5e-5, 0.0, 0.0))
        shift = uplink(geom)
        assert abs(shift - (-2.5e-5)) < 1e-9

    def test_alpha_injection(self):
        geom = make_geometry(u1=U_SURFACE, u2=U_SURFACE - DELTA_U_400KM)
        s0 = uplink(geom, alpha=0.0)
        s1 = uplink(geom, alpha=1e-5)
        assert s1 - s0 == pytest.approx(1e-5 * (geom.U2 - geom.U1), rel=1e-6)


class TestRoundtripRatio:
    def test_static_is_shift_free(self):
        geom = make_geometry(u1=U_SURFACE, u2=U_SURFACE - DELTA_U_400KM)
        assert roundtrip(geom) == 0.0

    def test_two_way_doppler(self):
        d2 = 2.0e-5
        geom = make_geometry(beta2=(d2, 0.0, 0.0))
        shift = roundtrip(geom)
        assert abs(shift - (-2.0 * d2)) <= 3.0 * d2**2

    def test_rigid_comotion_cancels_exactly(self):
        v = (1.1e-5, -0.7e-5, 0.5e-5)
        geom = make_geometry(beta1=v, beta2=v, beta3=v)
        assert roundtrip(geom) == 0.0

    def test_transverse_comoving_endpoints_cancel_exactly(self):
        # station velocity perpendicular to the line of sight
        v = (0.0, 2.0e-5, 0.0)
        geom = make_geometry(beta1=v, beta3=v)
        assert roundtrip(geom) == 0.0

    def test_comoving_endpoints_with_radial_component(self):
        # endpoint velocity along the line of sight does NOT cancel: the
        # round trip sees (1+d1)/(1-d1), a two-way shift of the endpoints
        v = (2.0e-5, 0.0, 0.0)
        geom = make_geometry(beta1=v, beta3=v)
        shift = roundtrip(geom)
        assert shift == pytest.approx(2.0e-5 * 2.0, rel=1e-4)


class TestPhasePair:
    def test_static_equal_potentials(self):
        pair = phase_pair(make_geometry(), SCALE)
        assert pair.phi_sc == 0.0
        assert pair.phi_gs == 0.0
        assert pair.s_signal == 0.0

    def test_static_gravitational_phase(self):
        geom = make_geometry(u1=U_SURFACE, u2=U_SURFACE - DELTA_U_400KM)
        pair = phase_pair(geom, SCALE)
        assert pair.phi_sc == pytest.approx(-1.9379404, rel=1e-6)
        assert abs(pair.phi_sc - (-1.94)) / 1.94 < 0.01
        assert pair.phi_gs == 0.0
        assert pair.s_signal == pair.phi_sc

    def test_combination_is_exact(self):
        gs = GroundStation(0.0, 0.0)
        sc = CircularOrbit(6.778e6)
        geom = build_link_geometry(gs, sc, 37.0)
        pair = phase_pair(geom, SCALE, 1e-4)
        assert pair.s_signal == pair.phi_sc - 0.5 * pair.phi_gs

    def test_factor_two_in_doppler_scenario(self):
        beta = 2.0e-5
        geom = make_geometry(beta2=(beta, 0.0, 0.0))
        pair = phase_pair(geom, SCALE)
        ratio = pair.phi_gs / pair.phi_sc
        assert abs(ratio - 2.0) < 2.0 * beta


class TestFactorTwoScaling:
    def test_residual_scales_with_velocity(self):
        beta_max = 2.0e-5

        def ratio_residual(s):
            geom = make_geometry(beta2=(s * beta_max, 0.0, 0.0))
            pair = phase_pair(geom, SCALE)
            return abs(pair.phi_gs / pair.phi_sc - 2.0)

        # headroom covers the O(beta^2) part of the s = 1 fit point
        k_const = 1.01 * ratio_residual(1.0) / beta_max
        for s in (1.0, 0.1, 0.01):
            assert ratio_residual(s) <= k_const * s * beta_max
        # halving the velocities halves the residual within 20%
        assert ratio_residual(0.5) / ratio_residual(1.0) == pytest.approx(0.5, rel=0.2)


class TestCancellation:
    def test_signal_insensitive_to_first_order_doppler(self):
        # rotate beta2 around the line of sight: d2 varies while |beta2|,
        # |beta1 - beta2| (beta1 = 0), and the potentials stay fixed
        beta = 2.0e-5

        def phases(psi):
            geom = make_geometry(
                beta2=(beta * math.cos(psi), beta * math.sin(psi), 0.0)
            )
            pair = phase_pair(geom, SCALE)
            return pair.s_signal / SCALE, pair.phi_sc / SCALE, geom.d2

        psi0, dpsi = math.pi / 3, 1e-4
        s_hi, sc_hi, d_hi = phases(psi0 + dpsi)
        s_lo, sc_lo, d_lo = phases(psi0 - dpsi)
        ds_dd = (s_hi - s_lo) / (d_hi - d_lo)
        dsc_dd = (sc_hi - sc_lo) / (d_hi - d_lo)
        assert abs(ds_dd) <= 10.0 * beta
        assert abs(abs(dsc_dd) - 1.0) <= 10.0 * beta


class TestExpandedSignal:
    def test_static_geometry_exact(self):
        geom = make_geometry(u1=U_SURFACE, u2=U_SURFACE - DELTA_U_400KM)
        assert expanded_signal(geom, 2e-4) == (1.0 + 2e-4) * (geom.U2 - geom.U1)

    def test_alpha_linearity(self):
        gs = GroundStation(0.0, 0.0)
        sc = CircularOrbit(6.778e6)
        geom = build_link_geometry(gs, sc, 55.0)
        diff = expanded_signal(geom, 1e-5) - expanded_signal(geom, 0.0)
        assert diff == pytest.approx(1e-5 * (geom.U2 - geom.U1), rel=1e-9)

    def test_matches_exact_pipeline_on_pass(self):
        gs = GroundStation(0.0, 0.0)
        sc = CircularOrbit(6.778e6, inclination=0.1)
        for t in np.linspace(-200.0, 200.0, 21):
            geom = build_link_geometry(gs, sc, float(t))
            beta_max = max(
                float(np.linalg.norm(geom.beta1)),
                float(np.linalg.norm(geom.beta2)),
                float(np.linalg.norm(geom.beta3)),
            )
            pair = phase_pair(geom, SCALE)
            resid = abs(pair.s_signal - SCALE * expanded_signal(geom))
            assert resid <= 10.0 * beta_max**3 * SCALE


class TestRedshiftFraction:
    def test_equal_potentials(self):
        assert redshift(0.3, 7e-10, 7e-10) == 0.0

    def test_leo_potential_difference(self):
        value = redshift(0.0, U_SURFACE, U_SURFACE - DELTA_U_400KM)
        assert value == pytest.approx(-4.1124056e-11, rel=1e-6)

    def test_one_plus_alpha_scaling(self):
        # the shift is exactly linear in (1 + alpha), so it tends to zero
        # toward the degenerate alpha = -1 endpoint that expanded_signal
        # itself rejects
        u1, u2 = U_SURFACE, U_SURFACE - DELTA_U_400KM
        base = redshift(0.0, u1, u2)
        for alpha in (-0.999999, -0.5, 0.5, 0.999999):
            assert redshift(alpha, u1, u2) == \
                pytest.approx((1.0 + alpha) * base, rel=1e-12)
        with pytest.raises(ValueError):
            redshift(-1.0, u1, u2)


def test_one_epoch_geometry_gives_one_value_per_function():
    geom = make_geometry(u2=U_SURFACE - DELTA_U_400KM)
    assert geom.beta1.shape == (1, 3) and geom.U2.shape == (1,) and len(geom) == 1
    pair = phase_pair(geom, SCALE)
    assert pair.phi_sc.shape == pair.phi_gs.shape == pair.s_signal.shape == (1,)
    assert uplink(geom).shape == (1,)




def exact_minus_one(geom, alpha):
    """Uplink and round-trip (ratio - 1, size) of every epoch from the unrearranged
    ratios, as mpf numbers; call it under mpmath.workdps(50). Each ratio is a product
    of two factors, and size is the largest |x - 1| of the ratio and its factors: where
    the factors' shifts cancel, ratio - 1 can be far smaller than the terms whose
    rounding bounds it. The squared speeds and the projection n23.beta2 enter as
    link_model forms them (kinematics._dot), as d1, d2 and d3 do, so the reference
    measures how ratio - 1 is evaluated, not how a dot product rounds."""
    m = mpmath.mpf

    def minus_one(*factors):
        ratio = factors[0] * factors[1]
        return ratio - 1, max(abs(f - 1) for f in (ratio, *factors))

    up, round_trip = [], []
    for k in range(len(geom)):
        u1, u2, d1, d2, d3 = (m(float(v[k])) for v in (geom.U1, geom.U2, geom.d1,
                                                         geom.d2, geom.d3))
        b1_sq, b2_sq, e2 = (m(float(_dot(a[k], b[k]))) for a, b in (
            (geom.beta1, geom.beta1), (geom.beta2, geom.beta2), (geom.n23, geom.beta2)))
        uplink_doppler = (1 - d2) / (1 - d1)
        dilation = (1 - u1 - b1_sq / 2 + m(alpha) * (u2 - u1)) / (1 - u2 - b2_sq / 2)
        up.append(minus_one(dilation, uplink_doppler))
        round_trip.append(minus_one(uplink_doppler, (1 - d3) / (1 - e2)))
    return up, round_trip


def assert_within_ulps(values, exact, ulps):
    """|value - x| <= ulps spacings of size at every epoch, exact holding (x, size)."""
    for k, (value, (ref, size)) in enumerate(zip(values, exact)):
        err = float(abs(mpmath.mpf(float(value)) - ref))
        unit = np.spacing(float(size))
        assert err <= ulps * unit, f"epoch {k}: {value!r} is {err / unit:.1f} ulp off {ref}"


def _vectors(norms):
    """3-vectors of a drawn length in a drawn direction."""
    return st.builds(lambda r, theta, phi: r * np.array([math.sin(theta) * math.cos(phi),
                                                          math.sin(theta) * math.sin(phi),
                                                          math.cos(theta)]),
                     norms, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


# up to LinkGeometry's limits: |beta| < 4e-5, |n| = 1 +- 1e-9, 0 < U < 1e-8
_BETA_NORMS = st.floats(0.0, 4.0e-5 * (1.0 - 1e-12))
_UNIT_NORMS = st.floats(1.0 - 9.9e-10, 1.0 + 9.9e-10)
_POTENTIALS = st.floats(0.0, 1.0e-8, exclude_min=True, exclude_max=True)


# three epochs of LEO-to-GEO links from a station up to 3 km high, as link(**drawn) builds them
_LINKS = dict(lat=st.floats(-1.5, 1.5), lon=st.floats(-math.pi, math.pi),
              alt=st.floats(0.0, 3000.0), radius=st.floats(R_EARTH + 3.0e5, 4.2164e7),
              inclination=st.floats(0.0, math.pi), raan=st.floats(0.0, 2.0 * math.pi),
              phase=st.floats(0.0, 2.0 * math.pi), t0=st.floats(-3000.0, 3000.0))


def link(lat, lon, alt, radius, inclination, raan, phase, t0):
    return build_link_geometry(GroundStation(lat, lon, alt),
                               CircularOrbit(radius, inclination, raan, phase),
                               t0 + np.array([0.0, 1.0, 60.0]))


class TestPinnedPrecision:
    """ratio - 1 on random LEO-to-GEO links against a 50-digit evaluation of the
    unrearranged ratios. The rearranged differences stay within about 2 ulp of the
    largest shift involved; a naive ratio - 1.0 is off by up to half an ulp of 1,
    1e4 or more of those ulp."""

    ULPS = 4

    @settings(max_examples=60, deadline=None)
    @given(**_LINKS, alpha=st.sampled_from([0.0, 3.0e-4, -0.5]))
    def test_ratio_minus_one_within_a_few_ulp(self, alpha, **drawn):
        geom = link(**drawn)
        pair = phase_pair(geom, SCALE, alpha)
        with mpmath.workdps(50):
            up, round_trip = exact_minus_one(geom, alpha)
            assert_within_ulps(uplink(geom, alpha), up, self.ULPS)
            assert_within_ulps(roundtrip(geom), round_trip, self.ULPS)
            # the phases add the rounding of one product by the phase scale
            scale = mpmath.mpf(SCALE)
            phi_sc = [(scale * x, scale * size) for x, size in up]
            phi_gs = [(scale * x, scale * size) for x, size in round_trip]
            assert_within_ulps(pair.phi_sc, phi_sc, self.ULPS + 1)
            assert_within_ulps(pair.phi_gs, phi_gs, self.ULPS + 1)
            # s = phi_sc - phi_gs/2 cancels the first-order Doppler, so the phases set its error
            s = [(sc - gs / 2, max(sc_size, gs_size))
                 for (sc, sc_size), (gs, gs_size) in zip(phi_sc, phi_gs)]
            assert_within_ulps(pair.s_signal, s, 2 * (self.ULPS + 1))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**_LINKS)
    def test_ds_dalpha_is_the_exact_derivative(self, **drawn):
        """s is affine in alpha, so the 50-digit difference quotient of s between two
        alphas is its derivative; phase_pair's closed form stays within ULPS of it."""
        geom = link(**drawn)
        pair = phase_pair(geom, SCALE)
        with mpmath.workdps(50):
            (up_0, round_trip), (up_1, _) = exact_minus_one(geom, 0.0), exact_minus_one(geom, 0.5)
            scale = mpmath.mpf(SCALE)
            derivative = [(scale * (x_1 - gs / 2) - scale * (x_0 - gs / 2)) / mpmath.mpf(0.5)
                          for (x_0, _), (x_1, _), (gs, _) in zip(up_0, up_1, round_trip)]
            assert_within_ulps(pair.ds_dalpha, [(d, abs(d)) for d in derivative], self.ULPS)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(beta1=_vectors(_BETA_NORMS), beta2=_vectors(_BETA_NORMS),
           beta3=_vectors(_BETA_NORMS), n12=_vectors(_UNIT_NORMS), n23=_vectors(_UNIT_NORMS),
           u1=_POTENTIALS, u2=_POTENTIALS, alpha=st.sampled_from([0.0, 3.0e-4, -0.5, 0.999999]))
    def test_geometry_limits_bound_the_denominators(self, beta1, beta2, beta3, n12, n23,
                                                    u1, u2, alpha):
        """Anything LinkGeometry accepts keeps phase_pair's denominators within 4.1e-5 of 1,
        and its ratio - 1 within ULPS spacings of the largest shift there, 8e-5."""
        geom = make_geometry(beta1, beta2, beta3, n12, n23, u1, u2)
        denominators = (1.0 - geom.U2 - 0.5 * _dot(geom.beta2, geom.beta2), 1.0 - geom.d1,
                        1.0 - _dot(geom.n23, geom.beta2))
        assert all(d[0] > 1.0 - 4.1e-5 for d in denominators), denominators
        pair = phase_pair(geom, 1.0, alpha)
        with mpmath.workdps(50):
            up, round_trip = exact_minus_one(geom, alpha)
            assert_within_ulps(pair.phi_sc, [(x, 8e-5) for x, _ in up], self.ULPS)
            assert_within_ulps(pair.phi_gs, [(x, 8e-5) for x, _ in round_trip], self.ULPS)
