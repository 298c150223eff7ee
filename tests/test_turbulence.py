import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satlink.beam import BeamParams
from satlink.errors import ConfigError, StrongTurbulenceError
from satlink.scenario import Scenario
from satlink.turbulence import (
    PROFILES,
    TurbulenceProfile,
    cn2,
    coherence_length_planar,
    i_infty,
    spot_sizes,
)

import _reference
from _reference import coherence_length, cn2_avg, rytov_variance, speckle_count, uplink_coefficients

NIGHT = PROFILES["hv-night"]
DAY = PROFILES["hv-day"]
K_800 = 2.0 * math.pi / 800e-9
BEAM20 = BeamParams(wavelength=800e-9, waist=0.2)
BEAM40 = BeamParams(wavelength=800e-9, waist=0.4)


def i_infty_closed_form(profile: TurbulenceProfile) -> float:
    """Analytic column integral of the three H-V terms (oracle)."""
    wind_term = 5.94e-53 * (profile.windspeed / 27.0) ** 2 * math.factorial(10) * 1000.0**11
    return wind_term + 2.7e-16 * 1500.0 + profile.a_ground * 100.0


class TestProfiles:
    def test_night_ground_value(self):
        assert cn2(0.0, NIGHT) == pytest.approx(1.7e-14, rel=0.02)

    def test_stanley_near_ground(self):
        hs = PROFILES["hufnagel-stanley"]
        assert 3e-15 < cn2(30.0, hs) < 3e-14

    def test_negligible_at_50km(self):
        assert cn2(50e3, NIGHT) < 1e-19

    def test_stanley_singularity(self):
        with pytest.raises(ValueError):
            cn2(0.0, PROFILES["hufnagel-stanley"])

    def test_profiles_by_name(self):
        assert (NIGHT.a_ground, NIGHT.windspeed) == (1.7e-14, 21.0)
        assert (DAY.a_ground, DAY.windspeed) == (2.75e-14, 21.0)
        assert PROFILES["hv-worst-day"].windspeed == 57.0
        assert PROFILES["hufnagel-stanley"].kind == "hufnagel-stanley"
        assert Scenario(profile="hv-worst-day").resolved_profile is PROFILES["hv-worst-day"]
        assert Scenario(period="day").resolved_profile is DAY
        with pytest.raises(ConfigError, match="Scenario.profile: expected one of 'hv-night'"):
            Scenario(profile="kolmogorov")

    def test_day_exceeds_night(self):
        for h in (0.0, 100.0, 5e3, 15e3):
            assert cn2(h, DAY) >= cn2(h, NIGHT)


class TestLayerAverage:
    def test_thin_layer_limit(self):
        assert cn2_avg(1.0, NIGHT) == pytest.approx(cn2(0.0, NIGHT), rel=1e-3)

    def test_two_orders_of_magnitude_gap_at_20km(self):
        ratio = cn2_avg(20e3, NIGHT) / cn2(20e3, NIGHT)
        assert 30 < ratio < 500

    def test_departure_grows_beyond_15km(self):
        ratios = [cn2_avg(h, NIGHT) / cn2(h, NIGHT) for h in (15e3, 18e3, 21e3, 24e3)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestColumnIntegral:
    def test_reference_values(self):
        assert i_infty(NIGHT) == pytest.approx(2.2354e-12, rel=5e-3)
        assert i_infty(DAY) == pytest.approx(3.2854e-12, rel=5e-3)

    def test_against_closed_form(self):
        for profile in (NIGHT, DAY, PROFILES["hv-worst-day"]):
            assert i_infty(profile) == pytest.approx(i_infty_closed_form(profile), rel=1e-8)

    def test_truncation_insensitive(self):
        import scipy.integrate

        to_50, _ = scipy.integrate.quad(
            lambda x: cn2(x, NIGHT), 0.0, 50e3, epsabs=0.0, epsrel=1e-10, limit=300
        )
        assert abs(i_infty(NIGHT) - to_50) / i_infty(NIGHT) < 1e-6


class TestRytov:
    def test_constant_profile_reduction(self, monkeypatch):
        # for uniform C_n^2 the slant expression collapses to the classic
        # 1.23 C k^(7/6) z^(11/6) fixed-altitude form
        c = 1e-15
        # the reference Rytov integral reads C_n^2 = c at every altitude
        monkeypatch.setattr(_reference, "cn2", lambda h, profile: np.full_like(h, c))
        h, theta = 5e3, 0.7
        z = h / math.cos(theta)
        # 2.25 * 6/11 = 1.227..., quoted as 1.23 in the literature
        coeff = 2.25 * 6.0 / 11.0
        assert coeff == pytest.approx(1.23, rel=5e-3)
        expected = coeff * c * K_800 ** (7.0 / 6.0) * z ** (11.0 / 6.0)
        got = rytov_variance(h, theta, K_800, NIGHT).value
        assert got == pytest.approx(expected, rel=1e-6)

    def test_weak_regime_within_one_radiant(self):
        for theta in (0.0, 1.0):
            res = rytov_variance(20e3, theta, K_800, NIGHT)
            assert res.weak and res.value < 1.0

    def test_saturates_with_altitude(self):
        v20 = rytov_variance(20e3, 0.0, K_800, NIGHT).value
        v40 = rytov_variance(40e3, 0.0, K_800, NIGHT).value
        assert v40 == pytest.approx(v20, rel=0.05)

    def test_strong_beyond_1p2_rad(self):
        assert rytov_variance(20e3, 1.3, K_800, NIGHT).value > 1.0
        assert rytov_variance(20e3, 1.1, K_800, NIGHT).value < 1.0

    def test_uplink_below_downlink(self):
        up = rytov_variance(20e3, 0.5, K_800, NIGHT, "up").value
        down = rytov_variance(20e3, 0.5, K_800, NIGHT, "down").value
        assert 0.3 < up / down <= 1.0

    def test_saturated_shortcut_matches_full_integral(self):
        from satlink.turbulence import rytov_saturated

        full = rytov_variance(40e3, 0.7, K_800, NIGHT).value
        assert rytov_saturated(0.7, K_800, NIGHT) == pytest.approx(full, rel=0.02)

    def test_worst_day_crosses_unity_within_the_window(self):
        from satlink.turbulence import rytov_saturated

        worst = PROFILES["hv-worst-day"]
        assert rytov_saturated(0.0, K_800, worst) == pytest.approx(0.6, abs=0.1)
        assert rytov_saturated(1.0, K_800, worst) == pytest.approx(2.0, abs=0.3)


class TestCoherenceLength:
    def test_reference_values_at_100km(self):
        assert coherence_length(100e3, 0.0, K_800, NIGHT, "down") == pytest.approx(1.8, rel=0.05)
        assert coherence_length(100e3, 0.0, K_800, NIGHT, "up") == pytest.approx(0.042, rel=0.05)
        assert coherence_length(100e3, 1.0, K_800, NIGHT, "down") == pytest.approx(0.68, rel=0.05)
        assert coherence_length(100e3, 1.0, K_800, NIGHT, "up") == pytest.approx(0.029, rel=0.05)

    def test_wavelength_scaling(self):
        k_1550 = 2.0 * math.pi / 1550e-9
        ratio = coherence_length(100e3, 0.0, k_1550, NIGHT, "up") / coherence_length(
            100e3, 0.0, K_800, NIGHT, "up"
        )
        assert ratio == pytest.approx((1550 / 800) ** 1.2, rel=1e-6)

    def test_planar_prefactor(self):
        rho = coherence_length_planar(0.0, K_800, NIGHT)
        assert rho == pytest.approx(8.59e5 * (800e-9) ** 1.2, rel=0.01)

    def test_planar_secant_scaling(self):
        ratio = coherence_length_planar(1.0, K_800, NIGHT) / coherence_length_planar(0.0, K_800, NIGHT)
        assert ratio == pytest.approx(math.cos(1.0) ** 0.6, rel=1e-9)

    def test_planar_lower_bounds_spherical(self):
        from satlink.geometry import slant_range

        for h in (160e3, 530e3, 2000e3, 36e6):
            for theta in (0.0, 1.0):
                z = slant_range(h, theta)
                rho0 = coherence_length(z, theta, K_800, NIGHT, "up")
                rho_p = coherence_length_planar(theta, K_800, NIGHT)
                assert rho_p <= rho0
                if h >= 160e3:
                    assert rho0 / rho_p < 1.05  # converged in the LEO region


class TestSpeckles:
    def test_reference_counts(self):
        rho_zen = coherence_length(100e3, 0.0, K_800, NIGHT, "down")
        rho_one = coherence_length(100e3, 1.0, K_800, NIGHT, "down")
        assert speckle_count(0.4, rho_zen) == pytest.approx(1.05, abs=0.05)
        assert speckle_count(0.4, rho_one) == pytest.approx(1.35, abs=0.08)

    def test_coherent_limit(self):
        assert speckle_count(0.0, 1.0) == 1.0


class TestUplinkSpotSizes:
    def test_published_coefficients(self):
        a, b, c = uplink_coefficients(NIGHT)
        assert a == pytest.approx(2.75e-13, rel=0.02)
        assert b == pytest.approx(63.0, rel=0.02)
        assert c == pytest.approx(1.72e-11, rel=0.02)

    def test_yura_condition_at_20cm(self):
        spots = spot_sizes(500e3, 0.0, BEAM20, NIGHT, "up", 0.0)
        assert spots.yura_phi < 0.25
        # the condition fails only for millimetre-scale waists
        tiny = BeamParams(wavelength=800e-9, waist=1.2e-3)
        with pytest.raises(StrongTurbulenceError):
            spot_sizes(500e3, 0.0, tiny, NIGHT, "up", 0.0)

    @given(
        z=st.floats(1.6e5, 3.6e7),
        theta=st.floats(0.0, 1.0),
        w0=st.floats(0.1, 0.6),
    )
    def test_decomposition_identity(self, z, theta, w0):
        beam = BeamParams(wavelength=800e-9, waist=w0)
        s = spot_sizes(z, theta, beam, NIGHT, "up", 0.0)
        assert s.w_lt**2 - s.w_st**2 - s.sigma_tb2 == pytest.approx(0.0, abs=1e-9 * s.w_lt**2)

    def test_short_term_exceeds_diffraction_by_order_of_magnitude(self):
        for z in (1e6, 5e6, 3.6e7):
            s = spot_sizes(z, 0.0, BEAM20, NIGHT, "up", 0.0)
            assert 5.0 < s.w_st / s.w_d < 30.0

    def test_wander_magnitudes(self):
        karman = spot_sizes(100e3, 0.0, BEAM20, NIGHT, "up", 0.0)
        assert 0.4 < math.sqrt(karman.sigma_tb2) < 1.1
        geo = spot_sizes(3.6e7, 1.0, BEAM20, DAY, "up", 0.0)
        assert 150.0 < math.sqrt(geo.sigma_tb2) < 400.0

    def test_day_wander_exceeds_night(self):
        for z in (2e5, 1e6, 1e7):
            for theta in (0.0, 1.0):
                day = spot_sizes(z, theta, BEAM20, DAY, "up", 0.0).sigma_tb2
                night = spot_sizes(z, theta, BEAM20, NIGHT, "up", 0.0).sigma_tb2
                assert day > night

    def test_linearized_matches_planar_coefficients(self):
        # the first-order wander fraction 1 - 2 phi in place of (1 - phi)^2
        # reproduces w_st^2 = w_d^2 + z^2 * Delta(theta)
        a, b, c = uplink_coefficients(NIGHT)
        z, theta = 8e5, 0.8
        sec = 1.0 / math.cos(theta)
        s = spot_sizes(z, theta, BEAM40, NIGHT, "up", 0.0)
        broadening = s.w_lt**2 - s.w_d**2
        w_st2 = s.w_d**2 + broadening * (1.0 - 2.0 * s.yura_phi)
        sigma_tb2 = broadening * 2.0 * s.yura_phi
        lam = BEAM40.wavelength
        delta = a * lam ** (-0.4) * sec**1.2 - c * BEAM40.waist ** (-1.0 / 3.0) * sec
        assert w_st2 == pytest.approx(s.w_d**2 + z * z * delta, rel=2e-3)
        assert sigma_tb2 == pytest.approx(c * BEAM40.waist ** (-1.0 / 3.0) * z * z * sec, rel=2e-3)

    def test_planar_agrees_with_full_quadrature(self, monkeypatch):
        # simplified (asymptotic-column) spot sizes track the spherical-wave
        # quadrature to better than 2% from the LEO boundary outward
        from satlink import turbulence
        from satlink.geometry import slant_range

        for h in (160e3, 530e3, 2000e3):
            for theta in (0.0, 1.0):
                z = slant_range(h, theta)
                fast = spot_sizes(z, theta, BEAM20, NIGHT, "up", 0.0)
                # the same spot sizes with the spherical-wave rho_0 over z
                with monkeypatch.context() as m:
                    m.setattr(
                        turbulence,
                        "coherence_length_planar",
                        lambda theta, k, profile: coherence_length(z, theta, k, profile, "up"),
                    )
                    slow = spot_sizes(z, theta, BEAM20, NIGHT, "up", 0.0)
                assert fast.w_st == pytest.approx(slow.w_st, rel=0.02)
                assert fast.w_lt == pytest.approx(slow.w_lt, rel=0.02)
                assert math.sqrt(fast.sigma_tb2) == pytest.approx(
                    math.sqrt(slow.sigma_tb2), rel=0.02
                )


class TestDownlink:
    def test_diffraction_limited(self):
        s = spot_sizes(5e5, 0.5, BEAM20, NIGHT, "down", 0.25)
        assert s.w_st == s.w_lt == s.w_d
        assert s.sigma_tb2 == 0.0
        assert s.sigma2 == 0.25
        assert s.yura_phi == 0.0
