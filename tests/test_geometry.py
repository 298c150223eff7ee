import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satlink.geometry import (
    R_EARTH,
    path_altitude,
    slant_orbital,
    slant_range,
)

from _reference import SURFACE_REFRACTIVE_INDEX, altitude_from_slant, true_zenith


def slant_by_triangle(h: float, theta: float) -> float:
    """Independent oracle: solve the station-satellite triangle numerically.

    With the Earth center at O, station G and satellite S, the law of
    cosines gives (R+h)^2 = R^2 + z^2 + 2 R z cos(theta); take the positive
    root of the quadratic in z.
    """
    r_s = R_EARTH + h
    coeffs = [1.0, 2.0 * R_EARTH * math.cos(theta), R_EARTH**2 - r_s**2]
    roots = np.roots(coeffs)
    return float(max(r.real for r in roots if abs(r.imag) < 1e-6))


class TestSlantRange:
    def test_zenith_equals_altitude(self):
        assert slant_range(500e3, 0.0) == pytest.approx(500e3, rel=1e-14)

    def test_horizon_atmospheric_section(self):
        # 20 km-thick atmosphere seen edge-on spans about 505 km
        assert slant_range(20e3, math.pi / 2) == pytest.approx(5.05e5, rel=5e-3)

    @pytest.mark.parametrize("h,theta", [(530e3, 1.0), (100e3, 0.3), (36e6, 1.4)])
    def test_against_triangle_solver(self, h, theta):
        assert slant_range(h, theta) == pytest.approx(slant_by_triangle(h, theta), rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            slant_range(-1.0, 0.0)
        with pytest.raises(ValueError):
            slant_range(100e3, 2.0)

    def test_sign_insensitive(self):
        assert slant_range(530e3, -1.0) == slant_range(530e3, 1.0)

    @given(
        h=st.floats(1e3, 4e7),
        t1=st.floats(0.0, 1.5),
        t2=st.floats(0.0, 1.5),
    )
    def test_monotone_in_angle_and_altitude(self, h, t1, t2):
        lo, hi = sorted((t1, t2))
        if hi > lo + 1e-6:
            assert slant_range(h, hi) > slant_range(h, lo)
        assert slant_range(2 * h, lo) > slant_range(h, lo)

    def test_secant_upper_bound(self):
        for h in (5e3, 20e3, 500e3):
            for theta in (0.1, 0.7, 1.2):
                assert slant_range(h, theta) <= h / math.cos(theta) + 1e-9

    def test_secant_error_below_atmosphere(self):
        # within the atmosphere and 1 rad the flat approximation is sub-0.4%
        for h in (1e3, 10e3, 20e3):
            for theta in (0.0, 0.5, 1.0):
                z = slant_range(h, theta)
                assert abs(z - h / math.cos(theta)) / z < 0.004


class TestAltitudeFromSlant:
    def test_zenith(self):
        assert altitude_from_slant(500e3, 0.0) == pytest.approx(500e3, rel=1e-14)

    @given(h=st.floats(1e3, 4e7), theta=st.floats(-math.pi / 2, math.pi / 2))
    def test_round_trip(self, h, theta):
        z = slant_range(h, theta)
        assert altitude_from_slant(z, theta) == pytest.approx(h, rel=1e-12)

    def test_inverse_at_fixed_point(self):
        h = altitude_from_slant(100e3, 1.0)
        assert slant_range(h, 1.0) == pytest.approx(100e3, rel=1e-9)

    def test_flat_earth_small_angle(self):
        # h ~ z cos(theta_z) with the curvature-corrected angle
        z, theta = 500e3, 0.1
        theta_z = theta * math.sqrt(R_EARTH / (R_EARTH + z))
        assert altitude_from_slant(z, theta) == pytest.approx(z * math.cos(theta_z), rel=1e-4)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            altitude_from_slant(-5.0, 0.0)

    def test_scalar_in_float_out(self):
        assert type(altitude_from_slant(100e3, 1.0)) is float

    def test_array_matches_scalar(self):
        # path_altitude on the nodes of a path integrand, as at each point alone
        z = np.geomspace(1e-3, 4e7, 40)
        h = path_altitude(z, math.cos(1.2))
        assert isinstance(h, np.ndarray)
        assert h.tolist() == [altitude_from_slant(float(y), 1.2) for y in z]


class TestOrbitalParametrization:
    def test_overhead(self):
        assert slant_orbital(R_EARTH + 530e3, 0.0) == pytest.approx(530e3, rel=1e-12)

    def test_antipodal(self):
        r_s = R_EARTH + 1e6
        assert slant_orbital(r_s, math.pi) == pytest.approx(R_EARTH + r_s, rel=1e-12)

    def test_sine_identity(self):
        # consistency of z(R_S, alpha) with the zenith-angle construction:
        # sin(theta) = R_S sin(alpha) / z and R_E + z cos(theta) = R_S cos(alpha)
        r_s = R_EARTH + 530e3
        for alpha in (0.01, 0.05, 0.1):
            z = slant_orbital(r_s, alpha)
            sin_theta = r_s * math.sin(alpha) / z
            theta = math.asin(sin_theta)
            assert slant_range(530e3, theta) == pytest.approx(z, rel=1e-9)

    def test_inside_earth_rejected(self):
        with pytest.raises(ValueError):
            slant_orbital(R_EARTH - 1.0, 0.1)


class TestRefraction:
    def test_true_zenith_inverse(self):
        for theta in (0.0, 0.4, 1.0, 1.5):
            theta_app = math.asin(math.sin(theta) / SURFACE_REFRACTIVE_INDEX)  # Snell's law
            assert true_zenith(theta_app) == pytest.approx(theta, abs=1e-12)

    def test_beyond_refracted_horizon_rejected(self):
        with pytest.raises(ValueError):
            true_zenith(1.57)

