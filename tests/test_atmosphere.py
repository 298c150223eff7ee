import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satlink import Scenario, atmosphere
from satlink._integrate import tanh_sinh
from satlink.atmosphere import (
    PATH_TOP_M,
    ExtinctionModel,
    _extinction,
    _line_of_sight,
    _path_integral,
    eta_atm,
)
from satlink.geometry import slant_range

from _reference import EXTINCTION, eta_atm_refracted, eta_atm_secant, eta_atm_zenith, eta_atm_zenith_inf
THETA_APP_MAX = math.asin(1 / 1.00027)


def to_db(eta: float) -> float:
    return -10.0 * math.log10(eta)


class TestZenithExtinction:
    def test_saturated_value(self):
        assert eta_atm_zenith(1e8) == pytest.approx(0.967, abs=1e-3)
        assert to_db(eta_atm_zenith_inf()) == pytest.approx(0.14, abs=0.01)

    def test_ground_level(self):
        assert eta_atm_zenith(0.0) == 1.0

    def test_saturation_at_30km(self):
        assert abs(eta_atm_zenith(30e3) - eta_atm_zenith_inf()) < 1e-3

    @given(h=st.floats(0.0, 1e7))
    def test_bounded_below(self, h):
        assert eta_atm_zenith(h) >= eta_atm_zenith_inf()


class TestSlantExtinction:
    def test_matches_zenith_closed_form(self):
        for h in (5e3, 30e3, 530e3):
            assert eta_atm(h, 0.0, EXTINCTION) == pytest.approx(eta_atm_zenith(h), abs=1e-9)

    def test_loss_near_horizon_without_refraction(self):
        # full quadrature at the maximum apparent angle treated as true angle
        assert to_db(eta_atm(780e3, THETA_APP_MAX, EXTINCTION)) == pytest.approx(3.4, abs=0.1)

    def test_secant_law_agreement_beyond_100km(self):
        for h in (100e3, 530e3, 2000e3):
            for theta in np.linspace(0.0, 1.0, 6):
                full = eta_atm(h, theta, EXTINCTION)
                sec = eta_atm_secant(h, theta)
                assert abs(full - sec) / full < 0.01

    def test_monotone_in_angle(self):
        vals = [eta_atm(530e3, t, EXTINCTION) for t in np.linspace(0.0, 1.4, 8)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_saturates_in_altitude(self):
        assert eta_atm(100e3, 0.8, EXTINCTION) == pytest.approx(eta_atm(2000e3, 0.8, EXTINCTION), abs=2e-6)

    def test_range_and_floor(self):
        for h in (1e3, 50e3, 1e6):
            for theta in (0.0, 0.6, 1.0):
                v = eta_atm(h, theta, EXTINCTION)
                assert 0.0 < v <= 1.0
                if h >= 30e3 and theta <= 1.0:
                    assert v >= eta_atm_secant(h, theta) - 1e-3


class TestSecantLaw:
    def test_zenith(self):
        assert eta_atm_secant(1e6, 0.0) == pytest.approx(0.9675, abs=5e-4)

    def test_one_radiant(self):
        assert eta_atm_secant(1e6, 1.0) == pytest.approx(0.94, abs=5e-3)


class TestRefractedExtinction:
    def test_zenith_reduces(self):
        assert eta_atm_refracted(530e3, 0.0) == pytest.approx(eta_atm_zenith(530e3), rel=1e-9)

    def test_negligible_below_one_radiant(self):
        for theta_app in (0.3, 0.7, 1.0):
            ref = eta_atm_refracted(530e3, theta_app)
            plain = eta_atm(530e3, theta_app, EXTINCTION)
            assert abs(ref - plain) / plain < 1e-3

    def test_snell_only_increases_loss_near_horizon(self):
        ref = eta_atm_refracted(780e3, THETA_APP_MAX)
        assert to_db(ref) > to_db(eta_atm(780e3, THETA_APP_MAX, EXTINCTION))

    def test_published_horizon_loss_with_elongation(self):
        # The single-slab elongation data is not public; a constant factor of
        # 1.27 reproduces the quoted 7.1 dB horizon loss and demonstrates the
        # mechanism (identity elongation gives the Snell-only 5.6 dB).
        snell_only = eta_atm_refracted(780e3, THETA_APP_MAX)
        assert to_db(snell_only) == pytest.approx(5.6, abs=0.2)
        elongated = eta_atm_refracted(780e3, THETA_APP_MAX, lambda t: 1.27)
        assert to_db(elongated) == pytest.approx(7.1, abs=0.3)

    def test_consistent_with_true_angle_quadrature(self):
        theta_app = 1.2
        ref = eta_atm_refracted(530e3, theta_app)
        direct = eta_atm(530e3, math.asin(1.00027 * math.sin(theta_app)), EXTINCTION)
        assert ref == pytest.approx(direct, rel=1e-9)


def test_custom_model_scaling():
    # doubling alpha0 squares the transmissivity
    model = ExtinctionModel(alpha0=1e-5)
    assert eta_atm_zenith(1e6, model) == pytest.approx(eta_atm_zenith(1e6) ** 2, rel=1e-12)


class TestLineOfSightCache:
    def test_tight_solve_integrates_few_lines_of_sight(self, monkeypatch):
        # the bisection above PATH_TOP_M revisits one zenith line of sight;
        # without the cache this solve makes 24 extinction quadratures
        _line_of_sight.cache_clear()
        quadratures = []

        def counted_tanh_sinh(f, *args, **kwargs):
            quadratures.append(f.__name__)
            return tanh_sinh(f, *args, **kwargs)

        monkeypatch.setattr(atmosphere, "tanh_sinh", counted_tanh_sinh)
        scn = Scenario.build("down", "day", "clear", setup=1, receiver={"filter_width": 1e-9})
        result = scn.max_range("tight")
        assert result.z_max == pytest.approx(6280e3, rel=1e-3)
        assert 0 < len(quadratures) <= 6
        assert set(quadratures) == {"_extinction"}

    @pytest.mark.parametrize("h", [5e3, 150e3, PATH_TOP_M, 530e3, 36000e3])
    @pytest.mark.parametrize("theta", [0.0, -0.4, 0.4, 1.0, 1.5])
    def test_cached_value_is_the_quadrature(self, h, theta):
        h_scale = EXTINCTION.h_scale
        path = slant_range(min(h, PATH_TOP_M), theta)
        direct = tanh_sinh(_extinction, 0.0, path, theta, h_scale).value
        _line_of_sight.cache_clear()
        first = _path_integral(path, theta, EXTINCTION)
        again = _path_integral(path, theta, EXTINCTION)
        assert first == direct and again == direct
        assert _line_of_sight.cache_info().hits == 1
        assert eta_atm(h, theta, EXTINCTION) == math.exp(-EXTINCTION.alpha0 * direct)

    def test_array_calls_bypass_the_cache(self):
        before = _line_of_sight.cache_info()
        h = np.array([5e3, 150e3, 530e3, 36000e3])
        eta_atm(h, 0.3, EXTINCTION)
        eta_atm(530e3, np.array([0.0, 0.3, 1.0]), EXTINCTION)
        eta_atm(h, np.array([0.0, 0.3, 1.0, 0.3]), EXTINCTION)
        assert _line_of_sight.cache_info() == before
