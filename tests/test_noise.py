import math

import pytest

from satlink.beam import ReceiverParams
from satlink.noise import (
    NoiseEnvironment,
    blackbody_radiance,
    kappa_day,
    kappa_night,
    nbar_background,
    nbar_body,
    nbar_env,
    nbar_total,
)

TYPICAL = ReceiverParams(aperture=0.4, efficiency=0.4)                 # Gamma_R = 1.6e-19
NARROW = ReceiverParams(aperture=0.4, efficiency=0.4, filter_width=1e-13)  # 1.6e-23


class TestGammaR:
    def test_reference(self):
        assert TYPICAL.gamma_r == pytest.approx(1.6e-19, rel=1e-9)
        assert NARROW.gamma_r == pytest.approx(1.6e-23, rel=1e-9)

    def test_quadratic_in_aperture(self):
        big = ReceiverParams(aperture=0.8)
        assert big.gamma_r == pytest.approx(4 * TYPICAL.gamma_r, rel=1e-12)


class TestKappa:
    def test_night_value(self):
        assert kappa_night() == pytest.approx(7.36e-7, rel=1e-2)

    def test_day_is_earth_albedo(self):
        assert kappa_day() == 0.3

    def test_night_to_day_ratio(self):
        ratio = kappa_night() / kappa_day()
        assert 1e-7 < ratio < 1e-5


class TestBackgroundPhotons:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("day-down-cloudy", 0.3),
            ("day-down-clear", 3e-3),
            ("night-down", 3e-6),
            ("day-up", 0.22),
            ("night-up", 5.4e-7),
        ],
    )
    def test_wide_filter_table(self, name, expected):
        env = NoiseEnvironment.from_name(name)
        assert nbar_background(env, TYPICAL) == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("day-down-cloudy", 3e-5),
            ("day-down-clear", 3e-7),
            ("day-up", 2.2e-5),
        ],
    )
    def test_narrow_filter_table(self, name, expected):
        env = NoiseEnvironment.from_name(name)
        assert nbar_background(env, NARROW) == pytest.approx(expected, rel=0.05)

    def test_linear_in_collection(self):
        env = NoiseEnvironment.from_name("day-up")
        assert nbar_background(env, NARROW) == pytest.approx(
            1e-4 * nbar_background(env, TYPICAL), rel=1e-12
        )

    def test_name_round_trip(self):
        for name in ("night-up", "night-down", "day-up", "day-down-clear", "day-down-cloudy"):
            env = NoiseEnvironment.from_name(name)
            assert env.name == name

    def test_overrides(self):
        env = NoiseEnvironment(direction="down", period="day", sky="clear", h_sky=1.0)
        assert nbar_background(env, TYPICAL) == pytest.approx(TYPICAL.gamma_r, rel=1e-12)

    def test_bad_names(self):
        with pytest.raises(ValueError):
            NoiseEnvironment.from_name("noon-sideways")
        with pytest.raises(ValueError):
            NoiseEnvironment(direction="lateral")


class TestTotalNoise:
    def test_cloudy_day_value(self):
        env = NoiseEnvironment.from_name("day-down-cloudy")
        assert nbar_total(env, TYPICAL) == pytest.approx(0.12, rel=0.05)

    def test_excess_photons_add(self):
        env = NoiseEnvironment.from_name("night-down")
        noisy = ReceiverParams(aperture=0.4, efficiency=0.4, excess_photons=0.01)
        assert nbar_total(env, noisy) == pytest.approx(nbar_total(env, TYPICAL) + 0.01)

    def test_environment_referral(self):
        assert nbar_env(0.1, 0.0) == pytest.approx(0.1)
        assert nbar_env(0.1, 0.5) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            nbar_env(0.1, 1.0)


class TestBlackBody:
    def test_planck_form(self):
        # independent spelling via the frequency-domain Planck law
        lam, temp = 800e-9, 288.0
        h, c, kb = 6.62607015e-34, 299792458.0, 1.380649e-23
        nu = c / lam
        per_hz = 2.0 * nu**2 / c**2 / math.expm1(h * nu / (kb * temp))
        per_nm = per_hz * (c / lam**2) * 1e-9
        assert blackbody_radiance(lam, temp) == pytest.approx(per_nm, rel=1e-12)

    def test_vanishes_at_zero_temperature(self):
        assert blackbody_radiance(800e-9, 1e-3) == 0.0

    def test_monotone_in_temperature(self):
        assert blackbody_radiance(800e-9, 300.0) > blackbody_radiance(800e-9, 288.0)

    def test_planetary_emission_negligible(self):
        # thermal self-emission sits many orders below even the darkest
        # albedo-driven background
        body = nbar_body(TYPICAL)
        night_up = nbar_background(NoiseEnvironment.from_name("night-up"), TYPICAL)
        assert body < night_up * 1e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            blackbody_radiance(-1.0, 300.0)
