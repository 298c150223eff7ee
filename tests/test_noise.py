import pytest

from satlink.beam import ReceiverParams
from satlink.noise import (
    NoiseEnvironment,
    kappa_day,
    kappa_night,
    nbar_background,
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
