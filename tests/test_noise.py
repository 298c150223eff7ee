import pytest

from satlink import Scenario
from satlink.beam import ReceiverParams
from satlink.errors import ConfigError
from satlink.noise import (
    KAPPA_DAY,
    KAPPA_NIGHT,
    nbar_background,
    nbar_total,
)

TYPICAL = ReceiverParams(aperture=0.4, efficiency=0.4)                 # Gamma_R = 1.6e-19
NARROW = ReceiverParams(aperture=0.4, efficiency=0.4, filter_width=1e-13)  # 1.6e-23

# operating condition: (link, period, sky)
CONDITIONS = {
    "night-up": ("up", "night", "clear"),
    "night-down": ("down", "night", "clear"),
    "day-up": ("up", "day", "clear"),
    "day-down-clear": ("down", "day", "clear"),
    "day-down-cloudy": ("down", "day", "cloudy"),
}


class TestGammaR:
    def test_reference(self):
        assert TYPICAL.gamma_r == pytest.approx(1.6e-19, rel=1e-9)
        assert NARROW.gamma_r == pytest.approx(1.6e-23, rel=1e-9)

    def test_quadratic_in_aperture(self):
        big = ReceiverParams(aperture=0.8)
        assert big.gamma_r == pytest.approx(4 * TYPICAL.gamma_r, rel=1e-12)


class TestKappa:
    def test_night_value(self):
        assert KAPPA_NIGHT == pytest.approx(7.36e-7, rel=1e-2)

    def test_day_is_earth_albedo(self):
        assert KAPPA_DAY == 0.3

    def test_night_to_day_ratio(self):
        ratio = KAPPA_NIGHT / KAPPA_DAY
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
        assert nbar_background(*CONDITIONS[name], TYPICAL) == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("day-down-cloudy", 3e-5),
            ("day-down-clear", 3e-7),
            ("day-up", 2.2e-5),
        ],
    )
    def test_narrow_filter_table(self, name, expected):
        assert nbar_background(*CONDITIONS[name], NARROW) == pytest.approx(expected, rel=0.05)

    def test_linear_in_collection(self):
        day_up = CONDITIONS["day-up"]
        assert nbar_background(*day_up, NARROW) == pytest.approx(
            1e-4 * nbar_background(*day_up, TYPICAL), rel=1e-12
        )

    def test_overrides(self):
        assert nbar_background("down", "day", "clear", TYPICAL, h_sky=1.0) == pytest.approx(
            TYPICAL.gamma_r, rel=1e-12
        )

    def test_bad_names(self):
        with pytest.raises(ConfigError):
            Scenario(link="sideways", period="noon")
        with pytest.raises(ConfigError):
            Scenario(link="lateral")


class TestTotalNoise:
    def test_cloudy_day_value(self):
        n_b = nbar_background(*CONDITIONS["day-down-cloudy"], TYPICAL)
        assert nbar_total(n_b, TYPICAL) == pytest.approx(0.12, rel=0.05)

    def test_excess_photons_add(self):
        n_b = nbar_background(*CONDITIONS["night-down"], TYPICAL)
        noisy = ReceiverParams(aperture=0.4, efficiency=0.4, excess_photons=0.01)
        assert nbar_total(n_b, noisy) == pytest.approx(nbar_total(n_b, TYPICAL) + 0.01)
