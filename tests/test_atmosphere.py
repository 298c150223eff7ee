import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satlink import Scenario, _integrate
from satlink._integrate import tanh_sinh_rows
from satlink.atmosphere import (
    BRANCH_MIN,
    PATH_TOP_M,
    ExtinctionModel,
    _extinction_rows,
    _line_of_sight,
    eta_atm,
)
from satlink.cli import main
from satlink.geometry import R_EARTH, slant_range

from _reference import (
    EXTINCTION,
    eta_atm_refracted,
    eta_atm_secant,
    eta_atm_zenith,
    eta_atm_zenith_inf,
    line_of_sight,
)
THETA_APP_MAX = math.asin(1 / 1.00027)
# the largest angle the Gauss-Laguerre rule takes at the default scale height
SWITCH_ANGLE = math.asin(1.0 - BRANCH_MIN * EXTINCTION.h_scale / R_EARTH)


def tanh_sinh_line(h: float, theta: float, model: ExtinctionModel = EXTINCTION) -> float:
    """The line of sight by the rule _line_of_sight takes beyond the switches:
    tanh_sinh_rows on [0, 1] in t = y / path, times the path."""
    path = slant_range(min(h, PATH_TOP_M), theta)
    (row,) = tanh_sinh_rows(_extinction_rows, 0.0, 1.0, path, math.cos(abs(theta)), model.h_scale)
    return path * row.value


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
    """The line of sight eta_atm takes, against the tanh-sinh quadrature of
    the same integral.  The class and test names are older than the
    Gauss-Laguerre rule: nothing is cached."""

    def test_tight_solve_integrates_few_lines_of_sight(self, monkeypatch):
        # every probe of the solve lies at zenith, 10 km and up: the
        # Gauss-Laguerre rule takes all its lines of sight, and no tanh-sinh
        quadratures = []

        def counted_tanh_sinh_rows(f, *args, **kwargs):
            quadratures.append(f.__name__)
            return tanh_sinh_rows(f, *args, **kwargs)

        monkeypatch.setattr(_integrate, "tanh_sinh_rows", counted_tanh_sinh_rows)
        scn = Scenario.build("down", "day", "clear", setup=1, receiver={"filter_width": 1e-9})
        result = scn.max_range("tight")
        assert result.z_max == pytest.approx(6280e3, rel=1e-3)
        # the probes' beam-wandering integrals are tanh_sinh_rows' too
        assert "_wander_rows" in quadratures and "_extinction_rows" not in quadratures

    @pytest.mark.parametrize("h", [5e3, 150e3, PATH_TOP_M, 530e3, 36000e3])
    @pytest.mark.parametrize("theta", [0.0, -0.4, 0.4, 1.0, 1.5])
    def test_cached_value_is_the_quadrature(self, h, theta):
        # bit for bit where eta_atm takes the tanh-sinh branch (1.5 rad lies
        # beyond the switch angle), and there within 1e-15 of numpy's
        # tanh-sinh in the slant range.  Where it takes the Gauss-Laguerre
        # rule, it agrees within 1e-13: on the 5 km path, tanh-sinh itself is
        # 4e-14 off (test_mpmath_reference holds the rule to 1e-15)
        direct = tanh_sinh_line(h, theta)
        line = _line_of_sight(h, theta, EXTINCTION)
        if abs(theta) > SWITCH_ANGLE:
            assert line == direct
            assert line == pytest.approx(line_of_sight(h, theta), rel=1e-15, abs=0.0)
        else:
            assert line == pytest.approx(direct, rel=1e-13, abs=0.0)
        assert eta_atm(h, theta, EXTINCTION) == math.exp(-EXTINCTION.alpha0 * line)


class TestShortPaths:
    """A path shorter than a tenth of a scale height takes the tanh-sinh
    branch, where the Gauss-Laguerre difference would cancel."""

    def test_huge_scale_height(self):
        # s_top = 200 km / 1e300 m: the difference form reads 0 there, and
        # eta_atm would read 1
        model = ExtinctionModel(h_scale=1e300)
        path = slant_range(PATH_TOP_M, 0.0)
        assert _line_of_sight(530e3, 0.0, model) == tanh_sinh_line(530e3, 0.0, model)
        assert _line_of_sight(530e3, 0.0, model) == pytest.approx(line_of_sight(530e3, 0.0, model), rel=1e-15)
        assert eta_atm(530e3, 0.0, model) == pytest.approx(math.exp(-model.alpha0 * path), rel=1e-15)

    @pytest.mark.parametrize("argv,rows", [
        (
            ["--h-grid", "530km:530km:1", "--set", "atmosphere.scale_height=1e300"],
            ["530,0,0.9319398124,0.1047310668,0.03908773924,0.03908532364,0.03906029702,0.07002171602,1.216e-06"],
        ),
        (
            ["--h-grid", "1m:10km:4:log", "--theta", "0", "--theta", "1.5"],
            [
                "0.001,0,11.54156033,0.7366381775,0.7366381775,0.7366346689,0.7365969331,0.3998638158,1.216e-06",
                "0.001,1.5,11.54156023,0.7365750478,0.7365750478,0.7365715392,0.736533805,0.3998375543,1.216e-06",
                "0.0215443469,0,11.54156011,0.7365396129,0.7365396129,0.7365361043,0.7364983711,0.3998228132,1.216e-06",
                "0.0215443469,1.5,11.54151697,0.7351838511,0.7351838511,0.7351803425,0.7351426453,0.3992585361,1.216e-06",
                "0.4641588834,0,11.54145955,0.7344927303,0.7344927303,0.7344892217,0.7344515428,0.3989706829,1.216e-06",
                "0.4641588834,1.5,11.52174086,0.707173094,0.7071729564,0.7071694478,0.7071324873,0.3874808283,1.216e-06",
                "10,0,11.49497296,0.7124034003,0.7124024977,0.7123989891,0.7123618921,0.3896974177,1.216e-06",
                "10,1.5,7.096033002,0.4851185088,0.4470438224,0.4470404345,0.4470087485,0.2855616194,1.216e-06",
            ],
        ),
    ])
    @pytest.mark.filterwarnings("ignore:Rytov variance")
    def test_short_path_commands_print_the_tanh_sinh_values(self, argv, rows, capsys):
        # the rows these commands printed when tanh-sinh took every line of sight
        assert main(["bounds", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "h_km,theta,U,V,B,thermal_upper,thermal_lower,eta,nbar"
        assert lines[2:] == rows
