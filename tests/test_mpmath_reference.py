"""eta_atm and the turbulence columns against mpmath at 40 digits.

Budgets: eta_atm within 1e-14 relative everywhere in [0, pi/2], and the
Gauss-Laguerre line of sight within 1e-15 relative up to its switches;
both columns within 1e-14 relative on every profile.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlink import atmosphere
from satlink._integrate import tanh_sinh
from satlink.atmosphere import BRANCH_MIN, TOP_MIN, ExtinctionModel, _line_of_sight, eta_atm
from satlink.geometry import R_EARTH
from satlink.turbulence import PROFILES, _rytov_column, i_infty

import _mpmath_reference as mpref

EXTINCTION = ExtinctionModel()
H = EXTINCTION.h_scale
ALTITUDES = (1.0, 1e3, 100e3, 200e3, 36000e3)


def switch_angle(h_scale: float) -> float:
    """The largest angle the Gauss-Laguerre rule takes at this scale height."""
    return math.asin(1.0 - BRANCH_MIN * h_scale / R_EARTH)


SWITCH = switch_angle(H)  # 1.3427 rad
ANGLES = (0.0, 0.5, 1.0, 1.3, SWITCH - 1e-9, SWITCH, SWITCH + 1e-9, 1.45, 1.55, math.pi / 2)


def eta_error(h: float, theta: float, model: ExtinctionModel = EXTINCTION) -> float:
    want = mpref.eta_atm(h, theta, model.alpha0, model.h_scale)
    return abs(float((eta_atm(h, theta, model) - want) / want))


def line_error(h: float, theta: float, h_scale: float) -> float:
    want = mpref.line_of_sight(h, theta, h_scale)
    return abs(float((_line_of_sight(h, theta, ExtinctionModel(h_scale=h_scale)) - want) / want))


def tanh_sinh_calls(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].__name__)
        return tanh_sinh(*args, **kwargs)

    monkeypatch.setattr(atmosphere, "tanh_sinh", counted)
    return calls


@pytest.mark.parametrize("h", ALTITUDES)
@pytest.mark.parametrize("theta", ANGLES)
def test_eta_atm(h, theta):
    assert eta_error(h, theta) <= 1e-14


@settings(max_examples=25)
@given(h=st.sampled_from(ALTITUDES), theta=st.floats(0.0, math.pi / 2))
def test_eta_atm_at_any_angle(h, theta):
    assert eta_error(h, theta) <= 1e-14


@pytest.mark.parametrize("h_scale", [1e3, H, 1e5])
@pytest.mark.parametrize("offset", [-1e-9, 0.0, 1e-9])
def test_switch_angle_both_sides(h_scale, offset, monkeypatch):
    # the branch distance R (1 - sin theta) / h_scale decides, not the
    # angle: at 1e5 m the switch lies at 0.653 rad
    theta = switch_angle(h_scale) + offset
    calls = tanh_sinh_calls(monkeypatch)
    error = line_error(36000e3, theta, h_scale)
    # at the switch angle itself, rounding in sin decides the branch
    if offset > 0.0:
        assert calls == ["_extinction"]
    elif offset < 0.0:
        assert calls == []
    assert error <= (1e-14 if calls else 1e-15)


@pytest.mark.parametrize("theta", [0.0, 1.0, SWITCH - 1e-9])
@pytest.mark.parametrize("factor", [1.0 - 1e-9, 1.0, 1.0 + 1e-9])
def test_switch_height_both_sides(theta, factor, monkeypatch):
    # the Gauss-Laguerre rule from a tenth of a scale height of path, below the switch angle
    top = TOP_MIN * H * factor
    calls = tanh_sinh_calls(monkeypatch)
    assert eta_error(top, theta) <= 1e-14
    if factor < 1.0:
        assert calls == ["_extinction"]
    else:
        assert calls == [] and line_error(top, theta, H) <= 1e-15


def test_huge_scale_height():
    # a 200 km path is 2e-295 scale heights: the tanh-sinh branch
    assert eta_error(530e3, 0.0, ExtinctionModel(h_scale=1e300)) <= 1e-14


@pytest.mark.parametrize("name", list(PROFILES))
def test_columns(name):
    profile = PROFILES[name]
    args = (profile.kind, profile.a_ground, profile.windspeed, profile.hs_c1, profile.hs_c2)
    assert i_infty(profile) == pytest.approx(float(mpref.column("0", *args)), rel=1e-14, abs=0.0)
    assert _rytov_column(profile) == pytest.approx(float(mpref.column("5/6", *args)), rel=1e-14, abs=0.0)
