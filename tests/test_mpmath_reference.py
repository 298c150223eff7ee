"""The slant range, eta_atm, the turbulence columns and the wander integral against mpmath at 40 digits.

Budgets: the slant range within 5e-16 relative on h in [1 m, 1e9 m] and
theta in [0, pi/2]; eta_atm within 1e-14 relative everywhere in [0, pi/2],
at scale heights from 100 m to 100 km, and the Gauss-Laguerre line of
sight within 1e-15 relative up to its switches;
both columns within 1e-14 relative on every profile; the wander integral
within REL_TOL, by the batch integrand on numpy and by the one in math,
on the documented domain.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlink import _integrate
from satlink._integrate import REL_TOL, tanh_sinh_rows
from satlink.atmosphere import BRANCH_MIN, TOP_MIN, ExtinctionModel, _line_of_sight, eta_atm
from satlink.bounds import _wander_batch, _wander_rows
from satlink.errors import NumericalError
from satlink.geometry import R_EARTH, slant_range
from satlink.scenario import Scenario
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


def slant_error(h: float, theta: float) -> float:
    want = mpref.slant_range(h, theta)
    return abs(float((slant_range(h, theta) - want) / want))


def eta_error(h: float, theta: float, model: ExtinctionModel = EXTINCTION) -> float:
    want = mpref.eta_atm(h, theta, model.alpha0, model.h_scale)
    return abs(float((eta_atm(h, theta, model) - want) / want))


def line_error(h: float, theta: float, h_scale: float) -> float:
    want = mpref.line_of_sight(h, theta, h_scale)
    return abs(float((_line_of_sight(h, theta, ExtinctionModel(h_scale=h_scale)) - want) / want))


def tanh_sinh_calls(monkeypatch) -> list:
    """The integrand names of the tanh_sinh_rows calls from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].__name__)
        return tanh_sinh_rows(*args, **kwargs)

    monkeypatch.setattr(_integrate, "tanh_sinh_rows", counted)
    return calls


@pytest.mark.parametrize("h", [1.0, 10.0, 1e3, 5e3, 200e3, 36000e3, 1e9])
@pytest.mark.parametrize("theta", [0.0, 0.4, 1.0, SWITCH, 1.55, math.pi / 2])
def test_slant_range(h, theta):
    # the short paths are where sqrt(...) - R cos theta cancelled: 1.5e-10
    # relative at 1 m and theta = 1, 6e-14 at 5 km and theta = 0.4
    assert slant_error(h, theta) <= 5e-16


@settings(max_examples=25)
@given(log_h=st.floats(0.0, 9.0), theta=st.floats(0.0, math.pi / 2))
def test_slant_range_anywhere(log_h, theta):
    assert slant_error(10.0**log_h, theta) <= 5e-16


@pytest.mark.parametrize("h", ALTITUDES)
@pytest.mark.parametrize("theta", ANGLES)
def test_eta_atm(h, theta):
    assert eta_error(h, theta) <= 1e-14


@pytest.mark.parametrize("h_scale", [100.0, 1e3, 1e5])
@pytest.mark.parametrize("h", [1.0, 1e3, 1e9])
@pytest.mark.parametrize("offset", [None, -1e-9, 0.0, 1e-9])
def test_eta_atm_at_each_scale_height(h_scale, h, offset):
    # offset from the scale height's own switch angle (0.653 rad at 100 km,
    # 1.5428 rad at 100 m); None for the zenith, 1.55 rad and the horizon
    model = ExtinctionModel(h_scale=h_scale)
    thetas = (0.0, 1.55, math.pi / 2) if offset is None else (switch_angle(h_scale) + offset,)
    for theta in thetas:
        assert eta_error(h, theta, model) <= 1e-14


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
        assert calls == ["_extinction_rows"]
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
        assert calls == ["_extinction_rows"]
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


CONFIGS = list(itertools.product((1, 2, 3, 4), ("up", "down"), ("day", "night"), ("clear", "cloudy")))


@settings(max_examples=12, deadline=None, database=None)
@given(config=st.sampled_from(CONFIGS), log_h=st.floats(5.0, math.log10(36000e3)), theta=st.floats(0.0, 1.0))
def test_wander_integral(config, log_h, theta):
    scn = Scenario.build(*config[1:], setup=config[0])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = scn.fading_model(10.0**log_h, theta)
    except NumericalError:  # the near field of setups 3 and 4
        return
    # the model's two rows, B at eta and at nbar, as a tight max-range probe takes them
    etas = (model.eta, scn.nbar)[: 1 + (0.0 < scn.nbar < model.eta)]
    args = model.r0 * model.r0 / (2.0 * model.sigma2), model.gamma / 2.0, etas
    rows = tanh_sinh_rows(_wander_rows, 0.0, 1.0, *args, abs_tol=1e-12)
    # and as a sweep takes them, one model of a batch (eta twice where nbar >= eta)
    batch_args = np.array([args[:1]]), np.array([args[1:2]]), np.array([[[etas[0]], [etas[-1]]]])
    batch = tanh_sinh_rows(_wander_batch, 0.0, 1.0, *batch_args, abs_tol=1e-12)
    for eta, row, in_batch in zip(etas, rows, batch):
        want = mpref.wander_integral(eta, model.sigma2, model.gamma, model.r0)
        assert abs(float((in_batch.value - want) / want)) <= REL_TOL
        assert abs(float((row.value - want) / want)) <= REL_TOL
