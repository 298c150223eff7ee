"""Sweeps as one array call: the same numbers and errors as one point at a time."""

import itertools
import warnings

import numpy as np
import pytest

from satlink import atmosphere, bounds, turbulence
from satlink._integrate import tanh_sinh
from satlink.errors import StrongTurbulenceError
from satlink.scenario import Scenario

# the documented configurations: 4 presets x up/down x day/night x clear/cloudy
CONFIGS = list(itertools.product((1, 2, 3, 4), ("up", "down"), ("day", "night"), ("clear", "cloudy")))


def assert_same(array_value, point_value):
    np.testing.assert_allclose(array_value, point_value, rtol=1e-12, atol=0.0)


def altitudes(n):
    # from 100 km: the near field of the 2 m downlink apertures included
    return np.geomspace(100e3, 36000e3, n)


@pytest.mark.parametrize("setup,link,period,sky", CONFIGS)
def test_bounds_grid_matches_points(setup, link, period, sky):
    scn = Scenario.build(link, period, sky, setup=setup)
    h = np.repeat(altitudes(5), 3)
    theta = np.tile([-1.0, 0.0, 0.5], 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = scn.bounds_at(h, theta)
        for i in range(h.size):
            point = scn.bounds_at(float(h[i]), float(theta[i]))
            for key, value in point.items():
                assert_same(np.broadcast_to(grid[key], h.shape)[i], value)


@pytest.mark.parametrize("setup,link,period,sky", CONFIGS)
def test_rate_grid_matches_points(setup, link, period, sky):
    scn = Scenario.build(link, period, sky, setup=setup)
    thetas = np.linspace(-1.0, 1.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for h in altitudes(3):
            grid = scn.rate_at(h, thetas)
            for i, theta in enumerate(thetas):
                point = scn.rate_at(h, float(theta))
                assert_same(grid.rate[i], point.rate)
                assert_same(grid.unclamped[i], point.unclamped)


def test_grid_shape_follows_broadcast():
    scn = Scenario.build("up", "night", setup=1)
    grid = scn.bounds_at(np.array([[500e3], [2000e3]]), np.array([0.0, 0.5, 1.0]))
    assert grid["B"].shape == (2, 3)
    assert grid["B"][1, 2] == scn.bounds_at(2000e3, 1.0)["B"]
    assert scn.rate_at(530e3, np.zeros((2, 2))).rate.shape == (2, 2)


# a beam waist of 1.2 mm violates the Yura condition (phi >= 1) on an uplink
# at |theta| <= 0.5, and only there: those points fail deep in the pipeline
YURA_FAILS = {"beam": {"waist": 1.2e-3}}


@pytest.mark.filterwarnings("ignore:Yura parameter")
def test_strong_turbulence_point_fails_as_alone():
    scn = Scenario.build("up", "night", "clear", setup=1, **YURA_FAILS)
    with pytest.raises(StrongTurbulenceError) as alone:
        scn.bounds_at(150e3, 0.5)
    h = np.array([1000e3, 150e3, 150e3, 2000e3])
    theta = np.array([1.0, 0.5, 0.0, 1.0])
    with pytest.raises(type(alone.value)) as swept:
        scn.bounds_at(h, theta)
    assert str(swept.value) == str(alone.value)
    thetas = np.array([1.0, -0.5, 0.0])
    errors = []
    for theta in thetas:
        try:
            scn.rate_at(150e3, float(theta))
        except StrongTurbulenceError as exc:
            errors.append(str(exc))
    with pytest.raises(StrongTurbulenceError) as swept:
        scn.rate_at(150e3, thetas)
    assert errors and str(swept.value) == errors[0]


@pytest.mark.filterwarnings("ignore:Yura parameter")
def test_first_failing_point_sets_the_error():
    # point 1 fails on strong turbulence, point 3 on its angle; a loop over
    # the points reports point 1, and so does the sweep
    scn = Scenario.build("up", "night", "clear", setup=1, **YURA_FAILS)
    with pytest.raises(StrongTurbulenceError) as alone:
        scn.bounds_at(150e3, 0.0)
    with pytest.raises(StrongTurbulenceError) as swept:
        scn.bounds_at(np.array([1000e3, 150e3, 1000e3, 1000e3]), np.array([1.0, 0.0, 1.0, 2.0]))
    assert str(swept.value) == str(alone.value)


def test_warnings_once_per_offending_point():
    worst = Scenario.build("up", "day", setup=1, profile="hv-worst-day")
    thetas = np.array([0.0, 1.0, 0.2, 1.1])
    with warnings.catch_warnings(record=True) as one_by_one:
        warnings.simplefilter("always")
        for theta in thetas:
            worst.rate_at(500e3, float(theta))
    with warnings.catch_warnings(record=True) as swept:
        warnings.simplefilter("always")
        worst.rate_at(500e3, thetas)
    messages = sorted(str(w.message) for w in one_by_one)
    assert messages and sorted(str(w.message) for w in swept) == messages


def test_bounds_sweep_integrates_b_once_per_point(monkeypatch):
    """B at eta, and bound_b(nbar) where 0 < nbar < eta: no repeated quadratures.

    Every tanh_sinh call of the sweep is counted, so a per-sweep fading
    average would show up as a call of its own.
    """
    scn = Scenario.build("down", "day", "clear", setup=1)
    h = np.repeat(np.geomspace(200e3, 36000e3, 6), 2)
    theta = np.tile([0.0, 0.8], 6)
    scn.bounds_at(h[0], theta[0])  # the turbulence columns, cached per process
    atmosphere._line_of_sight.cache_clear()
    quadratures = []

    def counted_tanh_sinh(f, a, b, *args, **kwargs):
        quadratures.append((f.__name__, np.broadcast(a, b, *args).size))
        return tanh_sinh(f, a, b, *args, **kwargs)

    for module in (atmosphere, bounds, turbulence):
        monkeypatch.setattr(module, "tanh_sinh", counted_tanh_sinh)
    grid = scn.bounds_at(h, theta)
    live = int(np.sum(grid["nbar"] < grid["eta"]))
    assert 0 < live < h.size  # the grid reaches entanglement breaking
    # one extinction batch, then the wander batches of B and of bound_b(nbar)
    assert quadratures == [("_extinction", h.size), ("_wander", h.size), ("_wander", live)]
