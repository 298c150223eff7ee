"""A sweep is its points: the same numbers, errors and warnings as one point at a time."""

import itertools
import warnings

import numpy as np
import pytest

from satlink import _integrate, bounds, fading
from satlink._integrate import tanh_sinh_rows
from satlink.errors import NumericalError, StrongTurbulenceError
from satlink.fading import fading_model
from satlink.scenario import CHUNK, Scenario

# the documented configurations: 4 presets x up/down x day/night x clear/cloudy
CONFIGS = list(itertools.product((1, 2, 3, 4), ("up", "down"), ("day", "night"), ("clear", "cloudy")))


def altitudes(n):
    # from 100 km: the near field of the 2 m downlink apertures included
    return np.geomspace(100e3, 36000e3, n)


@pytest.mark.parametrize("setup,link,period,sky", CONFIGS)
def test_bounds_grid_matches_points(setup, link, period, sky):
    scn = Scenario.build(link, period, sky, setup=setup)
    points = [(h, theta) for h in altitudes(5).tolist() for theta in (-1.0, 0.0, 0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = scn.bounds_sweep(points)
        assert len(grid) == len(points)
        for row, point in zip(grid, points):
            assert row == scn.bounds_at(*point)


@pytest.mark.parametrize("setup,link,period,sky", CONFIGS)
def test_rate_grid_matches_points(setup, link, period, sky):
    scn = Scenario.build(link, period, sky, setup=setup)
    thetas = np.linspace(-1.0, 1.0, 9).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for h in altitudes(3).tolist():
            grid = scn.rate_sweep(h, thetas, "collective")
            assert len(grid) == len(thetas)
            for row, theta in zip(grid, thetas):
                assert row == scn.rate_at(h, theta)


def test_sweep_of_no_points():
    scn = Scenario.build("up", "night", setup=1)
    assert scn.bounds_sweep([]) == []
    assert scn.rate_sweep(530e3, [], "collective") == []


# a beam waist of 1.2 mm violates the Yura condition (phi >= 1) on an uplink
# at |theta| <= 0.5, and only there: those points fail deep in the pipeline
YURA_FAILS = {"beam": {"waist": 1.2e-3}}


@pytest.mark.filterwarnings("ignore:Yura parameter")
def test_strong_turbulence_point_fails_as_alone():
    scn = Scenario.build("up", "night", "clear", setup=1, **YURA_FAILS)
    with pytest.raises(StrongTurbulenceError) as alone:
        scn.bounds_at(150e3, 0.5)
    points = [(1000e3, 1.0), (150e3, 0.5), (150e3, 0.0), (2000e3, 1.0)]
    with pytest.raises(type(alone.value)) as swept:
        scn.bounds_sweep(points)
    assert str(swept.value) == str(alone.value)
    thetas = [1.0, -0.5, 0.0]
    errors = []
    for theta in thetas:
        try:
            scn.rate_at(150e3, theta)
        except StrongTurbulenceError as exc:
            errors.append(str(exc))
    with pytest.raises(StrongTurbulenceError) as swept:
        scn.rate_sweep(150e3, thetas, "collective")
    assert errors and str(swept.value) == errors[0]


def messages(caught) -> list[str]:
    return [str(w.message) for w in caught]


def test_first_failing_point_sets_the_error():
    # point 1 fails on strong turbulence, point 3 on its angle; a loop over
    # the points reports point 1, and so does the sweep, with the warnings
    # of the points up to and including point 1
    scn = Scenario.build("up", "night", "clear", setup=1, **YURA_FAILS)
    points = [(1000e3, 1.0), (150e3, 0.0), (1000e3, 1.0), (1000e3, 2.0)]
    with warnings.catch_warnings(record=True) as one_by_one:
        warnings.simplefilter("always")
        scn.bounds_at(*points[0])
        with pytest.raises(StrongTurbulenceError) as alone:
            scn.bounds_at(*points[1])
    with warnings.catch_warnings(record=True) as swept_warnings:
        warnings.simplefilter("always")
        with pytest.raises(StrongTurbulenceError) as swept:
            scn.bounds_sweep(points)
    assert str(swept.value) == str(alone.value)
    assert messages(one_by_one) and messages(swept_warnings) == messages(one_by_one)


def test_warnings_once_per_offending_point():
    worst = Scenario.build("up", "day", setup=1, profile="hv-worst-day")
    thetas = [0.0, 1.0, 0.2, 1.1]
    sweeps = (
        (lambda theta: worst.rate_at(500e3, theta), lambda: worst.rate_sweep(500e3, thetas, "collective")),
        (lambda theta: worst.bounds_at(500e3, theta), lambda: worst.bounds_sweep([(500e3, t) for t in thetas])),
    )
    for point, sweep in sweeps:
        with warnings.catch_warnings(record=True) as one_by_one:
            warnings.simplefilter("always")
            for theta in thetas:
                point(theta)
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always")
            sweep()
        assert messages(one_by_one) and messages(swept) == messages(one_by_one)


def test_bounds_sweep_builds_each_model_once(monkeypatch):
    scn = Scenario.build("up", "day", setup=2)
    points = [(h, theta) for h in altitudes(4).tolist() for theta in (0.0, 0.9)]
    built = []

    def counted_fading_model(h, theta, *args):
        built.append((h, theta))
        return fading_model(h, theta, *args)

    monkeypatch.setattr(fading, "fading_model", counted_fading_model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scn.bounds_sweep(points)
    assert built == points


def counted_batches(monkeypatch) -> list:
    """(integrand, rows) of every tanh_sinh_rows call of the pipeline, from here on."""
    quadratures = []

    def counted_tanh_sinh_rows(f, a, b, *args, **kwargs):
        rows = tanh_sinh_rows(f, a, b, *args, **kwargs)
        quadratures.append((f.__name__, len(rows)))
        return rows

    monkeypatch.setattr(_integrate, "tanh_sinh_rows", counted_tanh_sinh_rows)
    return quadratures


def test_bounds_sweep_integrates_b_once_per_point(monkeypatch):
    """One batch: two rows per point, which share each node's work, B at
    eta and B at nbar where 0 < nbar < eta (eta again elsewhere); no other
    quadrature.

    Every tanh_sinh_rows call of the sweep is counted, so a point that
    integrated alone, a line of sight that the Gauss-Laguerre rule should
    take, or a per-sweep fading average would show up.
    """
    scn = Scenario.build("down", "day", "clear", setup=1)
    points = [(h, theta) for h in np.geomspace(200e3, 36000e3, 6).tolist() for theta in (0.0, 0.8)]
    quadratures = counted_batches(monkeypatch)
    grid = scn.bounds_sweep(points)
    live = sum(row.nbar < row.eta for row in grid)
    assert 0 < live < len(points)  # the grid reaches entanglement breaking
    assert quadratures == [("_wander_batch", 2 * len(points))]


@pytest.mark.filterwarnings("ignore:Rytov variance")
def test_sweep_beyond_one_chunk(monkeypatch):
    """A sweep larger than CHUNK points runs in chunks: each batch holds at
    most 2 * CHUNK rows, B at eta and at nbar of CHUNK points, and every
    point is the one evaluated alone."""
    scn = Scenario.build("up", "day", setup=2)
    thetas = np.linspace(-1.2, 1.2, 1001).tolist()
    points = [(h, 0.7) for h in np.geomspace(100e3, 36000e3, 300).tolist()]
    quadratures = counted_batches(monkeypatch)
    rates = scn.rate_sweep(530e3, thetas, "collective")
    grid = scn.bounds_sweep(points)
    assert len(quadratures) > 300 // CHUNK and all(rows <= 2 * CHUNK for _, rows in quadratures)
    for rate, theta in zip(rates, thetas):
        assert rate == scn.rate_at(530e3, theta)
    for row, point in zip(grid, points):
        assert row == scn.bounds_at(*point)


def test_failing_row_raises_its_points_error(monkeypatch):
    """A point whose wander integral fails makes the sweep raise the error
    that the point raises alone; the points before it are unaffected."""
    scn = Scenario.build("up", "night", setup=1)
    points = [(h, theta) for h in altitudes(3).tolist() for theta in (0.0, 0.6)]
    alone = [scn.bounds_at(*point) for point in points]
    bad = scn.fading_model(*points[3])
    s_bad = bad.r0 * bad.r0 / (2.0 * bad.sigma2)
    wander = bounds._wander_batch

    def wander_fails(nodes, s, g, etas):
        sums = np.reshape(wander(nodes, s, g, etas), (-1, 2))  # a model's two rows
        sums[s[:, 0] == s_bad] = np.nan
        return sums.ravel().tolist()

    monkeypatch.setattr(bounds, "_wander_batch", wander_fails)
    with pytest.raises(NumericalError) as lone:
        scn.bounds_at(*points[3])
    with pytest.raises(type(lone.value)) as swept:
        scn.bounds_sweep(points)
    assert str(swept.value) == str(lone.value)
    assert scn.bounds_sweep(points[:3]) == alone[:3]
