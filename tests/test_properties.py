"""Properties over the documented configuration space.

4 presets x up/down x day/night x clear/cloudy, altitudes 100-36,000 km and
|theta| <= 1 rad: every point returns bounds and a rate (validity warnings
allowed), and they are ordered exactly as the theory orders them.  Along a
pass, the rate falls as the satellite leaves the zenith.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from satlink.scenario import Scenario

from _reference import thermal_lower_middle

CONFIGS = list(itertools.product((1, 2, 3, 4), ("up", "down"), ("day", "night"), ("clear", "cloudy")))


@seed(20201202)
@settings(max_examples=1000, deadline=None, database=None)
@given(
    config=st.sampled_from(CONFIGS),
    log_h=st.floats(5.0, math.log10(36000e3)),
    theta=st.floats(-1.0, 1.0),
)
def test_bounds_and_rate_are_ordered(config, log_h, theta):
    h = min(max(10.0**log_h, 100e3), 36000e3)
    scn = Scenario.build(*config[1:], setup=config[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        b = scn.bounds_at(h, theta)
        middle = thermal_lower_middle(scn.nbar, scn.fading_model(h, theta), b["B"])
        rate = scn.rate_at(h, theta).rate
    assert 0.0 <= b["lower"] <= middle <= b["upper"] <= b["B"] <= b["V"] <= b["U"]
    assert 0.0 <= rate <= b["B"]


@pytest.mark.parametrize("config", CONFIGS)
def test_rate_does_not_rise_away_from_zenith(config):
    # orbit.slice_min_rate takes a slice's worst rate at its endpoint of
    # larger |theta|, which holds while the rate does not rise with |theta|
    scn = Scenario.build(*config[1:], setup=config[0])
    theta = np.linspace(0.0, 1.0, 101)
    for h in (150e3, 2000e3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rate = scn.rate_at(h, theta).rate
        assert np.all(np.diff(rate) <= 0.0), (h, rate)
