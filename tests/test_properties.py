"""Properties over the documented configuration space.

4 presets x up/down x day/night x clear/cloudy, altitudes 100-36,000 km and
|theta| <= 1 rad: every point returns bounds and a rate (validity warnings
allowed), and they are ordered exactly as the theory orders them.
"""

import itertools
import math
import warnings

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from satlink.scenario import Scenario

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
        rate = scn.rate_at(h, theta).rate
    assert 0.0 <= b["lower"] <= b["lower_middle"] <= b["upper"] <= b["B"] <= b["V"] <= b["U"]
    assert 0.0 <= rate <= b["B"]
