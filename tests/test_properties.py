"""Properties over the documented configuration space.

4 presets x up/down x day/night x clear/cloudy, altitudes 100-36,000 km and
|theta| <= 1 rad: every point returns bounds and a rate (validity warnings
allowed), and they are ordered exactly as the theory orders them.  Along a
pass, the rate falls as the satellite leaves the zenith.  Every command run
on that space, with a 1 nm or a 0.1 pm filter, exits 0 or 3 (numerical
failure); a malformed scenario or protocol string exits 2 and names its key.
So does a numeric key outside its domain, while one inside it, however
extreme, exits 0 with finite numbers or 3.
"""

import contextlib
import io
import itertools
import json
import math
import re
import string
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from satlink.cli import main
from satlink.cvqkd import ProtocolParams
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
        middle = thermal_lower_middle(scn.nbar, scn.fading_model(h, theta), b.B)
        rate = scn.rate_at(h, theta).rate
    assert 0.0 <= b.lower <= middle <= b.upper <= b.B <= b.V <= b.U
    assert 0.0 <= rate <= b.B


# the (mu, phi_thr) sets of the passes in scripts/orbital_yield.py
PASS_PROTOCOLS = [(9.28, 0.73), (9.65, 0.83), (7.0, 0.68)]


@pytest.mark.parametrize("config", CONFIGS)
def test_rate_does_not_rise_away_from_zenith(config):
    # orbit.orbital_rate takes a slice's worst rate at its edge of larger
    # |theta|, which holds while the rate does not rise with |theta|
    theta = np.linspace(0.0, 1.0, 101).tolist()
    for mu, phi in PASS_PROTOCOLS:
        protocol = ProtocolParams(mu=mu, phi_thr=phi)
        scn = Scenario.build(*config[1:], setup=config[0], protocol=protocol)
        for h in (150e3, 300e3, 530e3, 1000e3, 2000e3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rate = [res.rate for res in scn.rate_sweep(h, theta, "collective")]
            assert np.all(np.diff(rate) <= 0.0), (mu, phi, h, rate)


# the string-valued keys and the values they take
STRING_KEYS = {
    "scenario.link": ("up", "down"),
    "scenario.period": ("day", "night"),
    "scenario.sky": ("clear", "cloudy"),
    "protocol.detection": ("hom", "het"),
    "protocol.tail": ("gaussian", "hoeffding"),
}

altitudes_km = st.floats(100.0, 36000.0)
angles = st.floats(-1.0, 1.0)


@st.composite
def command_argv(draw) -> list[str]:
    """One command on the documented space, with small grids and sample counts."""
    h = f"{draw(altitudes_km)!r}km"
    theta = repr(draw(angles))
    return draw(st.sampled_from([
        ["show-config"],
        ["bounds", f"--h-grid={h}:{draw(altitudes_km)!r}km:2", f"--theta={theta}"],
        ["rate", "--h", h, f"--theta-grid={theta}:{draw(angles)!r}:2"],
        ["pass", "--h", h, "--blocks", str(draw(st.integers(1, 3)))],
        ["validate-mc", "--h", h, f"--theta={theta}", "--samples", "200", "--bins", "5"],
        ["max-range", "--mode", draw(st.sampled_from(["simple", "tight"]))],
        ["compare-fiber", "--d-grid", "50km:5000km:3", "--n-rep", "0", "5",
         "--sat", f"h={h},blocks=1"],
    ]))


@st.composite
def documented_sets(draw) -> list[str]:
    """--set pairs that pick a point of the documented configuration space."""
    setup, link, period, sky = draw(st.sampled_from(CONFIGS))
    filter_width = draw(st.sampled_from(["1nm", "0.1pm"]))
    return [
        "--set", f"scenario.setup={setup}", "--set", f"scenario.link={link}",
        "--set", f"scenario.period={period}", "--set", f"scenario.sky={sky}",
        "--set", f"receiver.filter={filter_width}",
    ]


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@seed(20261018)
@given(argv=command_argv(), sets=documented_sets())
def test_documented_commands_exit_0_or_3(argv, sets):
    code, out, err = run_main(argv + sets)
    assert code in (0, 3), err
    if code == 3:
        assert out == "" and err.startswith("numerical error: ")


@seed(20261018)
@given(
    argv=command_argv(),
    sets=documented_sets(),
    key=st.sampled_from(sorted(STRING_KEYS)),
    value=st.text(string.ascii_letters + "-_", max_size=8),
)
def test_malformed_string_values_exit_2_naming_the_key(argv, sets, key, value):
    assume(value not in STRING_KEYS[key])
    code, out, err = run_main(argv + sets + ["--set", f"{key}={value}"])
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ")
    assert key.rpartition(".")[2] in err


def quantities(lo: float, hi: float = math.inf, lo_in: bool = False, hi_in: bool = False):
    """(membership test, values) for the interval from lo to hi, its ends
    included as given: values inside, at and next to its ends, and anywhere."""
    def inside(x):
        return (lo < x or lo_in and x == lo) and (x < hi or hi_in and x == hi)

    ends = [end for end in (lo, hi) if math.isfinite(end)]
    edges = [math.nextafter(end, way) for end in ends for way in (-math.inf, math.inf)] + ends
    finite = dict(allow_nan=False, allow_infinity=False)
    return inside, st.one_of(
        st.sampled_from(edges),
        st.floats(lo, hi, exclude_min=not lo_in, exclude_max=not hi_in, **finite),
        st.floats(**finite),
    )


def counts(least: int, most: float = math.inf):
    """(membership test, values) for the whole numbers from least to most."""
    top = min(most, 10**12)
    return (lambda n: least <= n <= most), st.one_of(
        st.sampled_from([least - 1, least, top, top + 1]),
        st.integers(least, top),
        st.integers(-top, top),
    )


POSITIVE = quantities(0.0)
NON_NEGATIVE = quantities(0.0, lo_in=True)
# every numeric key and the domain the README gives it, spelled out here
NUMERIC_KEYS = {
    "scenario.setup": counts(1, 4),
    "beam.wavelength": POSITIVE,
    "beam.waist": POSITIVE,
    "beam.curvature": ((lambda x: x != 0.0), st.one_of(
        st.sampled_from([0.0, 5e-324, -5e-324]), st.floats(allow_nan=False, allow_infinity=False))),
    "receiver.aperture": POSITIVE,
    "receiver.fov_sr": POSITIVE,
    "receiver.detection_time": POSITIVE,
    "receiver.filter": POSITIVE,
    "receiver.efficiency": quantities(0.0, 1.0, hi_in=True),
    "receiver.excess_photons": NON_NEGATIVE,
    "atmosphere.alpha0": NON_NEGATIVE,
    "atmosphere.scale_height": POSITIVE,
    "pointing.error_rad": NON_NEGATIVE,
    "protocol.N": counts(2),
    "protocol.m": counts(1),
    "protocol.f_et": quantities(0.0, 1.0, lo_in=True, hi_in=True),
    "protocol.beta": quantities(0.0, 1.0, hi_in=True),
    "protocol.p_ec": quantities(0.0, 1.0, hi_in=True),
    "protocol.eps_s": quantities(0.0, 1.0),
    "protocol.eps_h": quantities(0.0, 1.0),
    "protocol.eps_pe": quantities(0.0, 1.0),
    "protocol.eps_cor": quantities(0.0, 1.0),
    "protocol.d": counts(2),
    "protocol.mu": quantities(1.0),
    "protocol.phi": quantities(0.0, 1.0),
    "protocol.clock_hz": POSITIVE,
    "noise.h_sky": NON_NEGATIVE,
    "noise.kappa": NON_NEGATIVE,
}
# the default of the other key of a pair with a cross-key rule, m < N
PAIRED = {"protocol.N": ("protocol.m", 15_000_000), "protocol.m": ("protocol.N", 100_000_000)}


def non_finite_numbers(out: str) -> list[str]:
    """The nan and inf in an output, apart from the configuration it records."""
    if out.startswith("{"):
        report = json.loads(out)
        del report["config"]
        numbers = re.findall(r"NaN|-?Infinity", json.dumps(report))
    else:
        lines = [line for line in out.splitlines() if not line.startswith("# config:")]
        numbers = re.findall(r"\b(?:nan|inf)\b", "\n".join(lines))
    return numbers


@st.composite
def numeric_key_value(draw) -> tuple[str, object, bool]:
    """A numeric key, a value for it, and whether the value is in its domain."""
    key = draw(st.sampled_from(sorted(NUMERIC_KEYS)))
    inside, values = NUMERIC_KEYS[key]
    value = draw(values)
    return key, value, inside(value)


@seed(20261019)
@given(argv=command_argv(), sets=documented_sets(), key_value=numeric_key_value())
def test_numeric_keys_exit_by_their_domain(argv, sets, key_value):
    key, value, inside = key_value
    command = argv + sets + ["--set", f"{key}={value!r}"]
    code, out, err = run_main(command)
    if key in PAIRED and inside:
        other, default = PAIRED[key]
        if (value >= default) if key == "protocol.m" else (value <= default):
            inside = False
            key = f"{key} must be below {other}" if key == "protocol.m" else f"{other} must be below {key}"
    if not inside:
        assert code == 2 and out == "", err
        assert err.startswith("configuration error: ") and key in err, err
    elif code == 2:
        # a simple max-range without background photons has no Fresnel range:
        # a dark sky on a downlink, or a zero albedo factor on an uplink (one
        # that underflows to 0 is a numerical failure)
        assert command[:3] == ["max-range", "--mode", "simple"], err
        override = "noise.kappa" if "scenario.link=up" in sets else "noise.h_sky"
        assert key == override and value == 0, err
        assert "the Fresnel range needs background photons" in err
    elif code == 3:
        assert out == "" and err.startswith("numerical error: "), err
    else:
        assert code == 0, err
        if command[0] != "show-config":  # whose output is all configuration
            assert non_finite_numbers(out) == [], out
