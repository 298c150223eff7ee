import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given
from hypothesis import strategies as st

from satlink import ConfigError, NumericalError, Scenario, _integrate, bounds
from satlink.beam import plob
from satlink.cli import main
from satlink.bounds import bound_b_model, entropy_h, loss_bounds, model_bounds, thermal_correction, thermal_lower
from satlink.fading import FadingModel
from _reference import (
    average_phi_thermal,
    average_plob,
    bound_slow,
    bound_v,
    fading_pdf,
    model_spot_sizes,
    phi_thermal,
    thermal_lower_middle,
    upper_bound,
    wander_delta,
    wander_sums,
)


@pytest.fixture(scope="module")
def night_down():
    return Scenario.build("down", "night", setup=1)


@pytest.fixture(scope="module")
def night_up():
    return Scenario.build("up", "night", setup=1)


class TestEntropy:
    def test_anchors(self):
        assert entropy_h(0.0) == 0.0
        assert entropy_h(1.0) == pytest.approx(2.0, rel=1e-12)

    def test_derivative_by_finite_differences(self):
        x, eps = 0.5, 1e-6
        fd = (entropy_h(x + eps) - entropy_h(x - eps)) / (2 * eps)
        assert fd == pytest.approx(math.log2((x + 1) / x), abs=1e-6)

    @given(x=st.floats(0.0, 100.0))
    def test_non_negative(self, x):
        assert entropy_h(x) >= 0.0

    def test_negative_dust_tolerated(self):
        assert entropy_h(-1e-13) == 0.0


class TestPhiThermal:
    def test_pure_loss_reduction(self):
        for tau in (0.1, 0.5, 0.9):
            assert phi_thermal(tau, 0.0) == pytest.approx(plob(tau), rel=1e-12)

    def test_entanglement_breaking(self):
        assert phi_thermal(0.3, 0.31) == 0.0
        assert phi_thermal(0.3, 1.0) == 0.0

    def test_continuous_at_breaking_point(self):
        tau = 0.4
        vals = [phi_thermal(tau, tau - d) for d in (1e-2, 1e-4, 1e-6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_thermal(0.0, 0.1)
        with pytest.raises(ValueError):
            phi_thermal(0.5, -0.1)


class TestLossLimitedBound:
    def test_aligned_limit(self, night_down):
        m = night_down.fading_model(500e3, 0.0)
        frozen = replace(m, sigma2=1e-15)
        assert bound_b_model(frozen) == pytest.approx(plob(m.eta), rel=1e-6)
        assert wander_delta(m.eta, 0.0, m.gamma, m.r0) == 1.0

    def test_delta_in_unit_interval(self, night_down, night_up):
        for scn in (night_down, night_up):
            for h in np.geomspace(100e3, 36000e3, 6):
                for theta in (0.0, 1.0):
                    m = scn.fading_model(h, theta)
                    delta = wander_delta(m.eta, m.sigma2, m.gamma, m.r0)
                    assert 0.0 < delta <= 1.0

    def test_average_oracle(self, night_down, night_up):
        # closed form vs direct quadrature of the fading-averaged capacity
        for scn in (night_down, night_up):
            for h in (150e3, 530e3, 5000e3):
                for theta in (0.0, 1.0):
                    m = scn.fading_model(h, theta)
                    assert bound_b_model(m) == pytest.approx(average_plob(m), rel=1e-6)

    def test_tau_space_oracle(self, night_down):
        # third route: integrate pdf * plob directly in tau space
        m = night_down.fading_model(530e3, 1.0)
        val, err = scipy.integrate.quad(
            lambda t: fading_pdf(t, m) * plob(t), 0.0, m.eta, limit=500
        )
        assert bound_b_model(m) == pytest.approx(val, rel=1e-6)

    def test_domain(self):
        with pytest.raises(NumericalError):
            FadingModel(eta=1.5, gamma=2.0, r0=1.0, sigma2=0.1, eta_atm=1.0)


class TestThermalBounds:
    def test_zero_noise_collapse(self, night_down):
        m = night_down.fading_model(500e3, 0.0)
        b = bound_b_model(m)
        assert upper_bound(0.0, m) == b
        assert thermal_lower(0.0, m, b) == b and thermal_lower_middle(0.0, m, b) == b

    def test_correction_vanishes_at_zero(self, night_down):
        m = night_down.fading_model(500e3, 0.0)
        assert thermal_correction(0.0, m, 0.0) == 0.0
        assert thermal_correction(1e-12, m, loss_bounds([m], 1e-12)[0][1]) < 1e-9

    def test_night_correction_negligible_in_leo(self, night_down):
        nbar = night_down.nbar
        for h in (300e3, 2000e3):
            m = night_down.fading_model(h, 0.0)
            assert upper_bound(nbar, m) / bound_b_model(m) > 0.99

    def test_small_deviation_at_geo(self, night_down):
        nbar = night_down.nbar
        m = night_down.fading_model(35786e3, 0.0)
        ratio = upper_bound(nbar, m) / bound_b_model(m)
        assert 0.5 < ratio < 0.9999

    def test_ordering_grid(self, night_down, night_up):
        for scn in (night_down, night_up):
            nbar = scn.nbar
            for h in np.geomspace(150e3, 36000e3, 20):
                for theta in np.linspace(0.0, 1.0, 5):
                    m = scn.fading_model(h, theta)
                    b = bound_b_model(m)
                    up = upper_bound(nbar, m)
                    lo = thermal_lower(nbar, m, b)
                    middle = thermal_lower_middle(nbar, m, b)
                    assert lo <= middle + 1e-12
                    assert middle <= up + 1e-9
                    assert up <= b + 1e-12

    def test_upper_dominates_average_phi(self, night_down):
        sc_day = Scenario.build("down", "day", sky="clear", setup=1)
        nbar = sc_day.nbar
        for h in (200e3, 1000e3):
            m = sc_day.fading_model(h, 0.0)
            assert average_phi_thermal(nbar, m) <= upper_bound(nbar, m) + 1e-9

    def test_monotone_in_altitude_and_angle(self, night_down):
        nbar = night_down.nbar
        hs = np.geomspace(150e3, 36000e3, 10)
        ups = [upper_bound(nbar, night_down.fading_model(h, 0.0)) for h in hs]
        assert all(a >= b for a, b in zip(ups, ups[1:]))
        bs = [bound_b_model(night_down.fading_model(h, 0.0)) for h in hs]
        assert all(a >= b for a, b in zip(bs, bs[1:]))
        m0 = night_down.fading_model(530e3, 0.0)
        m1 = night_down.fading_model(530e3, 1.0)
        assert upper_bound(nbar, m0) >= upper_bound(nbar, m1)
        assert bound_b_model(m0) >= bound_b_model(m1)
        assert thermal_lower(nbar, m0, bound_b_model(m0)) >= thermal_lower(nbar, m1, bound_b_model(m1))

    def test_zero_rate_regimes(self, night_down):
        m = night_down.fading_model(530e3, 0.0)
        assert upper_bound(m.eta * 1.01, m) == 0.0
        assert upper_bound(1.0, m) == 0.0

    def test_leo_collapse_night(self, night_down):
        nbar = night_down.nbar
        m = night_down.fading_model(500e3, 0.0)
        up = upper_bound(nbar, m)
        lo = thermal_lower(nbar, m, bound_b_model(m))
        assert up / lo < 1.001

    def test_clear_day_gap(self):
        sc = Scenario.build("down", "day", sky="clear", setup=1)
        nbar = sc.nbar
        m_low = sc.fading_model(160e3, 0.0)
        m_high = sc.fading_model(2500e3, 0.0)
        low_ratio = upper_bound(nbar, m_low) / thermal_lower(nbar, m_low, bound_b_model(m_low))
        assert low_ratio < 1.1  # near coincidence at the bottom of LEO
        hi_up = upper_bound(nbar, m_high)
        hi_lo = thermal_lower(nbar, m_high, bound_b_model(m_high))
        assert hi_up > 2.0 * hi_lo or hi_lo == 0.0  # gap is open


class TestSlowDetectionBound:
    def test_reduces_to_fixed_loss_bound(self):
        from satlink.atmosphere import eta_atm

        sc = Scenario.build("down", "night", setup=1)
        scn = replace(sc, pointing_error=0.0)
        spots = model_spot_sizes(530e3, 0.4, scn.beam, scn.resolved_profile, scn.link, scn.pointing_error)
        val = bound_slow(spots, scn.receiver, eta_atm(530e3, 0.4, scn.extinction))
        assert val == pytest.approx(bound_v(530e3, 0.4, scn.beam, scn.receiver), rel=1e-9)

    def test_upper_bounds_averaged_capacity(self, night_down, night_up):
        # the slow-detection value must dominate the capacity of the truly
        # fading-averaged channel plob(E[tau]); it is a looser bound than B
        # (about 2x) because its long-term denominator undercounts the
        # wander smearing relative to the exact Gaussian average
        from satlink.atmosphere import eta_atm

        for scn in (night_down, night_up):
            for h in (200e3, 530e3, 5000e3):
                for theta in (0.0, 1.0):
                    m = scn.fading_model(h, theta)
                    spots = model_spot_sizes(h, theta, scn.beam, scn.resolved_profile, scn.link)
                    slow = bound_slow(spots, scn.receiver, eta_atm(h, theta, scn.extinction))
                    e_tau, _ = scipy.integrate.quad(
                        lambda t: fading_pdf(t, m) * t, 0.0, m.eta, limit=400
                    )
                    assert slow >= plob(e_tau) - 1e-12

    def test_far_field_chain(self, night_up):
        from satlink.atmosphere import eta_atm
        from satlink.beam import LN2
        from _reference import eta_slow

        for h in (500e3, 5000e3):
            s = model_spot_sizes(h, 1.0, night_up.beam, night_up.resolved_profile, night_up.link)
            atm = eta_atm(h, 1.0, night_up.extinction)
            k_slow = plob(eta_slow(s, night_up.receiver, atm))
            cap = (2.0 / LN2) * night_up.receiver.aperture**2 / (s.w_lt**2 + s.sigma_p2)
            assert k_slow <= cap


def zenith_models():
    """(model, nbar) at zenith of the 32 configurations x {default, 0.1 pm}
    filters, from 10 km to 1e6 km, wherever fading_model returns."""
    configs = itertools.product((1, 2, 3, 4), ("up", "down"), ("day", "night"), ("clear", "cloudy"))
    for (setup, *fields), filt in itertools.product(configs, ({}, {"filter_width": 1e-13})):
        scn = Scenario.build(*fields, setup=setup, receiver=filt)
        for z in np.geomspace(1e4, 1e9, 11).tolist():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    model = scn.fading_model(z, 0.0)
            except NumericalError:  # far field at 1e9 m, near field of setups 3 and 4
                continue
            yield model, scn.nbar


def test_model_bounds_agree_with_the_batch(monkeypatch):
    # the tight max-range probe's two rows in math: the batch's bounds to
    # rounding, accepted at the same level
    calls = {"batch": 0, "math": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(bounds, "_wander_batch", counted("batch", bounds._wander_batch))
    monkeypatch.setattr(bounds, "_wander_rows", counted("math", bounds._wander_rows))
    count = 0
    for model, nbar in zenith_models():
        batch, rows = calls["batch"], calls["math"]
        want = loss_bounds([model], nbar)[0]
        got = model_bounds(model, nbar)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        # a call per level on both
        assert calls["math"] - rows == calls["batch"] - batch
        count += 1
    assert count > 600


def test_fused_sums_are_the_reference_kernels():
    # the one loop over the nodes adds up the old kernel's values in node
    # order: the same doubles, level by level
    count = 0
    for model, nbar in zenith_models():
        if model.sigma2 == 0.0:
            continue
        etas = (model.eta, nbar)[: 1 + (0.0 < nbar < model.eta)]
        args = model.r0 * model.r0 / (2.0 * model.sigma2), model.gamma / 2.0, etas
        for level in (0, 1):
            nodes = _integrate._tanh_sinh_floats(level, 0.0, 1.0)
            assert bounds._wander_rows(nodes, *args) == wander_sums(nodes, *args)
        count += 1
    assert count > 600


TIGHT_CASES = list(itertools.product(
    (1, 2, 3, 4), ("up", "down"), ("day", "night"), ("clear", "cloudy"), ({}, {"filter_width": 1e-13})))


def test_max_range_with_the_reference_kernel(monkeypatch):
    # the 64 tight solves, found, capped or failed, come out the same with the
    # old kernel; every probe calls thermal_upper once, and model_bounds
    # only where nbar < eta
    probes = {"upper": 0, "b": 0, "dead": 0}
    thermal_upper, model_bounds = bounds.thermal_upper, bounds.model_bounds

    def counted_upper(nbar, model, *b):
        probes["upper"] += 1
        probes["dead"] += not nbar < model.eta
        return thermal_upper(nbar, model, *b)

    def counted_bounds(model, nbar):
        probes["b"] += 1
        return model_bounds(model, nbar)

    def solve(setup, link, period, sky, filt):
        scn = Scenario.build(link, period, sky, setup=setup, receiver=filt)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return scn.max_range("tight")
        except NumericalError as exc:
            return str(exc)

    monkeypatch.setattr(bounds, "thermal_upper", counted_upper)
    monkeypatch.setattr(bounds, "model_bounds", counted_bounds)
    fused = [solve(*case) for case in TIGHT_CASES]
    assert probes["b"] == probes["upper"] - probes["dead"] and probes["dead"] > 0
    monkeypatch.setattr(bounds, "_wander_rows", wander_sums)
    assert [solve(*case) for case in TIGHT_CASES] == fused
    assert sum(isinstance(r, str) for r in fused) == 2
    assert sum(not isinstance(r, str) and r.capped for r in fused) > 0


class TestMaxRange:
    def test_faster_detector_extends_day_uplink(self):
        sc = Scenario.build("up", "day", setup=1)
        fast = replace(sc, receiver=replace(sc.receiver, detection_time=1e-9))
        base = sc.max_range("tight").z_max
        extended = fast.max_range("tight").z_max
        assert extended > base
        assert extended == pytest.approx(340e3, rel=0.5)

    def test_entanglement_breaking_everywhere(self):
        sc = Scenario.build("up", "day", setup=1)
        blinded = replace(sc, receiver=replace(sc.receiver, excess_photons=1.5))
        res = blinded.max_range("tight")
        assert res.z_max == 0.0 and not res.capped

    def test_simple_mode_formula(self):
        sc = Scenario.build("up", "day", setup=1)
        res = sc.max_range("simple")
        sigma = math.pi * 0.2 * 0.4 / (800e-9 * 1.6e-19)
        expected = sigma / (0.3 * 4.61e18)
        assert res.z_max == pytest.approx(expected, rel=1e-6)

    def test_bad_mode(self, capsys):
        # the CLI's --mode takes the two modes; argparse exits 2 on another
        with pytest.raises(SystemExit) as exit_info:
            main(["max-range", "--mode", "loose"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'loose'" in capsys.readouterr().err

    def test_simple_mode_needs_background_photons(self):
        # a dark sky (or a zero albedo factor) leaves no Fresnel range to take
        for sc in (
            Scenario.build("down", "night", setup=1, h_sky_override=0.0),
            Scenario.build("up", "day", setup=1, kappa_override=0.0),
        ):
            with pytest.raises(ConfigError, match="Fresnel range needs background photons"):
                sc.max_range("simple")
