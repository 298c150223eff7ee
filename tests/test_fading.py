import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from satlink.beam import BeamParams, ReceiverParams, eta_diffraction, eta_total
from satlink.fading import (
    FadingModel,
    bessel_f0,
    bessel_f1,
    eta_short_term,
    eta_slow,
    fading_cdf,
    fading_model,
    fading_params,
    fading_pdf,
    p_slot,
    p_threshold,
    pointing_variance,
    sample_fading,
)
from satlink.turbulence import TurbulenceProfile

NIGHT = TurbulenceProfile.from_name("hv-night")
BEAM = BeamParams(wavelength=800e-9, waist=0.2)
RECEIVER = ReceiverParams(aperture=0.4, efficiency=0.4)


def bessel_series(order: int, y: float, terms: int = 200) -> float:
    """Power-series oracle for the modified Bessel functions I0, I1.

    All terms are positive, so the summation is numerically stable; it is
    accurate to full double precision for y <= 30.
    """
    total = 0.0
    q = y * y / 4.0
    term = 1.0 if order == 0 else y / 2.0
    for k in range(terms):
        total += term
        term *= q / ((k + 1.0) * (k + 1.0 + order))
        if term < total * 1e-18:
            break
    return total


@pytest.fixture(scope="module")
def model_down() -> FadingModel:
    return fading_model(530e3, 1.0, BEAM, RECEIVER, NIGHT, "down")


@pytest.fixture(scope="module")
def model_up() -> FadingModel:
    return fading_model(500e3, 0.5, BEAM, RECEIVER, NIGHT, "up")


class TestPointing:
    def test_one_microrad_at_1000km(self):
        assert pointing_variance(1e6) == pytest.approx(1.0)

    def test_zero_distance(self):
        assert pointing_variance(0.0) == 0.0

    def test_quadratic_in_error(self):
        assert pointing_variance(5e5, 2e-6) == pytest.approx(4 * pointing_variance(5e5, 1e-6))


class TestBesselFactors:
    @pytest.mark.parametrize("x", [1e-8, 1e-4, 0.05, 0.5, 2.0, 7.5, 15.0])
    def test_against_series_oracle(self, x):
        y = 2.0 * x
        i0 = bessel_series(0, y)
        i1 = bessel_series(1, y)
        assert bessel_f0(x) == pytest.approx(1.0 / (1.0 - math.exp(-y) * i0), rel=1e-12)
        assert bessel_f1(x) == pytest.approx(math.exp(-y) * i1, rel=1e-12)

    def test_small_argument_behavior(self):
        # f1(x) ~ x and f0(x) ~ 1/(2x) as x -> 0
        assert bessel_f1(1e-6) == pytest.approx(1e-6, rel=1e-5)
        assert bessel_f0(1e-6) == pytest.approx(0.5e6, rel=1e-4)


class TestFadingParams:
    def test_positivity_over_sweep(self):
        from satlink.geometry import slant_range
        from satlink.turbulence import spot_sizes

        for direction in ("up", "down"):
            for h in np.geomspace(100e3, 36000e3, 8):
                for theta in (0.0, 1.0):
                    z = slant_range(h, theta)
                    s = spot_sizes(z, theta, BEAM, NIGHT, direction)
                    eta_st = -math.expm1(-2 * 0.4**2 / s.w_st**2)
                    far = 2 * 0.4**2 / s.w_st**2
                    gamma, r0 = fading_params(eta_st, far, 0.4)
                    assert gamma > 0 and r0 > 0

    def test_formula_spelled_independently(self, model_down):
        # same expression written directly against scipy's Bessel routines
        from scipy.special import i0e, i1e

        x = model_down.eta_st_far
        f0 = 1.0 / (1.0 - i0e(2 * x))
        f1 = i1e(2 * x)
        log_term = math.log(2.0 * model_down.eta_st * f0)
        gamma = 4.0 * x * f0 * f1 / log_term
        r0 = 0.4 / log_term ** (1.0 / gamma)
        assert model_down.gamma == pytest.approx(gamma, rel=1e-12)
        assert model_down.r0 == pytest.approx(r0, rel=1e-12)

    def test_degenerate_geometry_rejected(self):
        # ln(2 eta_st f0) <= 1 cannot happen for physical inputs, but the
        # guard must trip when fed an inconsistent pair
        with pytest.raises(ValueError):
            fading_params(1e-9, 10.0, 0.4)

    def test_near_field_unit_eta_st(self):
        # once 2 a^2 / w^2 exceeds ~37, eta_st = 1 - exp(-x) rounds to 1; the
        # parameters stay those of the formula (f0 -> 1, ln(2 eta_st f0) -> ln 2)
        from scipy.special import i0e, i1e

        for x in (40.0, 1e3):
            assert -math.expm1(-x) == 1.0
            gamma, r0 = fading_params(1.0, x, 2.0)
            f0 = 1.0 / (1.0 - i0e(2 * x))
            log_term = math.log(2.0 * f0)
            assert gamma == pytest.approx(4.0 * x * f0 * i1e(2 * x) / log_term, rel=1e-12)
            assert r0 == pytest.approx(2.0 / log_term ** (1.0 / gamma), rel=1e-12)
        with pytest.raises(ValueError):
            fading_params(1.0 + 2.0**-52, 40.0, 2.0)

    def test_far_field_shape_limit(self):
        # gamma -> 2 (log-Rayleigh wandering) deep in the far field, where
        # eta_st = 1 - exp(-x) pairs with the linearized eta_st_far = x
        x = 1e-4
        gamma, _ = fading_params(-math.expm1(-x), x, 0.4)
        assert gamma == pytest.approx(2.0, rel=1e-3)


class TestShortTermTransmissivity:
    def test_downlink_equals_diffraction(self):
        assert eta_short_term(5e5, 0.3, BEAM, RECEIVER, NIGHT, "down") == pytest.approx(
            eta_diffraction(5e5, BEAM, 0.4), rel=1e-12
        )

    def test_uplink_strictly_below(self):
        up = eta_short_term(5e5, 0.0, BEAM, RECEIVER, NIGHT, "up")
        assert up < eta_diffraction(5e5, BEAM, 0.4)

    def test_far_field_band(self):
        val = eta_short_term(3.6e7, 0.0, BEAM, RECEIVER, NIGHT, "up")
        from satlink.turbulence import spot_sizes

        s = spot_sizes(3.6e7, 0.0, BEAM, NIGHT, "up")
        far = 2 * 0.4**2 / s.w_st**2
        assert far < 0.02
        assert abs(far - val) / val < 0.01


class TestDensity:
    def test_normalization_by_quadrature(self, model_down):
        total, err = scipy.integrate.quad(
            lambda t: fading_pdf(t, model_down), 0.0, model_down.eta, limit=500
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_interval_probabilities_match_cdf(self, model_up):
        eta = model_up.eta
        for lo, hi in [(0.2 * eta, 0.5 * eta), (0.5 * eta, 0.9 * eta)]:
            num, _ = scipy.integrate.quad(lambda t: fading_pdf(t, model_up), lo, hi, limit=300)
            assert num == pytest.approx(fading_cdf(hi, model_up) - fading_cdf(lo, model_up), abs=1e-9)

    def test_out_of_support_is_zero(self, model_down):
        assert fading_pdf(-0.1, model_down) == 0.0
        assert fading_pdf(model_down.eta * 1.0001, model_down) == 0.0

    def test_monte_carlo_ks(self, model_down):
        samples = np.sort(sample_fading(model_down, 1_000_000, seed=42))
        analytic = np.array([fading_cdf(t, model_down) for t in samples])
        n = len(samples)
        ks = max(
            np.max(np.arange(1, n + 1) / n - analytic),
            np.max(analytic - np.arange(0, n) / n),
        )
        assert ks < 0.01

    def test_array_cdf_matches_scalar(self, model_up):
        eta = model_up.eta
        tau = np.concatenate(([-0.1, 0.0], np.linspace(0.0, eta, 998)[1:-1], [eta, 2 * eta]))
        got = fading_cdf(tau.reshape(-1, 5), model_up)
        assert got.shape == (len(tau) // 5, 5)
        want = np.array([fading_cdf(float(t), model_up) for t in tau])
        assert isinstance(fading_cdf(0.5 * eta, model_up), float)
        # numpy's exp/log/power may round differently from the C library's
        np.testing.assert_allclose(got.ravel(), want, rtol=0.0, atol=4e-16)
        assert got.ravel()[:2].tolist() == [0.0, 0.0] and got.ravel()[-2:].tolist() == [1.0, 1.0]

    def test_no_wandering_concentrates_at_eta(self, model_down):
        from dataclasses import replace

        frozen = replace(model_down, sigma2=1e-12)
        assert p_threshold(0.99 * frozen.eta, frozen) == pytest.approx(1.0, abs=1e-12)


class TestThresholdProbability:
    def test_zero_threshold(self, model_down):
        assert p_threshold(0.0, model_down) == 1.0

    def test_matches_quadrature(self, model_down):
        eta_th = 0.73 * model_down.eta
        num, _ = scipy.integrate.quad(
            lambda t: fading_pdf(t, model_down), eta_th, model_down.eta, limit=400
        )
        assert p_threshold(eta_th, model_down) == pytest.approx(num, abs=1e-8)

    def test_matches_monte_carlo(self, model_down):
        eta_th = 0.73 * model_down.eta
        n = 1_000_000
        taus = sample_fading(model_down, n, seed=7)
        p_hat = float(np.mean(taus > eta_th))
        p = p_threshold(eta_th, model_down)
        assert abs(p_hat - p) < 3.0 * math.sqrt(p * (1 - p) / n)

    def test_monotone_in_threshold(self, model_down):
        eta = model_down.eta
        values = [p_threshold(f * eta, model_down) for f in (0.0, 0.3, 0.6, 0.9)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_increasing_in_eta(self, model_down):
        shrunk = replace(model_down, eta=0.8 * model_down.eta)
        eta_th = 0.5 * shrunk.eta
        assert p_threshold(eta_th, model_down) > p_threshold(eta_th, shrunk)

    def test_invalid_threshold(self, model_down):
        with pytest.raises(ValueError):
            p_threshold(model_down.eta, model_down)


class TestSlots:
    def test_slot_probabilities_sum_to_one(self, model_up):
        m_slots = 100
        dt = model_up.eta / m_slots
        total = sum(p_slot(k, dt, model_up) for k in range(m_slots))
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSampler:
    def test_seed_reproducibility(self, model_down):
        a = sample_fading(model_down, 1000, seed=3)
        b = sample_fading(model_down, 1000, seed=3)
        assert np.array_equal(a, b)
        c = sample_fading(model_down, 1000, seed=4)
        assert not np.array_equal(a, c)

    def test_support(self, model_down):
        taus = sample_fading(model_down, 10000, seed=1)
        assert np.all(taus > 0) and np.all(taus <= model_down.eta)

    def test_zero_deflection_gives_eta(self, model_down):
        from dataclasses import replace

        still = replace(model_down, sigma2=0.0)
        taus = sample_fading(still, 10, seed=0)
        assert np.allclose(taus, still.eta)


class TestSlowDetection:
    def test_upper_bound_dominates(self, model_up):
        from satlink.atmosphere import eta_atm
        from satlink.beam import LN2, plob

        atm = eta_atm(500e3, 0.5)
        slow = eta_slow(model_up, RECEIVER, atm)
        cap = (2.0 / LN2) * RECEIVER.aperture**2 / (model_up.w_lt**2 + model_up.sigma_p2)
        assert plob(slow) <= cap

    def test_reduces_to_total_loss_without_wandering(self):
        # downlink with no pointing error: w_lt = w_d and sigma_P = 0
        model = fading_model(530e3, 0.2, BEAM, RECEIVER, NIGHT, "down", pointing_error=0.0)
        from satlink.atmosphere import eta_atm

        atm = eta_atm(530e3, 0.2)
        assert eta_slow(model, RECEIVER, atm) == pytest.approx(
            eta_total(530e3, 0.2, BEAM, RECEIVER), rel=1e-9
        )

    def test_never_exceeds_aligned_transmissivity(self):
        for h in (200e3, 530e3, 2000e3):
            for theta in (0.0, 1.0):
                for direction in ("up", "down"):
                    model = fading_model(h, theta, BEAM, RECEIVER, NIGHT, direction)
                    from satlink.atmosphere import eta_atm

                    atm = eta_atm(h, theta)
                    assert eta_slow(model, RECEIVER, atm) <= model.eta + 1e-12


class TestModelAssembly:
    def test_strong_scintillation_warns_but_computes(self):
        import warnings

        worst = TurbulenceProfile.from_name("hv-worst-day")
        with pytest.warns(UserWarning, match="Rytov"):
            model = fading_model(500e3, 1.0, BEAM, RECEIVER, worst, "up")
        assert 0.0 < model.eta < 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the good window must stay silent
            fading_model(500e3, 1.0, BEAM, RECEIVER, NIGHT, "up")

    def test_downlink_variance_is_pointing_only(self, model_down):
        assert model_down.sigma2 == model_down.sigma_p2
        assert model_down.sigma_tb2 == 0.0

    def test_uplink_variance_sums(self, model_up):
        assert model_up.sigma2 == pytest.approx(model_up.sigma_p2 + model_up.sigma_tb2)

    def test_eta_composition(self, model_down):
        from satlink.atmosphere import eta_atm

        assert model_down.eta == pytest.approx(
            0.4 * eta_atm(530e3, 1.0) * model_down.eta_st, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FadingModel(
                eta=1.5, eta_st=0.9, eta_st_far=2.0, gamma=2.0, r0=1.0,
                sigma2=1.0, sigma_p2=1.0, sigma_tb2=0.0, w_st=1.0, w_lt=1.0,
            )
