import itertools
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from satlink.beam import BeamParams, ReceiverParams
from satlink.errors import GUARDS, NumericalError
from satlink.fading import (
    BLOCK,
    FadingModel,
    bessel_f0,
    bessel_f1,
    fading_cdf,
    fading_model,
    fading_params,
    p_threshold,
    pointing_variance,
    sample_v,
    sorted_v_statistics,
)
from satlink.scenario import Scenario

from _reference import (
    EXTINCTION,
    POINTING_ERROR,
    eta_slow,
    eta_total,
    fading_pdf,
    ks_statistic_blocks,
    model_spot_sizes,
    replace,
    sample_fading,
    sample_fading_whole,
    tau_of_radius,
    wander_radii,
    wander_v,
)

NIGHT = "hv-night"
BEAM = BeamParams(wavelength=800e-9, waist=0.2)
RECEIVER = ReceiverParams(aperture=0.4, efficiency=0.4)
CONFIGS = list(itertools.product((1, 2, 3, 4), ("up", "down"), ("day", "night"), ("clear", "cloudy")))


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
    return fading_model(530e3, 1.0, BEAM, RECEIVER, NIGHT, "down", EXTINCTION, POINTING_ERROR)


@pytest.fixture(scope="module")
def model_up() -> FadingModel:
    return fading_model(500e3, 0.5, BEAM, RECEIVER, NIGHT, "up", EXTINCTION, POINTING_ERROR)


@pytest.fixture(scope="module")
def spots_down():
    return model_spot_sizes(530e3, 1.0, BEAM, NIGHT, "down")


@pytest.fixture(scope="module")
def spots_up():
    return model_spot_sizes(500e3, 0.5, BEAM, NIGHT, "up")


class TestPointing:
    def test_one_microrad_at_1000km(self):
        assert pointing_variance(1e6, 1e-6) == pytest.approx(1.0)

    def test_zero_distance(self):
        assert pointing_variance(0.0, 1e-6) == 0.0

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
                    s = spot_sizes(z, theta, BEAM, NIGHT, direction, 0.0)
                    eta_st = -math.expm1(-2 * 0.4**2 / s.w_st**2)
                    far = 2 * 0.4**2 / s.w_st**2
                    gamma, r0 = fading_params(eta_st, far, 0.4)
                    assert gamma > 0 and r0 > 0

    def test_formula_spelled_independently(self, model_down, spots_down):
        # same expression written directly against scipy's Bessel routines
        from scipy.special import i0e, i1e

        x = 2 * 0.4**2 / spots_down.w_st**2
        f0 = 1.0 / (1.0 - i0e(2 * x))
        f1 = i1e(2 * x)
        log_term = math.log(2.0 * -math.expm1(-x) * f0)
        gamma = 4.0 * x * f0 * f1 / log_term
        r0 = 0.4 / log_term ** (1.0 / gamma)
        assert model_down.gamma == pytest.approx(gamma, rel=1e-12)
        assert model_down.spread == pytest.approx(r0**2 / (2.0 * spots_down.sigma2), rel=1e-12)

    def test_degenerate_geometry_rejected(self):
        # ln(2 eta_st f0) <= 1 cannot happen for physical inputs, but the
        # guard must trip when fed an inconsistent pair
        with pytest.raises(NumericalError, match="degenerate fading geometry"):
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
        with pytest.raises(NumericalError):
            fading_params(1.0 + 2.0**-52, 40.0, 2.0)

    def test_far_field_shape_limit(self):
        # gamma -> 2 (log-Rayleigh wandering) deep in the far field, where
        # eta_st = 1 - exp(-x) pairs with the linearized eta_st_far = x
        x = 1e-4
        gamma, _ = fading_params(-math.expm1(-x), x, 0.4)
        assert gamma == pytest.approx(2.0, rel=1e-3)


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

    def test_cdf_across_the_support(self, model_up):
        eta = model_up.eta
        inside = np.linspace(0.0, eta, 998)[1:-1].tolist()
        cdf = [fading_cdf(t, model_up) for t in inside]
        assert all(isinstance(c, float) and 0.0 < c < 1.0 for c in cdf)
        assert cdf == sorted(cdf)
        assert [fading_cdf(t, model_up) for t in (-0.1, 0.0, eta, 2 * eta)] == [0.0, 0.0, 1.0, 1.0]

    def test_no_wandering_concentrates_at_eta(self, model_down, spots_down):
        # the spread s = r0^2 / (2 sigma^2) of a wander variance of 1e-12 m^2
        frozen = replace(model_down, spread=model_down.spread * spots_down.sigma2 / 1e-12)
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
        with pytest.raises(NumericalError):
            p_threshold(model_down.eta, model_down)


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
        still = replace(model_down, spread=math.inf)
        taus = sample_fading(still, 10, seed=0)
        assert np.allclose(taus, still.eta)

    @pytest.mark.parametrize("seed", [0, 5, 2**31 - 1])
    @pytest.mark.parametrize("which", ["down", "up", "near_field"])
    def test_radii_within_one_ulp_of_hypot(self, which, seed, model_down, model_up):
        # sqrt(x^2 + y^2) moves a sixth of the radii of np.hypot(x, y) by
        # one ulp and none by more; tau = eta exp(-(r / sqrt(2s))^gamma) turns
        # that ulp into more of tau's where the power is large, so each sample
        # must lie between the hypot body's taus at the neighbours of r
        model = {
            "down": model_down,
            "up": model_up,
            # 2 m aperture, 100 km: a fifth of the samples round to eta
            "near_field": fading_model(
                100e3, 0.0, replace(BEAM, waist=0.4), replace(RECEIVER, aperture=2.0), NIGHT, "down",
                EXTINCTION, POINTING_ERROR,
            ),
        }[which]
        r = wander_radii(100_000, seed)
        got = sample_fading(model, 100_000, seed)
        assert np.all(tau_of_radius(np.nextafter(r, np.inf), model) <= got)
        assert np.all(got <= tau_of_radius(np.nextafter(r, 0.0), model))


    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("seed", [0, 5, 123456])
    def test_radius2_is_the_square_sum_of_rng_normal(self, n, seed):
        # v = x^2 + y^2, the squared radius in units of sigma, with y drawn a
        # block at a time: the doubles of rng.standard_normal((2, n)) squared and summed
        got = sample_v(n, seed)
        assert got.tobytes() == wander_v(n, seed).tobytes()

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("seed", [0, 5, 123456])
    def test_blocks_match_the_whole_array_body(self, n, seed, model_up):
        # y drawn a block at a time continues one stream, and each sample
        # sees the same operations in the same order: the same doubles
        got = sample_fading(model_up, n, seed)
        assert got.tobytes() == sample_fading_whole(model_up, n, seed).tobytes()


class TestKsStatistic:
    @staticmethod
    def ks_pair(model, n, sample_seed, bins=7):
        """(bounded KS, all-samples KS) of the sorted v, after checking
        that their counts are np.histogram's of the transmissivities."""
        v = np.sort(sample_v(n, sample_seed))
        edges = np.linspace(0.0, model.eta, bins + 1)
        ks, counts = sorted_v_statistics(v, model, edges)
        assert np.array_equal(counts, np.histogram(sample_fading(model, n, sample_seed), edges)[0])
        return ks, ks_statistic_blocks(v)

    @pytest.mark.parametrize("config", CONFIGS)
    @seed(20120601)
    @settings(max_examples=6, deadline=None, database=None)
    @given(
        log_h=st.floats(5.0, math.log10(36000e3)),
        theta=st.floats(-1.0, 1.0),
        n=st.integers(1, 2 * BLOCK + 1),
        sample_seed=st.integers(0, 2**31 - 1),
    )
    # one and two samples, a segment's edges and a block's edges, at the
    # ends of the altitude and angle ranges
    @example(log_h=5.0, theta=0.0, n=1, sample_seed=0)
    @example(log_h=math.log10(36000e3), theta=1.0, n=2, sample_seed=1)
    @example(log_h=5.0, theta=-1.0, n=31, sample_seed=2)
    @example(log_h=6.0, theta=0.5, n=32, sample_seed=3)
    @example(log_h=math.log10(36000e3), theta=-0.3, n=33, sample_seed=4)
    @example(log_h=5.5, theta=1.0, n=BLOCK - 1, sample_seed=5)
    @example(log_h=7.0, theta=0.0, n=BLOCK + 1, sample_seed=6)
    def test_bounded_pass_equals_the_all_samples_pass(self, config, log_h, theta, n, sample_seed):
        h = min(max(10.0**log_h, 100e3), 36000e3)
        model = Scenario.build(*config[1:], setup=config[0]).fading_model(h, theta)
        ks, want = self.ks_pair(model, n, sample_seed)
        assert ks == want

    @pytest.mark.parametrize("above", [True, False])
    def test_largest_deviation_at_a_segment_edge(self, above, model_down):
        # 33 sorted samples make one segment [0, 32) between the knots 0 and
        # 32.  The largest deviation sits inside it, at a sample next to a
        # knot, and only half a step of 1/n above the knots' own deviations:
        # a segment bound short by one step would skip it.
        # above: samples 0-31 at G = 0 and sample 32 at G = 1.5/33, so the
        # empirical CDF leads G most at sample 31, by 32/33;
        # below: sample 0 at G = 31.5/33 and samples 1-32 where G rounds to
        # 1, so G leads the empirical CDF most at sample 1, by 32/33
        model, n = model_down, 33

        def quantile(p):
            return -2.0 * math.log1p(-p)

        if above:
            v = np.array([0.0] * 32 + [quantile(1.5 / n)])
        else:
            v = np.array([quantile(31.5 / n)] + [100.0] * 32)
        ks, _ = sorted_v_statistics(v, model, np.linspace(0.0, model.eta, 3))
        assert ks == ks_statistic_blocks(v) == pytest.approx(32 / n, rel=1e-12)

    @pytest.mark.parametrize("n", [1000, 100_000])
    def test_near_field_ties_at_eta(self, n):
        # setup 4 downlink at 100 km: about a fifth of the taus round to eta,
        # the top edge of the closed last bin, from distinct radii
        model = Scenario.build("down", "night", "clear", setup=4).fading_model(100e3, 0.0)
        assert np.mean(sample_fading(model, n, 3) == model.eta) > 0.15
        ks, want = self.ks_pair(model, n, 3)
        assert ks == want

    def test_a_radius_on_an_edge_is_in_the_bin_above(self, model_down):
        # v(e) = 2 s ln(eta / e)^(2 / gamma) is the v of tau = e, and a tau
        # on an edge counts in the bin [e, hi), as np.histogram has it
        model = model_down
        edges = np.linspace(0.0, model.eta, 4)
        on_edges = 2.0 * model.spread * np.log(model.eta / edges[1:]) ** (2.0 / model.gamma)
        _, counts = sorted_v_statistics(np.sort(on_edges), model, edges)
        assert counts.tolist() == [0, 1, 2]


class TestSlowDetection:
    def test_upper_bound_dominates(self, spots_up):
        from satlink.atmosphere import eta_atm
        from satlink.beam import LN2, plob

        atm = eta_atm(500e3, 0.5, EXTINCTION)
        slow = eta_slow(spots_up, RECEIVER, atm)
        cap = (2.0 / LN2) * RECEIVER.aperture**2 / (spots_up.w_lt**2 + spots_up.sigma_p2)
        assert plob(slow) <= cap

    def test_reduces_to_total_loss_without_wandering(self):
        # downlink with no pointing error: w_lt = w_d and sigma_P = 0
        spots = model_spot_sizes(530e3, 0.2, BEAM, NIGHT, "down", pointing_error=0.0)
        from satlink.atmosphere import eta_atm

        atm = eta_atm(530e3, 0.2, EXTINCTION)
        assert eta_slow(spots, RECEIVER, atm) == pytest.approx(
            eta_total(530e3, 0.2, BEAM, RECEIVER), rel=1e-9
        )

    def test_never_exceeds_aligned_transmissivity(self):
        for h in (200e3, 530e3, 2000e3):
            for theta in (0.0, 1.0):
                for direction in ("up", "down"):
                    model = fading_model(h, theta, BEAM, RECEIVER, NIGHT, direction, EXTINCTION, POINTING_ERROR)
                    spots = model_spot_sizes(h, theta, BEAM, NIGHT, direction)
                    from satlink.atmosphere import eta_atm

                    atm = eta_atm(h, theta, EXTINCTION)
                    assert eta_slow(spots, RECEIVER, atm) <= model.eta + 1e-12


class TestModelAssembly:
    def test_strong_scintillation_warns_but_computes(self):
        worst = "hv-worst-day"
        GUARDS.clear()
        model = fading_model(500e3, 1.0, BEAM, RECEIVER, worst, "up", EXTINCTION, POINTING_ERROR)
        assert 0.0 < model.eta < 1.0
        [(text, name)] = GUARDS.items()
        assert name == "fading.rytov" and text.startswith("Rytov variance ")
        GUARDS.clear()
        fading_model(500e3, 1.0, BEAM, RECEIVER, NIGHT, "up", EXTINCTION, POINTING_ERROR)
        assert GUARDS == {}  # the good window must stay silent

    @staticmethod
    def spread(spots, sigma2):
        """r0^2 / (2 sigma2), with r0 the Weibull scale of the spot sizes."""
        x = 2.0 * RECEIVER.aperture**2 / math.pow(spots.w_st, 2)
        _, r0 = fading_params(-math.expm1(-x), x, RECEIVER.aperture)
        return math.pow(r0, 2) / (2.0 * sigma2)

    def test_downlink_variance_is_pointing_only(self, model_down, spots_down):
        assert model_down.spread == self.spread(spots_down, spots_down.sigma_p2)
        assert spots_down.sigma_tb2 == 0.0

    def test_uplink_variance_sums(self, model_up, spots_up):
        assert model_up.spread == pytest.approx(self.spread(spots_up, spots_up.sigma_p2 + spots_up.sigma_tb2))

    def test_eta_composition(self, model_down, spots_down):
        from satlink.atmosphere import eta_atm

        eta_st = -math.expm1(-2 * 0.4**2 / spots_down.w_st**2)
        assert model_down.eta == pytest.approx(
            0.4 * eta_atm(530e3, 1.0, EXTINCTION) * eta_st, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(NumericalError):
            FadingModel(eta=1.5, gamma=2.0, spread=0.5, eta_atm=1.0)
