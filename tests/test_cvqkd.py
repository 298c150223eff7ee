import math
from dataclasses import replace

import numpy as np
import pytest
from satlink import ConfigError, NumericalError, Scenario
from satlink.beam import plob
from satlink.cvqkd import (
    ProtocolParams,
    asymptotic_rate,
    holevo_bound,
    mutual_information,
    pe_confidence_factor,
    postselected_rate,
    worst_case_nbar,
)

from _reference import (
    EstimationResult,
    composable_rate,
    equivalent_noise,
    estimate_channel,
    general_protocol,
    llo_noise,
    optimize_protocol,
    simulate_pilots,
)

COLLECTIVE = ProtocolParams()
GENERAL = general_protocol()


class TestMutualInformation:
    def test_zero_modulation(self):
        assert mutual_information(0.5, 0.1, 0.0, 1.0) == 0.0

    def test_unit_channel_homodyne(self):
        assert mutual_information(1.0, 0.0, 3.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_equivalent_noise_identity(self):
        # I = (nu_add / 2) * log2(1 + sigma_x^2 / Sigma) for both detections
        for det, nu in (("hom", 1.0), ("het", 2.0)):
            assert ProtocolParams(detection=det).nu_add == nu
            for tau in (0.05, 0.4, 0.9):
                for nbar in (0.0, 0.01, 0.3):
                    sigma = equivalent_noise(tau, nbar, nu)
                    compact = (nu / 2.0) * math.log2(1.0 + 8.0 / sigma)
                    assert mutual_information(tau, nbar, 8.0, nu) == pytest.approx(
                        compact, rel=1e-12
                    )

    def test_domain(self):
        with pytest.raises(NumericalError):
            mutual_information(0.0, 0.0, 1.0, 1.0)
        # the detection is checked where the protocol is built
        with pytest.raises(ConfigError):
            ProtocolParams(detection="dyne")


class TestHolevo:
    def test_lossless_noiseless_channel_decouples_eve(self):
        for det in ("hom", "het"):
            assert holevo_bound(1.0, 0.0, 10.0, det) == pytest.approx(0.0, abs=1e-9)

    def test_positive_on_grid(self):
        for tau in np.linspace(0.01, 0.99, 12):
            for nbar in (0.0, 0.1, 0.5):
                for mu in (2.0, 8.0, 20.0):
                    for det in ("hom", "het"):
                        assert holevo_bound(float(tau), nbar, mu, det) >= -1e-10

    def test_plob_dominance(self):
        # beta = 1, nbar = 0: the achievable rate never beats the capacity
        for tau in np.linspace(0.01, 0.99, 20):
            for mu in (2.0, 5.0, 10.0, 20.0, 50.0):
                for det in ("hom", "het"):
                    i_xy = mutual_information(float(tau), 0.0, mu - 1.0, ProtocolParams(detection=det).nu_add)
                    chi = holevo_bound(float(tau), 0.0, mu, det)
                    assert i_xy - chi <= plob(float(tau)) + 1e-11

    def test_increasing_in_noise(self):
        chis = [holevo_bound(0.4, n, 9.28, "het") for n in (0.0, 0.005, 0.02, 0.1)]
        assert all(a < b for a, b in zip(chis, chis[1:]))

    def test_domain(self):
        # mu <= 1 has no physical covariance matrix
        with pytest.raises(NumericalError):
            holevo_bound(0.5, 0.0, 0.9, "het")

    @pytest.mark.parametrize(
        "tau,nbar,mu",
        [(0.27, 1.6e-3, 9.28), (0.9, 0.0, 4.0), (0.05, 0.02, 15.0), (0.6, 0.2, 7.0)],
    )
    def test_full_matrix_oracle(self, tau, nbar, mu):
        # independent route: assemble the 4x4 covariance matrix, take the
        # symplectic spectrum from |eig(i Omega V)|, and condition via the
        # Schur complement; compare against the 2x2-block closed form
        from satlink.bounds import entropy_h

        a = mu
        b = tau * mu + 1.0 - tau + 2.0 * nbar
        c = math.sqrt(tau * (mu * mu - 1.0))
        v = np.array(
            [
                [a, 0.0, c, 0.0],
                [0.0, a, 0.0, -c],
                [c, 0.0, b, 0.0],
                [0.0, -c, 0.0, b],
            ]
        )
        omega1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        omega = np.block(
            [[omega1, np.zeros((2, 2))], [np.zeros((2, 2)), omega1]]
        )
        nus = np.abs(np.linalg.eigvals(1j * omega @ v))
        nus = np.sort(np.real(nus))  # each eigenvalue appears twice
        s_ab = entropy_h((nus[0] - 1) / 2) + entropy_h((nus[2] - 1) / 2)

        v_a = v[:2, :2]
        v_b = v[2:, 2:]
        v_c = v[:2, 2:]
        # heterodyne: conditional CM is A - C (B + I)^-1 C^T
        cond_het = v_a - v_c @ np.linalg.inv(v_b + np.eye(2)) @ v_c.T
        nu_het = math.sqrt(np.linalg.det(cond_het))
        chi_het = s_ab - entropy_h((nu_het - 1) / 2)
        assert holevo_bound(tau, nbar, mu, "het") == pytest.approx(chi_het, abs=1e-10)
        # homodyne of q: A - C Pi (Pi B Pi)^+ Pi C^T with Pi = diag(1, 0)
        pi = np.diag([1.0, 0.0])
        cond_hom = v_a - v_c @ np.linalg.pinv(pi @ v_b @ pi) @ v_c.T
        nu_hom = math.sqrt(np.linalg.det(cond_hom))
        chi_hom = s_ab - entropy_h((nu_hom - 1) / 2)
        assert holevo_bound(tau, nbar, mu, "hom") == pytest.approx(chi_hom, abs=1e-10)


class TestAsymptoticRate:
    def test_ideal_link_positive(self):
        p = replace(COLLECTIVE, beta=1.0)
        assert asymptotic_rate(1.0, 0.0, p) > 0.0

    def test_decreasing_in_noise(self):
        rates = [asymptotic_rate(0.4, n, COLLECTIVE) for n in (0.0, 1e-3, 1e-2, 5e-2)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_vanishes_with_transmissivity(self):
        assert abs(asymptotic_rate(1e-6, 0.0, COLLECTIVE)) < 1e-3


class TestWorstCaseNbar:
    def test_gaussian_confidence_factor(self):
        # Table value ~6.34; the printed inverse-erf formula gives 6.44
        w = pe_confidence_factor(2.0**-33, "gaussian")
        assert 6.3 < w < 6.5

    def test_hoeffding_confidence_factor(self):
        assert pe_confidence_factor(1e-43, "hoeffding") == pytest.approx(14.07, abs=0.01)

    def test_large_pilot_limit(self):
        assert worst_case_nbar(1e-3, 10**15, 2.0, 2.0**-33, "gaussian") == pytest.approx(1e-3, rel=1e-3)

    def test_always_above_truth(self):
        for nbar in (0.0, 1e-4, 0.1):
            assert worst_case_nbar(nbar, 100, 2.0, 1e-10, "gaussian") > nbar


class TestPilotEstimation:
    def test_sqrt_tau_estimator_variance(self):
        tau, nbar, nbar_p, m, nu = 0.3, 0.05, 1e6, 200, 2.0
        trials = 10_000
        estimates = []
        for seed in range(trials):
            x, y = simulate_pilots(tau, nbar, nbar_p, m, nu, seed)
            estimates.append(float(np.mean(y / x)))
        empirical = float(np.var(estimates))
        sigma_z2 = 2 * nbar + nu
        analytic = sigma_z2 / (2 * nu * m * nbar_p)
        assert empirical == pytest.approx(analytic, rel=0.05)

    def test_nbar_estimator_unbiased(self):
        tau, nbar, nbar_p, m, nu = 0.3, 0.05, 1e6, 1000, 2.0
        trials = 10_000
        hats = []
        for seed in range(trials):
            x, y = simulate_pilots(tau, nbar, nbar_p, m, nu, seed)
            res = estimate_channel(x, y, nu, 2.0**-33, sqrt_tau=math.sqrt(tau))
            hats.append(res.nbar_hat)
        mean_hat = float(np.mean(hats))
        stderr = float(np.std(hats)) / math.sqrt(trials)
        assert abs(mean_hat - nbar) < 3.0 * stderr

    def test_estimation_result_fields(self):
        x, y = simulate_pilots(0.25, 0.01, 1e6, 500, 2.0, seed=5)
        res = estimate_channel(x, y, 2.0, 2.0**-33)
        assert isinstance(res, EstimationResult)
        assert res.sqrt_tau_hat == pytest.approx(0.5, abs=0.01)
        assert res.nbar_prime >= res.nbar_hat
        assert res.sqrt_tau_var == pytest.approx(
            (2 * max(res.nbar_hat, 0) + 2.0) / (2 * 2.0 * 500 * 1e6), rel=1e-9
        )


class TestComposableRate:
    def test_converges_to_asymptotic(self):
        p = ProtocolParams(block_size=10**12, pilots=10**9, p_ec=1.0)
        asy = asymptotic_rate(0.3, 1e-3, p)
        comp = composable_rate(0.3, 1e-3, p)
        r_n = (p.block_size - p.pilots) / p.block_size
        assert abs(asy - comp.rate / r_n) / asy < 0.01

    def test_sqrt_n_scaling(self):
        gaps = []
        for n_exp in (8, 10, 12):
            p = ProtocolParams(block_size=10**n_exp, pilots=10 ** (n_exp - 2), p_ec=1.0)
            r_n = (p.block_size - p.pilots) / p.block_size
            gaps.append(asymptotic_rate(0.3, 1e-3, p) - composable_rate(0.3, 1e-3, p).rate / r_n)
        # each 100x block-size step shrinks the gap ~10x
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.05)
        assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.05)

    def test_finite_size_penalty_positive(self):
        for tau in (0.1, 0.3, 0.6):
            comp = composable_rate(tau, 1e-3, COLLECTIVE)
            r_n = (COLLECTIVE.block_size - COLLECTIVE.pilots) / COLLECTIVE.block_size
            assert comp.rate / r_n / COLLECTIVE.p_ec < asymptotic_rate(tau, 1e-3, COLLECTIVE)

    def test_clamping_keeps_diagnostic(self):
        hopeless = composable_rate(1e-4, 0.3, COLLECTIVE)
        assert hopeless.rate == 0.0
        assert hopeless.unclamped < 0.0

    def test_epsilon_budget(self):
        assert COLLECTIVE.eps_total == pytest.approx(4.5e-10, rel=0.05)
        assert GENERAL.eps_total == pytest.approx(3.1e-43, rel=1e-9)


class TestGeneralAttacks:
    def test_key_pulse_count(self):
        assert GENERAL.key_pulses == pytest.approx(4.47e7, rel=0.01)

    def test_rate_below_collective(self):
        same_pec = replace(COLLECTIVE, p_ec=0.1)
        for tau in (0.2, 0.4):
            gen = composable_rate(tau, 2e-3, GENERAL, "general")
            col = composable_rate(tau, 2e-3, same_pec)
            assert gen.rate < col.rate

    def test_requires_heterodyne_and_energy_tests(self):
        # checked where a rate is asked for against general attacks
        with pytest.raises(ConfigError):
            Scenario.build(protocol=replace(GENERAL, detection="hom")).rate_at(530e3, 0.3, "general")
        with pytest.raises(ConfigError):
            Scenario.build(protocol=replace(GENERAL, energy_test_fraction=0.0)).rate_at(530e3, 0.3, "general")

    def test_epsilon_prime_reported(self):
        gen = composable_rate(0.3, 2e-3, GENERAL, "general")
        assert gen.eps_prime is not None and gen.eps_prime > 0


@pytest.fixture(scope="module")
def scn():
    return Scenario.build("down", "night", setup=2, protocol=ProtocolParams(mu=9.28, phi_thr=0.73))


class TestPostSelectedRate:

    def test_no_fading_limit(self, scn):
        # with vanishing wander and threshold close to eta the post-selected
        # rate reduces to the fixed-channel composable rate at tau = eta
        model = replace(scn.fading_model(530e3, 0.5), sigma2=1e-14)
        params = replace(scn.protocol, phi_thr=0.999999)
        nbp = scn.nbar_prime
        frozen = postselected_rate(model, nbp, params, "collective")
        fixed = composable_rate(model.eta, nbp, params)
        assert frozen.rate == pytest.approx(fixed.rate, rel=1e-3)

    def test_positive_across_window_night_down(self, scn):
        for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert scn.rate_at(530e3, theta).rate > 0.0

    def test_positive_across_window_night_up(self):
        scn = Scenario.build("up", "night", setup=3, protocol=ProtocolParams(mu=7.0, phi_thr=0.68))
        for theta in (-1.0, 0.0, 1.0):
            assert scn.rate_at(155e3, theta).rate > 0.0

    def test_monotone_in_worst_case_noise(self, scn):
        model = scn.fading_model(530e3, 1.0)
        rates = [postselected_rate(model, n, scn.protocol, "collective").rate for n in (1e-4, 2e-3, 1e-2)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_monotone_in_wander(self, scn):
        model = scn.fading_model(530e3, 1.0)
        nbp = scn.nbar_prime
        base = postselected_rate(model, nbp, scn.protocol, "collective").rate
        wider = replace(model, sigma2=2 * model.sigma2)
        doubled = postselected_rate(wider, nbp, scn.protocol, "collective").rate
        assert doubled < base

    def test_general_epsilon_prime_at_100km(self):
        # sub-optimal published pair (mu = 7.49, phi = 0.73) at the minimum
        # altitude; the general-attack epsilon stays below ~4.5e-11
        scn = Scenario.build(
            "down", "night", setup=2,
            protocol=general_protocol(mu=7.49, phi_thr=0.73),
        )
        res = scn.rate_at(100e3, 1.0, attacks="general")
        assert res.eps_prime is not None
        assert res.eps_prime < 4.5e-11 * 2.0
        assert res.rate > 0.0


class TestLLO:
    def test_reference_value(self):
        res = llo_noise(10.0, 5e6, 1e3, 0.5)
        assert res.eps_llo == pytest.approx(1.26e-2, rel=0.01)
        assert res.nbar_llo == pytest.approx(0.5 * res.eps_llo / 2.0, rel=1e-12)

    def test_transmitted_lo_is_noiseless(self):
        res = llo_noise(10.0, 5e6, 0.0, 0.5)
        assert res.eps_llo == 0.0 and res.nbar_llo == 0.0


class TestOptimizer:
    def test_single_point_range(self):
        res = optimize_protocol(lambda m, p: m + p, (5.0, 5.0), (0.5, 0.5))
        assert (res.mu, res.phi) == (5.0, 0.5)
        assert res.rate == 5.5

    def test_recovers_published_operating_point(self):
        scn = Scenario.build("down", "night", setup=2)
        model = scn.fading_model(530e3, 1.0)
        nbar = scn.nbar

        def rate_fn(mu: float, phi: float) -> float:
            params = replace(scn.protocol, mu=mu, phi_thr=phi)
            nbp = worst_case_nbar(nbar, params.pilots, params.nu_add, params.eps_pe, params.tail)
            return postselected_rate(model, nbp, params, "collective").rate

        res = optimize_protocol(rate_fn, (2.0, 20.0), (0.4, 0.95))
        assert res.feasible
        published = rate_fn(9.28, 0.73)
        assert published >= 0.98 * res.rate

    def test_infeasible_surface(self):
        res = optimize_protocol(lambda m, p: 0.0, (2.0, 10.0), (0.2, 0.8), grid=8)
        assert not res.feasible and res.rate == 0.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            optimize_protocol(lambda m, p: 0.0, (0.5, 10.0), (0.2, 0.8))


class TestProtocolParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ProtocolParams(mu=0.5)
        with pytest.raises(ConfigError):
            ProtocolParams(phi_thr=1.5)
        with pytest.raises(ConfigError):
            ProtocolParams(pilots=10**9)
        with pytest.raises(ConfigError):
            ProtocolParams(detection="intradyne")

    def test_derived_quantities(self):
        p = ProtocolParams(mu=9.28)
        assert p.sigma_x2 == pytest.approx(8.28)
        assert p.nbar_t == pytest.approx(4.14)
        assert p.nu_add == 2.0
        assert p.key_pulses == 85_000_000
