"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and the measured values.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

from satlink import Scenario, plob
from satlink.beam import ReceiverParams
from satlink.bounds import Z_HI, bound_b_model, thermal_lower, thermal_upper
from satlink.cvqkd import (
    ProtocolParams,
    asymptotic_rate,
    holevo_bound,
    mutual_information,
)
from satlink.fading import fading_cdf, p_threshold
from satlink.noise import nbar_background
from satlink.orbit import (
    bits_per_day,
    repeater_rate,
    slice_orbit,
    sun_sync_inclination,
    transit_times,
)
from satlink.turbulence import PROFILES, i_infty, spot_sizes
from satlink.atmosphere import eta_atm

from _reference import (
    EXTINCTION,
    coherence_length,
    composable_rate,
    eta_atm_secant,
    eta_atm_zenith,
    fading_pdf,
    phi_thermal,
    sample_fading,
    thermal_lower_middle,
)


def check(failures: list, cond: bool, message: str) -> None:
    if not cond:
        failures.append(message)


def report(num: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[{status}] acceptance {num}: {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


# the noise conditions of the background-photon tables: (link, period, sky)
CONDITIONS = {
    "day-down-cloudy": ("down", "day", "cloudy"),
    "day-down-clear": ("down", "day", "clear"),
    "night-down": ("down", "night", "clear"),
    "day-up": ("up", "day", "clear"),
    "night-up": ("up", "night", "clear"),
}


def test_acceptance_01_noise_tables():
    failures = []
    wide = ReceiverParams(aperture=0.4, efficiency=0.4)
    narrow = ReceiverParams(aperture=0.4, efficiency=0.4, filter_width=1e-13)
    wide_expect = {
        "day-down-cloudy": 0.3,
        "day-down-clear": 3e-3,
        "night-down": 3e-6,
        "day-up": 0.22,
        "night-up": 5.4e-7,
    }
    narrow_expect = {"day-down-cloudy": 3e-5, "day-down-clear": 3e-7, "day-up": 2.2e-5}
    start = time.perf_counter()
    for name, expect in wide_expect.items():
        got = nbar_background(*CONDITIONS[name], wide)
        check(failures, abs(got - expect) / expect < 0.05, f"{name} wide: {got:g} vs {expect:g}")
    for name, expect in narrow_expect.items():
        got = nbar_background(*CONDITIONS[name], narrow)
        check(failures, abs(got - expect) / expect < 0.05, f"{name} narrow: {got:g} vs {expect:g}")
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 1e-3, f"runtime {elapsed * 1e3:.2f} ms >= 1 ms")
    report(1, "background-photon tables reproduced to 5%", failures)


def test_acceptance_02_extinction():
    failures = []
    check(
        failures,
        abs(eta_atm_zenith(1e9) - 0.967) < 1e-3,
        f"zenith saturation {eta_atm_zenith(1e9):.5f} != 0.967 +- 0.001",
    )
    start = time.perf_counter()
    points = 0
    for h in (100e3, 300e3, 1000e3, 10000e3):
        for theta in np.linspace(0.0, 1.0, 5):
            full = eta_atm(h, float(theta), EXTINCTION)
            sec = eta_atm_secant(h, float(theta))
            points += 1
            check(
                failures,
                abs(full - sec) / full < 0.01,
                f"secant law off by >1% at h={h:g} theta={theta:.2f}",
            )
    per_point = (time.perf_counter() - start) / points
    check(failures, per_point < 0.01, f"{per_point * 1e3:.2f} ms per point >= 10 ms")
    report(2, "extinction: 0.967 zenith value and secant law within 1%", failures)


def test_acceptance_03_turbulence_constants():
    failures = []
    night = PROFILES["hv-night"]
    day = PROFILES["hv-day"]
    check(failures, abs(i_infty(night) - 2.2354e-12) / 2.2354e-12 < 0.005, "night column integral")
    check(failures, abs(i_infty(day) - 3.2854e-12) / 3.2854e-12 < 0.005, "day column integral")
    k = 2.0 * math.pi / 800e-9
    for theta, direction, expect in (
        (0.0, "down", 1.8),
        (0.0, "up", 0.042),
        (1.0, "down", 0.68),
        (1.0, "up", 0.029),
    ):
        got = coherence_length(100e3, theta, k, night, direction)
        check(
            failures,
            abs(got - expect) / expect < 0.05,
            f"rho0 {direction} theta={theta}: {got:.4f} vs {expect}",
        )
    prefactor = (1.46 * (2 * math.pi) ** 2 * i_infty(night)) ** -0.6
    check(failures, abs(prefactor - 8.59e5) / 8.59e5 < 0.01, f"planar prefactor {prefactor:.4g}")
    report(3, "turbulence constants and coherence lengths reproduced", failures)


def test_acceptance_04_geometry_orbit():
    failures = []
    t_q, t_t = transit_times(530e3)
    check(failures, abs(t_q - 200.0) < 1.0, f"t_Q(530 km) = {t_q:.2f}")
    check(failures, abs(t_t - 716.0) < 1.0, f"t_T(530 km) = {t_t:.2f}")
    t_q, t_t = transit_times(155e3)
    check(failures, abs(t_q - 60.0) < 1.0, f"t_Q(155 km) = {t_q:.2f}")
    check(failures, abs(t_t - 364.0) < 1.0, f"t_T(155 km) = {t_t:.2f}")
    check(failures, abs(sun_sync_inclination(530e3) - 97.5) < 0.1, "inclination at 530 km")
    check(failures, abs(sun_sync_inclination(155e3) - 96.1) < 0.1, "inclination at 155 km")
    slices = slice_orbit(530e3, 10, 5e6, 1e8)
    lattice = [lo for lo, _ in slices] + [slices[-1][1]]
    published = [-1.0, -0.88, -0.72, -0.53, -0.28, 0.0, 0.28, 0.53, 0.72, 0.88, 1.0]
    for got, ref in zip(lattice, published):
        check(failures, abs(got - ref) < 0.01, f"slice endpoint {got:.3f} vs {ref}")
    report(4, "transit times, inclinations and slice lattice reproduced", failures)


def test_acceptance_05_fading_oracle():
    failures = []
    start = time.perf_counter()
    scn = Scenario.build("down", "night", setup=2)
    model = scn.fading_model(530e3, 1.0)

    n = 1_000_000
    samples = np.sort(sample_fading(model, n, seed=20240601))
    analytic = np.array([fading_cdf(float(t), model) for t in samples])
    ks = max(
        float(np.max(np.arange(1, n + 1) / n - analytic)),
        float(np.max(analytic - np.arange(0, n) / n)),
    )
    check(failures, ks < 0.01, f"KS statistic {ks:.4f} >= 0.01")

    eta_th = 0.73 * model.eta
    quad_p, _ = scipy.integrate.quad(
        lambda t: fading_pdf(t, model), eta_th, model.eta, limit=400
    )
    p_closed = p_threshold(eta_th, model)
    check(failures, abs(quad_p - p_closed) < 1e-6, "quadrature vs closed-form threshold")
    mc_p = float(np.mean(samples > eta_th))
    sigma = math.sqrt(quad_p * (1 - quad_p) / n)
    check(
        failures,
        abs(mc_p - quad_p) < 3 * sigma,
        f"threshold prob MC {mc_p:.5f} vs quadrature {quad_p:.5f} (3 sigma = {3 * sigma:.2g})",
    )
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 10.0, f"runtime {elapsed:.1f} s >= 10 s")
    report(5, "fading law agrees with its Monte Carlo oracle", failures)


def test_acceptance_06_bound_oracles():
    failures = []
    start = time.perf_counter()
    down = Scenario.build("down", "night", setup=1)
    up = Scenario.build("up", "night", setup=1)
    grid = [(scn, h, theta)
            for scn in (down, up)
            for h in np.geomspace(150e3, 36000e3, 5)
            for theta in (0.0, 1.0)]
    assert len(grid) == 20
    for scn, h, theta in grid:
        model = scn.fading_model(float(h), theta)
        nbar = scn.nbar
        closed = bound_b_model(model)
        direct, _ = scipy.integrate.quad(
            lambda t: fading_pdf(t, model) * plob(t),
            0.0, model.eta, epsabs=0.0, epsrel=1e-9, limit=500,
        )
        check(
            failures,
            abs(closed - direct) / direct < 1e-6,
            f"B mismatch at h={h:g} theta={theta}: {closed:.6e} vs {direct:.6e}",
        )
        upper = thermal_upper(nbar, model)
        lower = thermal_lower(nbar, model, closed)
        middle = thermal_lower_middle(nbar, model, closed)
        check(failures, lower <= middle + 1e-12, "lower-form ordering")
        check(failures, middle <= upper + 1e-9, f"lower > upper at h={h:g}")
        check(failures, upper <= closed + 1e-12, f"upper > B at h={h:g}")
    for tau, nbar in ((0.3, 0.31), (0.3, 0.9), (0.05, 0.0500001)):
        check(failures, phi_thermal(tau, nbar) == 0.0, "entanglement-broken region not exactly 0")
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 30.0, f"runtime {elapsed:.1f} s >= 30 s")
    report(6, "loss-limited bound equals its fading-average oracle; ordering holds", failures)


def test_acceptance_07_max_ranges():
    failures = []
    cases = [
        ("day-up wide", Scenario.build("up", "day", setup=1), 110e3),
        ("day-down cloudy wide", Scenario.build("down", "day", sky="cloudy", setup=1), 650e3),
        ("day-down clear wide", Scenario.build("down", "day", sky="clear", setup=1), 6300e3),
        ("night-up wide", Scenario.build("up", "night", setup=1), 9e7),
        ("night-down wide", Scenario.build("down", "night", setup=1), 2e8),
    ]
    narrow = []
    for link, period, sky, expect in (
        ("up", "day", "clear", 1e7),
        ("down", "day", "cloudy", 6.2e7),
        ("down", "day", "clear", 6.2e8),
    ):
        scn = Scenario.build(link, period, sky=sky, setup=1)
        scn = replace(scn, receiver=replace(scn.receiver, filter_width=1e-13))
        narrow.append((f"{period}-{link}-{sky} narrow", scn, expect))
    for label, scn, expect in cases + narrow:
        got = scn.max_range("tight").z_max
        ratio = got / expect
        check(failures, 1 / 1.5 < ratio < 1.5, f"{label}: {got / 1e3:.0f} km vs {expect / 1e3:.0f} km")
    # night downlink with the 0.1 pm filter: the bound is still positive at the
    # bracket cap, so the search reports the cap, not a range
    scn = Scenario.build("down", "night", setup=1)
    beyond = replace(scn, receiver=replace(scn.receiver, filter_width=1e-13)).max_range("tight")
    check(failures, beyond.capped and beyond.z_max == Z_HI, f"night-down narrow: {beyond}")
    report(7, "maximum secure ranges within a factor 1.5 of the published tables, or beyond the cap", failures)


def _orbital_scenario(link, period, sky, setup, mu, phi, filter_width=None):
    scn = Scenario.build(link, period, sky=sky, setup=setup,
                         protocol=ProtocolParams(mu=mu, phi_thr=phi))
    if filter_width is not None:
        scn = replace(scn, receiver=replace(scn.receiver, filter_width=filter_width))
    return scn


def test_acceptance_08_orbital_rates():
    failures = []
    runs = [
        ("night-down 530 km", _orbital_scenario("down", "night", "clear", 2, 9.28, 0.73),
         530e3, 10, 4.1e-2, 4.1e7),
        ("clear-day-down 530 km", _orbital_scenario("down", "day", "clear", 2, 9.65, 0.83),
         530e3, 10, 2e-2, 2e7),
        ("night-up 155 km", _orbital_scenario("up", "night", "clear", 3, 7.0, 0.68),
         155e3, 3, 2.46e-2, 7.39e6),
    ]
    reports = {}
    for label, scn, h, blocks, rate_ref, bits_ref in runs:
        start = time.perf_counter()
        rep = scn.pass_report(h, blocks)
        elapsed = time.perf_counter() - start
        reports[label] = rep
        check(
            failures,
            abs(rep["R_orb"] - rate_ref) / rate_ref < 0.2,
            f"{label}: R_orb {rep['R_orb']:.3e} vs {rate_ref:.3e}",
        )
        check(
            failures,
            abs(rep["bits_per_pass"] - bits_ref) / bits_ref < 0.2,
            f"{label}: bits/pass {rep['bits_per_pass']:.3e} vs {bits_ref:.3e}",
        )
        check(failures, elapsed < 300.0, f"{label}: runtime {elapsed:.1f} s >= 5 min")

    # a 0.1 pm filter makes day-time downlink coincide with night-time,
    # whatever the sky condition
    r_night = reports["night-down 530 km"]["R_orb"]
    for sky in ("clear", "cloudy"):
        narrow_day = _orbital_scenario("down", "day", sky, 2, 9.28, 0.73, filter_width=1e-13)
        r_day = narrow_day.pass_report(530e3, 10)["R_orb"]
        check(
            failures,
            abs(r_day - r_night) / r_night < 0.02,
            f"narrow-filter {sky}-day rate {r_day:.4e} vs night {r_night:.4e}",
        )
    report(8, "orbital key rates and per-pass yields within 20%; filter collapse < 2%", failures)


def test_acceptance_09_fiber_crossovers():
    failures = []
    night = _orbital_scenario("down", "night", "clear", 2, 9.28, 0.73)
    sat_bits = night.pass_report(530e3, 10)["bits_per_day"]
    clock = night.protocol.clock_hz

    def crossover(rate_fn) -> float:
        lo, hi = 1e3, 4e7
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if bits_per_day(rate_fn(mid), clock) > sat_bits:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    d_direct = crossover(repeater_rate)
    check(failures, abs(d_direct - 200e3) < 50e3, f"repeaterless crossover {d_direct / 1e3:.0f} km")
    d_rep = crossover(lambda d: repeater_rate(d, 30))
    check(failures, abs(d_rep - 6500e3) < 500e3, f"30-repeater crossover {d_rep / 1e3:.0f} km")
    report(9, "satellite-vs-fiber break-even distances reproduced", failures)


def test_acceptance_10_property_suite():
    failures = []

    # PLOB dominance of the asymptotic rate at beta = 1, zero noise
    for tau in np.linspace(0.02, 0.98, 13):
        for mu in (2.0, 9.28, 30.0):
            for det in ("hom", "het"):
                nu_add = ProtocolParams(detection=det).nu_add
                rate = mutual_information(float(tau), 0.0, mu - 1.0, nu_add) - holevo_bound(
                    float(tau), 0.0, mu, det
                )
                check(failures, rate <= plob(float(tau)) + 1e-11,
                      f"PLOB violated at tau={tau:.2f} mu={mu} {det}")

    # spot-size decomposition identity
    from satlink.beam import BeamParams

    beam = BeamParams(wavelength=800e-9, waist=0.2)
    night = PROFILES["hv-night"]
    for z in (2e5, 1e6, 3.6e7):
        for theta in (0.0, 1.0):
            s = spot_sizes(z, theta, beam, night, "up", 0.0)
            check(
                failures,
                abs(s.w_lt**2 - s.w_st**2 - s.sigma_tb2) < 1e-9 * s.w_lt**2,
                f"spot identity broken at z={z:g}",
            )

    # fading density normalization
    scn = Scenario.build("up", "night", setup=3)
    model = scn.fading_model(155e3, 1.0)
    total, _ = scipy.integrate.quad(lambda t: fading_pdf(t, model), 0.0, model.eta, limit=500)
    check(failures, abs(total - 1.0) < 1e-6, f"density normalizes to {total:.8f}")

    # composable -> asymptotic convergence at O(1/sqrt(n))
    params = ProtocolParams(block_size=10**12, pilots=10**9, p_ec=1.0)
    r_n = (params.block_size - params.pilots) / params.block_size
    asy = asymptotic_rate(0.3, 1e-3, params)
    comp = composable_rate(0.3, 1e-3, params)
    check(failures, abs(asy - comp.rate / r_n) / asy < 0.01, "finite-size gap >= 1% at N=1e12")

    # determinism under fixed seeds
    a = sample_fading(model, 5000, seed=99)
    b = sample_fading(model, 5000, seed=99)
    check(failures, bool(np.array_equal(a, b)), "sampler not reproducible")

    report(10, "always-on property suite holds", failures)
