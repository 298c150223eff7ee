import math

import numpy as np
import pytest

from satlink.geometry import R_EARTH
from satlink.orbit import (
    GroundComparison,
    bits_per_day,
    fiber_rate,
    horizon_orbital_angle,
    orbital_period,
    orbital_rate,
    repeater_rate,
    slice_min_rate,
    slice_orbit,
    station_distance,
    sun_sync_inclination,
    time_of_zenith,
    transit_times,
    zenith_angle_at,
)


class TestPeriodAndInclination:
    def test_kepler_identity(self):
        for h in (155e3, 530e3, 35786e3):
            mu_g = 6.674e-11 * 5.972e24
            assert orbital_period(h)**2 * mu_g / (4 * math.pi**2) == pytest.approx(
                (R_EARTH + h)**3, rel=1e-12
            )

    def test_reference_periods(self):
        assert orbital_period(530e3) / 60.0 == pytest.approx(95.0, abs=1.0)
        assert orbital_period(155e3) / 60.0 == pytest.approx(87.0, abs=1.0)

    def test_orbits_per_day(self):
        assert int(86400 // orbital_period(530e3)) == 15
        assert int(86400 // orbital_period(155e3)) == 16

    def test_sun_sync_inclinations(self):
        assert sun_sync_inclination(530e3) == pytest.approx(97.5, abs=0.1)
        assert sun_sync_inclination(155e3) == pytest.approx(96.1, abs=0.1)

    def test_sun_sync_cap(self):
        with pytest.raises(ValueError):
            sun_sync_inclination(6000e3)


class TestPassKinematics:
    def test_zenith_at_zero_time(self):
        assert zenith_angle_at(0.0, 530e3) == 0.0

    def test_sign_convention(self):
        assert zenith_angle_at(-30.0, 530e3) < 0 < zenith_angle_at(30.0, 530e3)

    def test_inverse_consistency(self):
        for theta in (-1.0, -0.3, 0.2, 1.2):
            t = time_of_zenith(theta, 530e3)
            assert zenith_angle_at(t, 530e3) == pytest.approx(theta, abs=1e-9)
        # round trip in time to microsecond accuracy
        for t in (-80.0, 15.0, 200.0):
            theta = zenith_angle_at(t, 530e3)
            assert time_of_zenith(theta, 530e3) == pytest.approx(t, abs=1e-6)

    def test_monotone_on_ascending_half(self):
        ts = np.linspace(0.0, 350.0, 30)
        thetas = [zenith_angle_at(t, 530e3) for t in ts]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))

    def test_below_horizon_rejected(self):
        t_horizon = horizon_orbital_angle(530e3) / math.sqrt(
            6.674e-11 * 5.972e24 / (R_EARTH + 530e3) ** 3
        )
        with pytest.raises(ValueError):
            zenith_angle_at(t_horizon * 1.01, 530e3)

    def test_zero_angle_zero_time(self):
        assert time_of_zenith(0.0, 530e3) == 0.0

    def test_transit_references(self):
        t_q, t_t = transit_times(530e3)
        assert t_q == pytest.approx(200.0, abs=1.0)
        assert t_t == pytest.approx(716.0, abs=1.0)
        t_q, t_t = transit_times(155e3)
        assert t_q == pytest.approx(60.0, abs=1.0)
        assert t_t == pytest.approx(364.0, abs=1.0)


class TestSlicing:
    def test_ten_block_lattice_at_530km(self):
        slices = slice_orbit(530e3, 10, 5e6, 1e8)
        starts = [lo for lo, _ in slices] + [slices[-1][1]]
        published = [-1.0, -0.88, -0.72, -0.53, -0.28, 0.0, 0.28, 0.53, 0.72, 0.88, 1.0]
        assert len(starts) == len(published)
        for got, ref in zip(starts, published):
            assert got == pytest.approx(ref, abs=0.01)

    def test_three_block_lattice_at_155km(self):
        slices = slice_orbit(155e3, 3, 5e6, 1e8)
        starts = [lo for lo, _ in slices] + [slices[-1][1]]
        for got, ref in zip(starts, [-1.0, -0.468, 0.468, 1.0]):
            assert got == pytest.approx(ref, abs=0.01)

    def test_mirror_symmetry(self):
        slices = slice_orbit(530e3, 10, 5e6, 1e8)
        n = len(slices)
        for k in range(n):
            lo, hi = slices[k]
            mlo, mhi = slices[n - 1 - k]
            assert lo == pytest.approx(-mhi, abs=1e-9)
            assert hi == pytest.approx(-mlo, abs=1e-9)

    def test_block_count_reduced_with_warning(self):
        with pytest.warns(UserWarning):
            slices = slice_orbit(530e3, 20, 5e6, 1e8)
        assert len(slices) == 10

    def test_zero_capacity_pass(self):
        # a pass too short for even one block yields an empty lattice
        assert slice_orbit(155e3, 1, 5e6, 1e10) == []


class TestOrbitalAverage:
    def test_worst_case_at_largest_angle(self):
        rate = lambda th: 1.0 - abs(th)  # monotone decreasing in |theta|
        assert slice_min_rate(rate, 0.28, 0.53) == pytest.approx(1.0 - 0.53, abs=1e-4)
        assert slice_min_rate(rate, -0.53, -0.28) == pytest.approx(1.0 - 0.53, abs=1e-4)

    def test_interior_minimum_found(self):
        dip = lambda th: (th - 0.4) ** 2
        assert slice_min_rate(dip, 0.28, 0.53) == pytest.approx(0.0, abs=1e-6)

    def test_average_dominates_one_radiant_rate(self):
        rate = lambda th: max(0.0, 1.0 - abs(th))
        slices = slice_orbit(530e3, 10, 5e6, 1e8)
        avg, per_slice = orbital_rate(rate, slices)
        assert avg >= max(0.0, rate(1.0))
        assert len(per_slice) == 10

    def test_negative_rates_clamped(self):
        slices = [(-1.0, 0.0), (0.0, 1.0)]
        avg, per_slice = orbital_rate(lambda th: -1.0, slices)
        assert avg == 0.0 and per_slice == [-1.0, -1.0]

    def test_empty_slices_rejected(self):
        with pytest.raises(ValueError):
            orbital_rate(lambda th: 1.0, [])


class TestGroundComparison:
    def test_station_distance(self):
        assert station_distance(0.0, 530e3) == 0.0
        t_s = orbital_period(530e3)
        assert station_distance(t_s / 2, 530e3) == pytest.approx(math.pi * R_EARTH, rel=1e-12)
        with pytest.raises(ValueError):
            station_distance(t_s, 530e3)

    def test_zero_separation_flagged_infinite(self):
        assert fiber_rate(0.0) == math.inf

    def test_fiber_transmissivity(self):
        comp = GroundComparison()
        assert comp.eta_fiber(100e3) == pytest.approx(10 ** (-2.0), rel=1e-12)

    def test_repeaters_help_and_degenerate_case(self):
        d = 500e3
        assert repeater_rate(d, 0) == fiber_rate(d)
        rates = [repeater_rate(d, n) for n in (0, 1, 5, 30)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_bits_per_day_linear(self):
        assert bits_per_day(1e-3, 5e6) == pytest.approx(1e-3 * 5e6 * 86400)
        assert bits_per_day(2e-3, 5e6) == pytest.approx(2 * bits_per_day(1e-3, 5e6))
