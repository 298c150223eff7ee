import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from satlink import NumericalError, Scenario
from satlink.beam import plob
from satlink.cli import main
from satlink.geometry import R_EARTH
from satlink.orbit import (
    bits_per_day,
    horizon_orbital_angle,
    orbital_period,
    orbital_rate,
    repeater_rate,
    slice_orbit,
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


README_PASS = ["pass", "--h", "530km", "--blocks", "10",
               "--set", "scenario.setup=2", "--set", "protocol.mu=9.28", "--set", "protocol.phi=0.73"]


def dip(theta: float) -> float:
    """A rate with its minimum inside the slice [0.28, 0.53] of the 530 km lattice."""
    return (abs(theta) - 0.4) ** 2


class TestOrbitalAverage:
    def test_interior_dip_is_a_numerical_failure(self, monkeypatch, capsys):
        with pytest.raises(NumericalError, match=r"the middle of the slice \[0\.28, 0\.53\]"):
            orbital_rate(dip, [(0.28, 0.53)])
        monkeypatch.setattr(Scenario, "rate_at", lambda self, h, theta, attacks: SimpleNamespace(rate=dip(theta)))
        assert main(README_PASS) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical error: the rate in the middle of the slice [-0.527064, -0.280673]"
            " lies below the rates at its ends\n"
        )

    def test_each_distinct_angle_is_evaluated_once(self, monkeypatch, capsys):
        # the README pass: 11 edges and 10 midpoints, of which 6 mirror another exactly
        rate_at, angles = Scenario.rate_at, []

        def counted(self, h, theta, attacks="collective"):
            angles.append(theta)
            return rate_at(self, h, theta, attacks)

        monkeypatch.setattr(Scenario, "rate_at", counted)
        assert main(README_PASS) == 0
        assert len(angles) == 15 == len(set(map(abs, angles)))

    @pytest.mark.parametrize("h", [155e3, 530e3, 2000e3])
    @pytest.mark.parametrize("blocks", [1, 2, 3, 7, 10, 12])
    def test_edges_and_midpoints_only(self, h, blocks):
        slices = slice_orbit(h, blocks, 5e7, 1e8)
        angles = []
        rate = lambda th: angles.append(th) or 1.0 - abs(th)
        _, per_slice = orbital_rate(rate, slices)
        assert len(angles) <= 2 * len(slices) + 1 and len(set(map(abs, angles))) == len(angles)
        # a slice's worst rate is at its edge of larger |theta|
        assert per_slice == [1.0 - max(abs(lo), abs(hi)) for lo, hi in slices]

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
    def test_zero_separation_flagged_infinite(self):
        assert repeater_rate(0.0) == math.inf

    def test_fiber_transmissivity(self):
        # 0.2 dB/km over 100 km is 20 dB: eta = 1e-2, and the capacity -log2(1 - eta)
        assert repeater_rate(100e3) == pytest.approx(-math.log2(1.0 - 10 ** (-2.0)), rel=1e-12)

    @pytest.mark.parametrize("d,n", [(1e-300, 10**19), (1e-320, 0), (5e-324, 0)])
    def test_underflowing_hop_loss_is_finite(self, d, n):
        # the hop's loss x ln 10 / 10, x = 0.2 d / 1e3 / (n + 1) dB, underflows
        # (d and x subnormal, or x below the smallest double): -log2 of it stays finite
        ln_loss = math.log(0.2) + math.log(d) - math.log(1e3) - math.log(n + 1) + math.log(math.log(10.0) / 10.0)
        assert repeater_rate(d, n) == pytest.approx(-ln_loss / math.log(2.0), rel=1e-15)

    def test_rate_is_continuous_where_the_loss_underflows(self):
        # either side of the smallest normal loss: -log2(loss) by both spellings
        d = 1e3 * sys.float_info.min / (0.2 * math.log(10.0) / 10.0)
        below, above = repeater_rate(d * (1.0 - 1e-9)), repeater_rate(d * (1.0 + 1e-9))
        assert below == pytest.approx(1022.0, rel=1e-11)
        # no step between them: -log2 falls by 2e-9 / ln 2 across the switch
        assert below - above == pytest.approx(2e-9 / math.log(2.0), rel=1e-4)

    def test_repeaters_help_and_degenerate_case(self):
        d = 500e3
        # no repeater: the plain fiber, 0.2 dB/km over 500 km
        assert repeater_rate(d, 0) == plob(10 ** (-0.2 * 500 / 10))
        rates = [repeater_rate(d, n) for n in (0, 1, 5, 30)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_bits_per_day_linear(self):
        assert bits_per_day(1e-3, 5e6) == pytest.approx(1e-3 * 5e6 * 86400)
        assert bits_per_day(2e-3, 5e6) == pytest.approx(2 * bits_per_day(1e-3, 5e6))
