import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satlink import ConfigError, NumericalError
from satlink.beam import (
    BeamParams,
    ReceiverParams,
    diffraction_bound,
    diffraction_waist,
    eta_diffraction,
    plob,
)

from _reference import EXTINCTION, bound_v, eta_diffraction_far, eta_total

BEAM = BeamParams(wavelength=800e-9, waist=0.2)
RECEIVER = ReceiverParams(aperture=0.4, efficiency=0.4)


class TestWaist:
    def test_at_source(self):
        assert diffraction_waist(0.0, BEAM) == BEAM.waist

    def test_rayleigh_range(self):
        # 800 nm, 20 cm waist: the collimated beam stays narrow out to ~160 km
        assert BEAM.rayleigh_range == pytest.approx(1.6e5, rel=0.05)

    def test_focused_beam(self):
        z = 5e5
        focused = BeamParams(wavelength=800e-9, waist=0.2, curvature=z)
        assert diffraction_waist(z, focused) == pytest.approx(
            BEAM.waist * z / BEAM.rayleigh_range, rel=1e-12
        )

    @given(z=st.floats(0.0, 1e8))
    def test_never_below_waist_collimated(self, z):
        assert diffraction_waist(z, BEAM) >= BEAM.waist

    def test_validation(self):
        with pytest.raises(ConfigError):
            BeamParams(wavelength=-1e-9, waist=0.2)
        with pytest.raises(ValueError):
            diffraction_waist(-1.0, BEAM)


class TestDiffractionTransmissivity:
    def test_large_aperture_limit(self):
        assert eta_diffraction(0.0, BEAM, aperture=10.0) == pytest.approx(1.0, abs=1e-12)

    def test_far_field_accuracy_band(self):
        # the linearized form is within 1% while 2 a_R^2 / w_d^2 < 0.02
        for target in (0.001, 0.005, 0.019):
            w_needed = math.sqrt(2.0 * 0.05**2 / target)
            z = BEAM.rayleigh_range * math.sqrt((w_needed / BEAM.waist) ** 2 - 1.0)
            exact = eta_diffraction(z, BEAM, 0.05)
            far = eta_diffraction_far(z, BEAM, 0.05)
            assert abs(far - exact) / exact < 0.01
            assert far > exact

    def test_cross_check_at_500km(self):
        z = 500e3
        exact = eta_diffraction(z, BEAM, 0.4)
        far = eta_diffraction_far(z, BEAM, 0.4)
        assert exact == pytest.approx(-math.expm1(-far), rel=1e-12)

    @given(z1=st.floats(1e3, 1e8), z2=st.floats(1e3, 1e8))
    def test_strictly_decreasing(self, z1, z2):
        lo, hi = sorted((z1, z2))
        if hi > lo * (1 + 1e-9):
            assert eta_diffraction(hi, BEAM, 0.4) < eta_diffraction(lo, BEAM, 0.4)


class TestPlob:
    def test_anchor_values(self):
        assert plob(0.0) == 0.0
        assert plob(0.5) == pytest.approx(1.0, rel=1e-12)
        # series: eta/ln2 + eta^2/(2 ln2) + ...
        assert plob(1e-3) == pytest.approx(1.4427e-3, abs=1e-6)

    def test_series_oracle(self):
        eta = 0.01
        series = sum(eta**k / k / math.log(2) for k in range(1, 12))
        assert plob(eta) == pytest.approx(series, rel=1e-12)

    def test_unit_transmissivity_is_infinite(self):
        assert plob(1.0) == math.inf

    def test_domain(self):
        with pytest.raises(NumericalError):
            plob(-0.1)
        with pytest.raises(NumericalError):
            plob(1.1)

    @given(e1=st.floats(0.0, 0.999), e2=st.floats(0.0, 0.999))
    def test_increasing_and_convex(self, e1, e2):
        lo, hi = sorted((e1, e2))
        if hi > lo:
            assert plob(hi) > plob(lo)
        mid = 0.5 * (lo + hi)
        assert plob(mid) <= 0.5 * (plob(lo) + plob(hi)) + 1e-12


class TestDiffractionBound:
    def test_first_order_match_with_plob(self):
        z = 3e6  # deep far field
        far = eta_diffraction_far(z, BEAM, 0.4)
        u = diffraction_bound(z, BEAM, 0.4)
        assert abs(u - plob(far)) / u < far

    def test_equals_plob_of_exact_eta(self):
        # -log2(1 - eta_d) with eta_d = 1 - exp(-x) is exactly x / ln 2
        for z in (1e5, 5e5, 1e7):
            assert diffraction_bound(z, BEAM, 0.4) == pytest.approx(
                plob(eta_diffraction(z, BEAM, 0.4)), rel=1e-9
            )

    def test_horizon_below_zenith(self):
        from satlink.geometry import slant_range

        for h in (1e5, 5e5, 5e6):
            u0 = diffraction_bound(slant_range(h, 0.0), BEAM, 0.4)
            u90 = diffraction_bound(slant_range(h, math.pi / 2), BEAM, 0.4)
            assert u0 > u90

    def test_far_field_quartering(self):
        z = 5e7
        ratio = diffraction_bound(z, BEAM, 0.4) / diffraction_bound(2 * z, BEAM, 0.4)
        assert ratio == pytest.approx(4.0, rel=1e-4)


class TestTotalLoss:
    def test_reduces_to_diffraction(self):
        ideal = ReceiverParams(aperture=0.4, efficiency=1.0)
        clear = eta_total(530e3, 0.0, BEAM, ideal)
        # remove extinction by hand to isolate the diffraction factor
        from satlink.atmosphere import eta_atm

        assert clear / eta_atm(530e3, 0.0, EXTINCTION) == pytest.approx(
            eta_diffraction(530e3, BEAM, 0.4), rel=1e-9
        )

    def test_efficiency_contributes_4db(self):
        assert -10 * math.log10(RECEIVER.efficiency) == pytest.approx(4.0, abs=0.05)

    def test_combined_bound_one_order_below_diffraction_bound(self):
        from satlink.geometry import slant_range

        for h in (100e3, 150e3):
            z = slant_range(h, 0.0)
            u = diffraction_bound(z, BEAM, 0.4)
            v = bound_v(h, 0.0, BEAM, RECEIVER)
            assert 5.0 < u / v < 20.0

    def test_v_below_u_everywhere(self):
        from satlink.geometry import slant_range

        for h in np.geomspace(1e5, 3.6e7, 8):
            for theta in (0.0, 1.0):
                z = slant_range(h, theta)
                assert bound_v(h, theta, BEAM, RECEIVER) <= diffraction_bound(z, BEAM, 0.4)


class TestReceiverParams:
    def test_gamma_r_reference(self):
        assert RECEIVER.gamma_r == pytest.approx(1.6e-19, rel=1e-9)

    def test_gamma_r_narrow_filter(self):
        narrow = ReceiverParams(aperture=0.4, filter_width=1e-13)
        assert narrow.gamma_r == pytest.approx(1.6e-23, rel=1e-9)

    def test_gamma_r_quadratic_in_aperture(self):
        double = ReceiverParams(aperture=0.8)
        assert double.gamma_r == pytest.approx(4 * RECEIVER.gamma_r, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReceiverParams(efficiency=0.0)
        with pytest.raises(ConfigError):
            ReceiverParams(excess_photons=-1.0)
