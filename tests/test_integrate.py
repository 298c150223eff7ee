"""The in-repo quadrature rules and special functions against scipy oracles."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from satlink._integrate import gauss_laguerre, gauss_legendre, tanh_sinh
from satlink._special import erfcinv, i0e, i1e
from satlink.errors import NumericalError
from satlink.geometry import altitude_from_slant, slant_range
from satlink.turbulence import LAYER_EDGES_M, TurbulenceProfile, cn2

EPS = np.finfo(float).eps


def quad(f, a, b, **kw):
    """scipy's adaptive quadrature on a scalar version of a vectorised integrand."""
    value, _ = scipy.integrate.quad(lambda x: float(f(np.float64(x))), a, b, **kw)
    return value


def assert_error_bounds(q, exact):
    # the reported estimate bounds the actual error, up to rounding in the sums
    assert abs(q.value - exact) <= q.error + 8 * EPS * abs(exact)


class TestGaussLaguerre:
    """Exponentially decaying tails, as in the beam-wandering integral."""

    @pytest.mark.parametrize("s,gamma,eta", [(0.1, 2.0, 0.4), (3.0, 2.5, 1e-6), (55.0, 9.7, 0.39)])
    def test_wander_tail(self, s, gamma, eta):
        def tail(x):
            return np.exp(-s * x ** (2.0 / gamma) - x) / (1.0 - eta * np.exp(-x))

        q = gauss_laguerre(tail, 1.0, 1.0 + 2.0 * s / gamma)
        ref = quad(tail, 1.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert q.value == pytest.approx(ref, rel=1e-11)

    def test_error_estimate_bounds_error(self):
        # integral_1^inf x^2 e^(-3x) dx in closed form
        q = gauss_laguerre(lambda x: x * x * np.exp(-3.0 * x), 1.0, 3.0)
        assert_error_bounds(q, math.exp(-3.0) * (1 / 3 + 2 / 9 + 2 / 27))

    def test_divergent_raises(self):
        with pytest.raises(NumericalError):
            gauss_laguerre(lambda x: np.ones_like(x), 0.0, 1.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            gauss_laguerre(lambda x: np.exp(-x), 0.0, 0.0)


class TestGaussLegendre:
    """The slant-path extinction integrand exp(-h(y) / h_scale)."""

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, math.pi / 2])
    def test_extinction_path(self, theta):
        h_scale = 6600.0
        path = slant_range(200e3, theta)

        def integrand(y):
            return np.exp(-altitude_from_slant(y, theta) / h_scale)

        q = gauss_legendre(integrand, 0.0, path)
        ref = quad(integrand, 0.0, path, epsabs=0.0, epsrel=1e-13, limit=300)
        assert q.value == pytest.approx(ref, rel=1e-11)

    def test_error_estimate_bounds_error(self):
        q = gauss_legendre(lambda x: np.exp(-x), 0.0, 3.0)
        assert_error_bounds(q, -math.expm1(-3.0))

    def test_discontinuity_raises(self):
        with pytest.raises(NumericalError):
            gauss_legendre(lambda x: np.where(x < 0.3, 1.0, 0.0), 0.0, 1.0)


class TestTanhSinh:
    """Integrable endpoint singularities and unknown scales."""

    @pytest.mark.parametrize("windspeed", [21.0, 57.0])
    def test_cn2_bump(self, windspeed):
        # the Hufnagel-Valley column on its panel edges: ground layer and
        # the 10 km bump
        profile = TurbulenceProfile(windspeed=windspeed)
        panels = list(zip(LAYER_EDGES_M, LAYER_EDGES_M[1:]))
        q = [tanh_sinh(lambda x: cn2(x, profile), a, b) for a, b in panels]
        value = sum(p.value for p in q)
        # the three terms integrate in closed form; their tails beyond
        # 100 km are below 1e-30 of the total
        exact = (
            5.94e-53 * (windspeed / 27.0) ** 2 * math.factorial(10) * 1000.0**11
            + 2.7e-16 * 1500.0
            + profile.a_ground * 100.0
        )
        assert abs(value - exact) <= sum(p.error for p in q) + 8 * EPS * exact
        ref = sum(
            quad(lambda x: cn2(x, profile), a, b, epsabs=0.0, epsrel=1e-12, limit=300)
            for a, b in panels
        )
        assert value == pytest.approx(ref, rel=1e-11)

    def test_hufnagel_stanley_singularity(self):
        hs = TurbulenceProfile.from_name("hufnagel-stanley")
        q = tanh_sinh(lambda x: cn2(x, hs), 0.0, 2e3)
        ref = quad(lambda x: cn2(x, hs), 0.0, 2e3, epsabs=0.0, epsrel=1e-12, limit=300)
        assert q.value == pytest.approx(ref, rel=1e-11)

    def test_error_estimate_bounds_error(self):
        # integral_0^b x^(-1/3) dx = 1.5 b^(2/3)
        q = tanh_sinh(lambda x: x ** (-1.0 / 3.0), 0.0, 2e3)
        assert_error_bounds(q, 1.5 * 2e3 ** (2.0 / 3.0))

    @pytest.mark.parametrize("gamma", [1.6, 1.9999, 2.0, 2.0001, 2.5, 6.0])
    @pytest.mark.parametrize("s", [0.1, 55.0])
    def test_wander_endpoint(self, gamma, s):
        # u^(gamma/2 - 1) at u = 0: singular below gamma = 2, a kink above
        g = gamma / 2.0

        def low(u):
            return np.exp(-s * u) * g * u ** (g - 1.0) / (np.exp(u**g) - 0.3)

        q = tanh_sinh(low, 0.0, 1.0)
        ref = quad(low, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=300)
        assert q.value == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("gamma", [1.6, 2.5, 9.7])
    @pytest.mark.parametrize("s", [0.1, 1.0, 55.0])
    def test_half_line_power_law(self, gamma, s):
        # integral_0^inf u^(p-1) e^(-s u) du = Gamma(p) / s^p, p = gamma / 2
        p = gamma / 2.0
        q = tanh_sinh(lambda u: u ** (p - 1.0) * np.exp(-s * u), 0.0, math.inf)
        assert_error_bounds(q, math.gamma(p) / s**p)

    def test_fading_average_shape(self):
        # s e^(-s u) f(eta e^(-u^(gamma/2))) with f = -log2(1 - tau)
        s, g, eta = 0.46, 1.00005, 0.02

        def integrand(u):
            return s * np.exp(-s * u) * -np.log1p(-eta * np.exp(-(u**g))) / math.log(2.0)

        q = tanh_sinh(integrand, 0.0, math.inf)
        ref = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12) + quad(
            integrand, 1.0, math.inf, epsabs=0.0, epsrel=1e-12
        )
        assert q.value == pytest.approx(ref, rel=1e-10)

    def test_empty_interval(self):
        assert tanh_sinh(lambda x: 1.0 / x, 2.0, 2.0).value == 0.0

    def test_divergent_raises(self):
        with pytest.raises(NumericalError):
            tanh_sinh(lambda x: 1.0 / x, 0.0, 1.0)

    def test_nan_raises(self):
        with pytest.raises(NumericalError):
            tanh_sinh(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def wander_low(u, s, g, eta):
    return np.exp(-s * u) * g * u ** (g - 1.0) / (np.exp(u**g) - eta)


def wander_tail(x, s, g, eta):
    return np.exp(-s * x ** (1.0 / g) - x) / (1.0 - eta * np.exp(-x))


def extinction(y, theta):
    return np.exp(-altitude_from_slant(y, theta) / 6600.0)


class TestBatches:
    """A batch of P integrals: each row gets the value its own call returns."""

    # rows that converge at different levels (gamma 1.6 needs the finest steps)
    S = np.array([0.1, 55.0, 3.0, 0.46])
    G = np.array([0.8, 4.85, 1.25, 1.00005])
    ETA = np.array([0.4, 0.39, 1e-6, 0.02])

    def test_tanh_sinh_rows(self):
        batch = tanh_sinh(wander_low, 0.0, 1.0, self.S, self.G, self.ETA, abs_tol=1e-12)
        for i in range(self.S.size):
            alone = tanh_sinh(wander_low, 0.0, 1.0, self.S[i], self.G[i], self.ETA[i], abs_tol=1e-12)
            assert batch.value[i] == alone.value and batch.error[i] == alone.error

    def test_half_line_tanh_sinh_rows(self):
        def density(u, s, g):
            return s * np.exp(-s * u) * u ** (g - 1.0)

        batch = tanh_sinh(density, 0.0, math.inf, self.S, self.G)
        for i in range(self.S.size):
            assert batch.value[i] == tanh_sinh(density, 0.0, math.inf, self.S[i], self.G[i]).value

    def test_gauss_laguerre_rows(self):
        rate = 1.0 + self.S / self.G
        batch = gauss_laguerre(wander_tail, 1.0, rate, self.S, self.G, self.ETA, abs_tol=1e-12)
        for i in range(self.S.size):
            alone = gauss_laguerre(
                wander_tail, 1.0, rate[i], self.S[i], self.G[i], self.ETA[i], abs_tol=1e-12
            )
            assert batch.value[i] == alone.value

    def test_gauss_legendre_rows_with_their_own_ends(self):
        theta = np.array([0.0, 1.0, 1.5, math.pi / 2])
        path = slant_range(200e3, theta)
        batch = gauss_legendre(extinction, 0.0, path, theta)
        for i in range(theta.size):
            assert batch.value[i] == gauss_legendre(extinction, 0.0, path[i], theta[i]).value

    def test_one_divergent_row_raises(self):
        # x^(-p) is integrable on [0, 1] for p < 1 only
        p = np.array([0.5, 0.3, 1.0, 0.2])
        with pytest.raises(NumericalError, match=r"tanh-sinh on \[0.0, 1.0\]"):
            tanh_sinh(lambda x, p: x**-p, 0.0, 1.0, p)
        assert tanh_sinh(lambda x, p: x**-p, 0.0, 1.0, p[p < 1]).value == pytest.approx(1 / (1 - p[p < 1]))

    def test_divergent_row_named_by_its_ends(self):
        b = np.array([1.0, 2.0, 3.0])
        scale = np.array([1.0, np.nan, 1.0])
        with pytest.raises(NumericalError, match=r"Gauss-Legendre on \[0.0, 2.0\]"):
            gauss_legendre(lambda x, c: c * np.exp(-x), 0.0, b, scale)


BESSEL_GRID = [0.0, 2e-8, 1e-6, 4.9e-6, 1e-4, 0.01, 0.38, 1.0, 4.0, 8.0, 8.5, 15.0, 30.0, 60.0]


class TestSpecialFunctions:
    @pytest.mark.parametrize("y", BESSEL_GRID + list(np.geomspace(1e-9, 60.0, 50)))
    def test_bessel_against_scipy(self, y):
        for mine, ref in ((i0e, scipy.special.i0e), (i1e, scipy.special.i1e)):
            want = float(ref(y))
            assert abs(mine(float(y)) - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("eps", [1e-40, 1e-20, 2.0**-33, 4.3e-11, 1e-5, 0.01, 0.3, 0.5])
    def test_erfcinv_against_scipy(self, eps):
        assert erfcinv(eps) == pytest.approx(float(scipy.special.erfcinv(eps)), rel=1e-15)
