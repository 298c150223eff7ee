"""The in-repo quadrature rules and special functions against scipy oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from satlink._integrate import LAGUERRE, Quadrature, tanh_sinh
from satlink._special import erfcinv, i0e, i1e
from satlink.errors import NumericalError
from satlink.geometry import path_altitude, slant_range
from satlink.turbulence import PROFILES, TurbulenceProfile

from _reference import LAYER_EDGES_M, cn2, fading_average, wander_delta

EPS = np.finfo(float).eps


def quad(f, a, b, **kw):
    """scipy's adaptive quadrature on a scalar version of a vectorised integrand."""
    value, _ = scipy.integrate.quad(lambda x: float(f(np.float64(x))), a, b, **kw)
    return value


def assert_error_bounds(q, exact):
    # the reported estimate bounds the actual error, up to rounding in the sums
    assert abs(q.value - exact) <= q.error + 8 * EPS * abs(exact)


def wander_low(u, s, g, eta):
    return np.exp(-s * u) * g * u ** (g - 1.0) / (np.exp(u**g) - eta)


def wander_tail(x, s, g, eta):
    return np.exp(-s * x ** (1.0 / g) - x) / (1.0 - eta * np.exp(-x))


def extinction(y, cos_theta):
    return np.exp(-path_altitude(y, cos_theta) / 6600.0)


def mapped_tail(t, s, g, eta):
    """The wander tail on [1, inf) mapped onto (0, 1] by t = exp(-rate (x - 1))."""
    rate = 1.0 + s / g
    return wander_tail(1.0 - np.log(t) / rate, s, g, eta) / (rate * t)


class TestGaussLaguerre:
    """Exponentially decaying tails, the integrands of Gauss-Laguerre type:
    tanh-sinh on (0, 1] after t = exp(-rate (x - a)), and the 8-node
    Gauss-Laguerre rule itself."""

    def test_literals_are_laggauss(self):
        nodes, weights = np.polynomial.laguerre.laggauss(8)
        assert LAGUERRE == tuple(zip(nodes.tolist(), weights.tolist()))

    @pytest.mark.parametrize("s,gamma,eta", [(0.1, 2.0, 0.4), (3.0, 2.5, 1e-6), (55.0, 9.7, 0.39)])
    def test_wander_tail(self, s, gamma, eta):
        def tail(x):
            return wander_tail(x, s, gamma / 2.0, eta)

        q = tanh_sinh(mapped_tail, 0.0, 1.0, s, gamma / 2.0, eta)
        ref = quad(tail, 1.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert q.value == pytest.approx(ref, rel=1e-11)

    def test_error_estimate_bounds_error(self):
        # integral_1^inf x^2 e^(-3x) dx in closed form; after t = e^(-3 (x - 1))
        # the integrand is e^-3 x^2 / 3 with x = 1 - ln(t) / 3
        q = tanh_sinh(lambda t: math.exp(-3.0) * (1.0 - np.log(t) / 3.0) ** 2 / 3.0, 0.0, 1.0)
        assert_error_bounds(q, math.exp(-3.0) * (1 / 3 + 2 / 9 + 2 / 27))


class TestGaussLegendre:
    """Integrands of Gauss-Legendre type, smooth on the closed interval: the
    slant-path extinction exp(-h(y) / h_scale)."""

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, math.pi / 2])
    def test_extinction_path(self, theta):
        path = slant_range(200e3, theta)

        def integrand(y):
            return extinction(y, math.cos(theta))

        q = tanh_sinh(integrand, 0.0, path)
        ref = quad(integrand, 0.0, path, epsabs=0.0, epsrel=1e-13, limit=300)
        assert q.value == pytest.approx(ref, rel=1e-11)

    def test_error_estimate_bounds_error(self):
        q = tanh_sinh(lambda x: np.exp(-x), 0.0, 3.0)
        assert_error_bounds(q, -math.expm1(-3.0))

    def test_discontinuity_raises(self):
        with pytest.raises(NumericalError):
            tanh_sinh(lambda x: np.where(x < 0.3, 1.0, 0.0), 0.0, 1.0)


def wander_delta_oracle(eta, s, gamma):
    """Delta by scipy quad: the lower piece in u = x^(2/gamma), the tail in x."""
    g = gamma / 2.0

    def low(u):
        return math.exp(-s * u) * g * u ** (g - 1.0) / (math.expm1(u**g) + (1.0 - eta))

    def high(x):
        return math.exp(-s * x ** (1.0 / g) - x) / (1.0 - eta * math.exp(-x))

    # panels that resolve the peak within (1 - eta)^(1/g) of u = 0 and the
    # decay on the scale 1/s; scales closer than a factor 2 share an edge
    edges = [0.0]
    for x in sorted(c * x for c in (1.0, 10.0, 100.0) for x in ((1.0 - eta) ** (1.0 / g), 1.0 / s)):
        if 2.0 * edges[-1] < x < 0.5:
            edges.append(x)
    edges.append(1.0)
    # Delta's tolerance below is 1e-12 absolute at the least
    kw = dict(epsabs=1e-15, epsrel=1e-12, limit=200)
    integral = sum(scipy.integrate.quad(low, a, b, **kw)[0] for a, b in zip(edges, edges[1:]))
    integral += scipy.integrate.quad(high, 1.0, math.inf, **kw)[0]
    return 1.0 + eta / math.log1p(-eta) * integral


@pytest.mark.parametrize("gamma", np.geomspace(2.0, 40.0, 6))
def test_wander_delta_against_quad(gamma):
    # gamma beyond the documented [2.0, 11.1], s = r0^2 / (2 sigma^2) over
    # nine decades and eta up to 1 - 1e-6.  The rule accepts the integral I
    # within max(1e-12, 1e-10 I); Delta = 1 + c I with c = eta / ln(1 - eta)
    # in (-1, 0) carries that into the bound below
    for s in np.geomspace(1e-3, 1e6, 10):
        for eta in (1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6):
            got = wander_delta(eta, 1.0 / (2.0 * s), gamma, 1.0)
            ref = wander_delta_oracle(eta, s, gamma)
            assert abs(got - ref) <= 1e-12 + 1e-10 * abs(1.0 - ref), (gamma, s, eta)


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
        hs = PROFILES["hufnagel-stanley"]
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
        # integral_0^inf u^(p-1) e^(-s u) du = Gamma(p) / s^p, p = gamma / 2,
        # split at u = 1 as the wander integral is: u^(p-1) at u = 0, and the
        # tail on (0, 1] after t = e^(-s (u - 1)), a logarithm at t = 0
        p = gamma / 2.0
        low = tanh_sinh(lambda u: u ** (p - 1.0) * np.exp(-s * u), 0.0, 1.0)
        tail = tanh_sinh(lambda t: (1.0 - np.log(t) / s) ** (p - 1.0) * math.exp(-s) / s, 0.0, 1.0)
        q = Quadrature(low.value + tail.value, low.error + tail.error)
        assert_error_bounds(q, math.gamma(p) / s**p)

    def fading_average_against_quad(self, tau_min):
        # the reference's average on [t_min, 1] in t = exp(-s u) against quad
        # of s e^(-s u) f(eta e^(-u^(gamma/2))) on [0, u_max], f = -log2(1 - tau)
        s, g, eta = 0.46, 1.00005, 0.02
        model = SimpleNamespace(spread=s, gamma=2.0 * g, eta=eta)
        u_max = math.log(eta / tau_min) ** (1.0 / g) if tau_min > 0.0 else math.inf

        def integrand(u):
            return s * np.exp(-s * u) * -np.log1p(-eta * np.exp(-(u**g))) / math.log(2.0)

        got = fading_average(lambda tau: -np.log1p(-tau) / math.log(2.0), model, 1e-13, tau_min)
        ref = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12) + quad(
            integrand, 1.0, u_max, epsabs=0.0, epsrel=1e-12
        )
        assert got == pytest.approx(ref, rel=1e-10)

    def test_fading_average_shape(self):
        self.fading_average_against_quad(0.0)

    def test_fading_average_cut(self):
        # a cut at tau_min moves the lower end of the t range
        self.fading_average_against_quad(0.005)

    def test_empty_interval(self):
        assert tanh_sinh(lambda x: 1.0 / x, 2.0, 2.0).value == 0.0

    def test_divergent_raises(self):
        with pytest.raises(NumericalError):
            tanh_sinh(lambda x: 1.0 / x, 0.0, 1.0)

    def test_nan_raises(self):
        with pytest.raises(NumericalError):
            tanh_sinh(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


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

    def test_gauss_laguerre_rows(self):
        # the mapped wander tail, each row at its own decay rate
        batch = tanh_sinh(mapped_tail, 0.0, 1.0, self.S, self.G, self.ETA, abs_tol=1e-12)
        for i in range(self.S.size):
            alone = tanh_sinh(mapped_tail, 0.0, 1.0, self.S[i], self.G[i], self.ETA[i], abs_tol=1e-12)
            assert batch.value[i] == alone.value and batch.error[i] == alone.error

    def test_gauss_legendre_rows_with_their_own_ends(self):
        # the ends of a batch are shared: each row's path maps onto [0, 1]
        thetas = [0.0, 1.0, 1.5, math.pi / 2]
        path = [slant_range(200e3, theta) for theta in thetas]
        cos_theta = [math.cos(theta) for theta in thetas]

        def along(t, path, cos_theta):
            return path * extinction(path * t, cos_theta)

        batch = tanh_sinh(along, 0.0, 1.0, np.array(path), np.array(cos_theta))
        for i in range(len(thetas)):
            assert batch.value[i] == tanh_sinh(along, 0.0, 1.0, path[i], cos_theta[i]).value
            assert batch.value[i] == pytest.approx(tanh_sinh(extinction, 0.0, path[i], cos_theta[i]).value, rel=1e-12)

    def test_one_divergent_row_raises(self):
        # x^(-p) is integrable on [0, 1] for p < 1 only
        p = np.array([0.5, 0.3, 1.0, 0.2])
        with pytest.raises(NumericalError, match=r"tanh-sinh on \[0.0, 1.0\]"):
            tanh_sinh(lambda x, p: x**-p, 0.0, 1.0, p)
        assert tanh_sinh(lambda x, p: x**-p, 0.0, 1.0, p[p < 1]).value == pytest.approx(1 / (1 - p[p < 1]))

    def test_divergent_row_named_by_its_ends(self):
        scale = np.array([1.0, np.nan, 1.0])
        with pytest.raises(NumericalError, match=r"tanh-sinh on \[0.0, 2.0\]"):
            tanh_sinh(lambda x, c: c * np.exp(-x), 0.0, 2.0, scale)


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
