"""The in-repo quadrature rules and special functions against scipy oracles."""

import contextlib
import math
import random
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from satlink._integrate import Quadrature, tanh_sinh_rows
from satlink.atmosphere import LAGUERRE
from satlink._special import erfcinv, i0e, i1e
from satlink.errors import NumericalError
from satlink.geometry import slant_range

from _reference import (
    LAYER_EDGES_M,
    cn2,
    fading_average,
    hufnagel_valley,
    path_altitude,
    tanh_sinh_numpy,
    wander_delta,
)

EPS = np.finfo(float).eps


def quad(f, a, b, **kw):
    """scipy's adaptive quadrature on a scalar version of a vectorised integrand."""
    value, _ = scipy.integrate.quad(lambda x: float(f(np.float64(x))), a, b, **kw)
    return value


def one_row(f, a, b, *args, **kwargs) -> Quadrature:
    """The one row of tanh_sinh_rows on a numpy integrand f with float args."""
    (q,) = tanh_sinh_numpy(f, a, b, *args, **kwargs)
    return q


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

        q = one_row(mapped_tail, 0.0, 1.0, s, gamma / 2.0, eta)
        ref = quad(tail, 1.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert q.value == pytest.approx(ref, rel=1e-11)

    def test_error_estimate_bounds_error(self):
        # integral_1^inf x^2 e^(-3x) dx in closed form; after t = e^(-3 (x - 1))
        # the integrand is e^-3 x^2 / 3 with x = 1 - ln(t) / 3
        q = one_row(lambda t: math.exp(-3.0) * (1.0 - np.log(t) / 3.0) ** 2 / 3.0, 0.0, 1.0)
        assert_error_bounds(q, math.exp(-3.0) * (1 / 3 + 2 / 9 + 2 / 27))


class TestGaussLegendre:
    """Integrands of Gauss-Legendre type, smooth on the closed interval: the
    slant-path extinction exp(-h(y) / h_scale)."""

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, math.pi / 2])
    def test_extinction_path(self, theta):
        path = slant_range(200e3, theta)

        def integrand(y):
            return extinction(y, math.cos(theta))

        q = one_row(integrand, 0.0, path)
        ref = quad(integrand, 0.0, path, epsabs=0.0, epsrel=1e-13, limit=300)
        assert q.value == pytest.approx(ref, rel=1e-11)

    def test_error_estimate_bounds_error(self):
        q = one_row(lambda x: np.exp(-x), 0.0, 3.0)
        assert_error_bounds(q, -math.expm1(-3.0))

    def test_discontinuity_raises(self):
        with pytest.raises(NumericalError):
            one_row(lambda x: np.where(x < 0.3, 1.0, 0.0), 0.0, 1.0)


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
            got = wander_delta(eta, s, gamma)
            ref = wander_delta_oracle(eta, s, gamma)
            assert abs(got - ref) <= 1e-12 + 1e-10 * abs(1.0 - ref), (gamma, s, eta)


class TestTanhSinh:
    """Integrable endpoint singularities and unknown scales."""

    @pytest.mark.parametrize("windspeed", [21.0, 57.0])
    def test_cn2_bump(self, windspeed):
        # the Hufnagel-Valley column of the night ground value on its panel
        # edges: ground layer and the 10 km bump
        profile = lambda x: hufnagel_valley(x, 1.7e-14, windspeed)
        panels = list(zip(LAYER_EDGES_M, LAYER_EDGES_M[1:]))
        q = [one_row(profile, a, b) for a, b in panels]
        value = sum(p.value for p in q)
        # the three terms integrate in closed form; their tails beyond
        # 100 km are below 1e-30 of the total
        exact = (
            5.94e-53 * (windspeed / 27.0) ** 2 * math.factorial(10) * 1000.0**11
            + 2.7e-16 * 1500.0
            + 1.7e-14 * 100.0
        )
        assert abs(value - exact) <= sum(p.error for p in q) + 8 * EPS * exact
        ref = sum(
            quad(profile, a, b, epsabs=0.0, epsrel=1e-12, limit=300)
            for a, b in panels
        )
        assert value == pytest.approx(ref, rel=1e-11)

    def test_hufnagel_stanley_singularity(self):
        q = one_row(lambda x: cn2(x, "hufnagel-stanley"), 0.0, 2e3)
        ref = quad(lambda x: cn2(x, "hufnagel-stanley"), 0.0, 2e3, epsabs=0.0, epsrel=1e-12, limit=300)
        assert q.value == pytest.approx(ref, rel=1e-11)

    def test_error_estimate_bounds_error(self):
        # integral_0^b x^(-1/3) dx = 1.5 b^(2/3)
        q = one_row(lambda x: x ** (-1.0 / 3.0), 0.0, 2e3)
        assert_error_bounds(q, 1.5 * 2e3 ** (2.0 / 3.0))

    @pytest.mark.parametrize("gamma", [1.6, 1.9999, 2.0, 2.0001, 2.5, 6.0])
    @pytest.mark.parametrize("s", [0.1, 55.0])
    def test_wander_endpoint(self, gamma, s):
        # u^(gamma/2 - 1) at u = 0: singular below gamma = 2, a kink above
        g = gamma / 2.0

        def low(u):
            return np.exp(-s * u) * g * u ** (g - 1.0) / (np.exp(u**g) - 0.3)

        q = one_row(low, 0.0, 1.0)
        ref = quad(low, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=300)
        assert q.value == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("gamma", [1.6, 2.5, 9.7])
    @pytest.mark.parametrize("s", [0.1, 1.0, 55.0])
    def test_half_line_power_law(self, gamma, s):
        # integral_0^inf u^(p-1) e^(-s u) du = Gamma(p) / s^p, p = gamma / 2,
        # split at u = 1 as the wander integral is: u^(p-1) at u = 0, and the
        # tail on (0, 1] after t = e^(-s (u - 1)), a logarithm at t = 0
        p = gamma / 2.0
        low = one_row(lambda u: u ** (p - 1.0) * np.exp(-s * u), 0.0, 1.0)
        tail = one_row(lambda t: (1.0 - np.log(t) / s) ** (p - 1.0) * math.exp(-s) / s, 0.0, 1.0)
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
        assert one_row(lambda x: 1.0 / x, 2.0, 2.0).value == 0.0

    def test_divergent_raises(self):
        with pytest.raises(NumericalError):
            one_row(lambda x: 1.0 / x, 0.0, 1.0)

    def test_nan_raises(self):
        with pytest.raises(NumericalError):
            one_row(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


class TestBatches:
    """A batch of P integrals, rows of one numpy integrand: each row gets the
    value its own call returns."""

    # rows that converge at different levels (gamma 1.6 needs the finest steps)
    S = np.array([0.1, 55.0, 3.0, 0.46])
    G = np.array([0.8, 4.85, 1.25, 1.00005])
    ETA = np.array([0.4, 0.39, 1e-6, 0.02])

    def test_tanh_sinh_rows(self):
        batch = tanh_sinh_numpy(wander_low, 0.0, 1.0, self.S, self.G, self.ETA, abs_tol=1e-12)
        for i in range(self.S.size):
            assert batch[i] == one_row(wander_low, 0.0, 1.0, self.S[i], self.G[i], self.ETA[i], abs_tol=1e-12)

    def test_mapped_tail_rows(self):
        # the wander tail mapped onto (0, 1], each row at its own decay rate
        batch = tanh_sinh_numpy(mapped_tail, 0.0, 1.0, self.S, self.G, self.ETA, abs_tol=1e-12)
        for i in range(self.S.size):
            assert batch[i] == one_row(mapped_tail, 0.0, 1.0, self.S[i], self.G[i], self.ETA[i], abs_tol=1e-12)

    def test_rows_with_their_own_paths(self):
        # the ends of a batch are shared: each row's path maps onto [0, 1]
        thetas = [0.0, 1.0, 1.5, math.pi / 2]
        path = [slant_range(200e3, theta) for theta in thetas]
        cos_theta = [math.cos(theta) for theta in thetas]

        def along(t, path, cos_theta):
            return path * extinction(path * t, cos_theta)

        batch = tanh_sinh_numpy(along, 0.0, 1.0, np.array(path), np.array(cos_theta))
        for i in range(len(thetas)):
            assert batch[i] == one_row(along, 0.0, 1.0, path[i], cos_theta[i])
            assert batch[i].value == pytest.approx(one_row(extinction, 0.0, path[i], cos_theta[i]).value, rel=1e-12)

    def test_one_divergent_row_raises(self):
        # x^(-p) is integrable on [0, 1] for p < 1 only
        p = np.array([0.5, 0.3, 1.0, 0.2])
        with pytest.raises(NumericalError, match=r"tanh-sinh on \[0.0, 1.0\]"):
            tanh_sinh_numpy(lambda x, p: x**-p, 0.0, 1.0, p)
        rows = tanh_sinh_numpy(lambda x, p: x**-p, 0.0, 1.0, p[p < 1])
        assert [q.value for q in rows] == pytest.approx(1 / (1 - p[p < 1]))

    def test_divergent_row_raises_its_own_error(self):
        # rows 2 and 3 diverge: the batch raises the first one's lone-call error
        p = np.array([0.5, 0.3, 1.0, 1.2])
        with pytest.raises(NumericalError) as batch:
            tanh_sinh_numpy(lambda x, p: x**-p, 0.0, 1.0, p)
        messages = []
        for q in p[2:].tolist():
            with pytest.raises(NumericalError) as alone:
                one_row(lambda x, p: x**-p, 0.0, 1.0, q)
            messages.append(str(alone.value))
        assert str(batch.value) == messages[0] != messages[1]

    def test_divergent_row_named_by_its_ends(self):
        # a nan row fails the comparison at every level
        scale = np.array([1.0, np.nan, 1.0])
        with pytest.raises(NumericalError, match=r"tanh-sinh on \[0.0, 2.0\]"):
            tanh_sinh_numpy(lambda x, c: c * np.exp(-x), 0.0, 2.0, scale)


def powers(nodes, p):
    """The weighted sums of x^(-q) over a node table, a sum for each q of p, in math."""
    return [sum(w * u**-q for u, w in zip(nodes.x, nodes.weight)) for q in p]


def levels_taken(rule, f, *args) -> int:
    """How many levels a rule evaluates on [0, 1] before it returns or raises."""
    calls = []

    def counted(x, *rest):
        calls.append(x)
        return f(x, *rest)

    with contextlib.suppress(NumericalError):
        rule(counted, 0.0, 1.0, *args)
    return len(calls)


class TestRowsInMath:
    """tanh_sinh_rows on an integrand in math, which returns each row's
    weighted sum over a level's node table: the rows of the same integrand
    on numpy, to rounding."""

    P = [0.5, 0.3, 0.75, 0.76]  # x^(-p) on [0, 1], accepted at steps 1/16, 1/16, 1/64 and 1/128

    def test_rows_agree_with_the_batch(self):
        rows = tanh_sinh_rows(powers, 0.0, 1.0, self.P)
        batch = tanh_sinh_numpy(lambda x, p: x**-p, 0.0, 1.0, np.array(self.P))
        for i, p in enumerate(self.P):
            assert rows[i].value == pytest.approx(batch[i].value, rel=1e-14, abs=0.0)
            assert rows[i].value == pytest.approx(1.0 / (1.0 - p), rel=2e-9)

    def test_each_row_is_accepted_at_its_own_level(self):
        # a row gets what its own call returns, at the level the numpy integrand's row is accepted
        rows = tanh_sinh_rows(powers, 0.0, 1.0, self.P)
        levels = []
        for i, p in enumerate(self.P):
            assert tanh_sinh_rows(powers, 0.0, 1.0, [p]) == [rows[i]]
            levels.append(levels_taken(tanh_sinh_rows, powers, [p]))
            assert levels[-1] == levels_taken(tanh_sinh_numpy, lambda x, p: x**-p, p)
        assert len(set(levels)) > 2

    def test_divergent_row_raises_the_batch_error(self):
        # rows 2 and 3 diverge: the first one's message, as the numpy integrand's batch words it
        p = [0.5, 0.3, 1.0, 1.2]
        with pytest.raises(NumericalError) as rows:
            tanh_sinh_rows(powers, 0.0, 1.0, p)
        with pytest.raises(NumericalError) as batch:
            tanh_sinh_numpy(lambda x, p: x**-p, 0.0, 1.0, np.array(p))
        assert str(rows.value) == str(batch.value)
        assert levels_taken(tanh_sinh_rows, powers, p) == levels_taken(tanh_sinh_numpy, lambda x, p: x**-p, np.array(p))

    @pytest.mark.parametrize("f", [
        lambda nodes: [sum(math.exp(1e3 * u) for u in nodes.x)],  # OverflowError
        lambda nodes: [sum(1.0 / (u - 0.5) for u in nodes.x)],     # ZeroDivisionError at the middle node
        lambda nodes: [sum(math.log(u - 0.5) for u in nodes.x)],   # ValueError
    ])
    def test_math_errors_are_numerical_errors(self, f):
        # where numpy gives inf or nan, and fails to converge
        with pytest.raises(NumericalError, match=r"tanh-sinh on \[0.0, 1.0\] did not converge"):
            tanh_sinh_rows(f, 0.0, 1.0)

    def test_negative_ends(self):
        # the table takes no log of its negative nodes unless the integrand asks for it
        def squares(nodes):
            return [sum(w * u * u for u, w in zip(nodes.x, nodes.weight))]

        (row,) = tanh_sinh_rows(squares, -2.0, -1.0)
        assert row.value == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_log_is_taken_once_per_table(self):
        tables = []

        def logs(nodes):
            tables.append((nodes, nodes.log))
            return powers(nodes, [0.5])

        tanh_sinh_rows(logs, 0.0, 1.0)
        first = len(tables)
        tanh_sinh_rows(logs, 0.0, 1.0)
        for (nodes, log), (_, again) in zip(tables, tables[first:]):
            assert again is log and log == [math.log(u) for u in nodes.x]

    def test_empty_rows(self):
        assert tanh_sinh_rows(lambda x: [], 0.0, 1.0) == []


BESSEL_GRID = [0.0, 2e-8, 1e-6, 4.9e-6, 1e-4, 0.01, 0.38, 1.0, 4.0, 8.0, 8.5, 15.0, 30.0, 60.0]


class TestSpecialFunctions:
    @pytest.mark.parametrize("y", BESSEL_GRID + list(np.geomspace(1e-9, 60.0, 50)))
    def test_bessel_against_scipy(self, y):
        for mine, ref in ((i0e, scipy.special.i0e), (i1e, scipy.special.i1e)):
            want = float(ref(y))
            assert abs(mine(float(y)) - want) <= 2 * math.ulp(want)

    EPS_PE = [1e-40, 1e-20, 2.0**-33, 4.3e-11, 1e-5, 0.01, 0.3, 0.5]

    @pytest.mark.parametrize("eps", EPS_PE)
    def test_erfcinv_against_scipy(self, eps):
        assert erfcinv(eps) == pytest.approx(float(scipy.special.erfcinv(eps)), rel=1e-15)

    def test_erfcinv_is_the_standard_library_quantile(self):
        # the AS241 port returns the very doubles of the NormalDist quantile it replaces
        rng = random.Random(1)
        xs = [10.0 ** rng.uniform(-320.0, math.log10(0.98)) for _ in range(200_000)]
        xs += [0.98 + 1.02 * i / 10_000 for i in range(1, 10_000)]  # (0.98, 2)
        # the smallest subnormal, the centre and every eps_pe of the README and the tests
        xs += [5e-324, 1.0, 2.0**-33, 1e-12, 1e-43, *self.EPS_PE]
        quantile = NormalDist().inv_cdf
        moved = [x for x in xs if erfcinv(x).hex() != (-quantile(max(x / 2, 5e-324)) / math.sqrt(2)).hex()]
        assert not moved
