"""Fixed-node quadrature rules with an n-versus-2n convergence check.

Every rule integrates a vectorised integrand (ndarray in, ndarray out) on
node tables that are built once per process:

- `gauss_legendre`: [a, b] for integrands smooth on the closed interval
  (the slant-path extinction).
- `gauss_laguerre`: the half-line [a, inf) for integrands that decay like
  exp(-rate * (x - a)) with a smooth remaining factor.
- `tanh_sinh`: the double-exponential rule of Takahasi & Mori (1974) on
  [a, b] or [a, inf), for integrable endpoint singularities (the
  Hufnagel-Stanley h^(-1/3), power-law path weights, u^(gamma/2 - 1)),
  the C_n^2 column panels and integrands whose scale is not known in
  advance.  On [a, inf) it maps x = a + v / (1 - v), which makes it an
  exp-sinh-type rule.

Each call evaluates a rule with n and with 2n nodes (step h and h/2 for
tanh-sinh).  Where the two disagree by more than max(abs_tol,
REL_TOL * |I|), it doubles again, up to a fixed cap, and then raises
NumericalError.  The result carries that last difference as its error
estimate; the value returned is the finer of the pair, whose own error is
far smaller for rules that converge this fast.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NumericalError

Integrand = Callable[[np.ndarray], np.ndarray]

REL_TOL = 1e-10
LEGENDRE_NODES = (32, 64, 128, 256)
LAGUERRE_NODES = (32, 64, 128)  # 128 keeps e^x finite at the last node (x ~ 480)
# tanh-sinh: t in [-T_MAX, T_MAX] with step TS_STEP / 2**level; at T_MAX the
# nodes lie 1e-37 (relative) from the ends of a finite interval
TS_STEP = 0.125  # first estimate: 65 nodes
TS_LEVELS = 6    # cap: step 1/256
T_MAX = 4.0


class Quadrature(NamedTuple):
    value: float
    error: float  # |I_2n - I_n| at the accepted pair


def _converge(estimates: Iterator[float], abs_tol: float, where: str) -> Quadrature:
    # overflow, underflow and 0/0 at far nodes surface as inf or nan, which
    # fail the comparison instead of printing warnings
    with np.errstate(all="ignore"):
        prev = next(estimates)
        error = math.inf
        for value in estimates:
            error = abs(value - prev)
            if error <= max(abs_tol, REL_TOL * abs(value)):
                return Quadrature(float(value), float(error))
            prev = value
    raise NumericalError(
        f"{where} did not converge: last estimate {prev:.6g}, difference {error:.3g}"
    )


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _gauss(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre or Gauss-Laguerre nodes and weights.

    numpy's tables start Newton's method on the three-term recurrence, run
    in extended precision where the platform has it: numpy's own weights
    are off by up to 2e-11 (relative) at n = 256.  Laguerre weights come
    multiplied by exp(x), so that integral_0^inf f = sum w_i f(x_i).
    """
    legendre = kind == "legendre"
    start = np.polynomial.legendre.leggauss if legendre else np.polynomial.laguerre.laggauss
    z = start(n)[0].astype(np.longdouble)
    for _ in range(3):
        p, q = np.ones_like(z), np.zeros_like(z)  # P_j and P_(j-1) at the nodes
        for j in range(1, n + 1):
            a = (2 * j - 1) * z if legendre else 2 * j - 1 - z
            p, q = (a * p - (j - 1) * q) / j, p
        dp = n * (z * p - q) / (z * z - 1) if legendre else n * (p - q) / z
        z = z - p / dp
    w = 2 / ((1 - z * z) * dp**2) if legendre else np.exp(z) / (z * dp**2)
    return _frozen(z.astype(float), w.astype(float))


def _gauss_estimates(
    kind: str, counts: Sequence[int], g: Callable[[np.ndarray], np.ndarray]
) -> Iterator[float]:
    """sum_i w_i g(x_i) for each node count; the first two share one call of g."""
    (x0, w0), (x1, w1) = _gauss(kind, counts[0]), _gauss(kind, counts[1])
    gx = g(np.concatenate((x0, x1)))
    yield gx[: x0.size] @ w0
    yield gx[x0.size :] @ w1
    for n in counts[2:]:
        x, w = _gauss(kind, n)
        yield g(x) @ w


@lru_cache(maxsize=None)
def _tanh_sinh(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes new at this level, as distances from the ends of [-1, 1].

    Returns (delta, weight) for t >= 0; each delta stands for the nodes
    -1 + delta and 1 - delta.  Level 0 holds t = 0 (delta = 1, the same
    node twice) with half its weight.  Weights exclude the step.
    """
    h = TS_STEP / 2**level
    t = np.arange(0.0 if level == 0 else h, T_MAX + h / 2, h if level == 0 else 2 * h)
    u = 0.5 * math.pi * np.sinh(t)
    delta = 2.0 / (np.exp(2.0 * u) + 1.0)  # 1 - tanh(u) without cancellation
    weight = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    if level == 0:
        weight[0] *= 0.5
    return _frozen(delta, weight)


def gauss_legendre(f: Integrand, a: float, b: float) -> Quadrature:
    """Gauss-Legendre on [a, b], for f smooth on the closed interval."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def g(x):
        return half * f(mid + half * x)

    estimates = _gauss_estimates("legendre", LEGENDRE_NODES, g)
    return _converge(estimates, 0.0, f"Gauss-Legendre on [{a}, {b}]")


def gauss_laguerre(
    f: Integrand,
    a: float,
    rate: float,
    *,
    abs_tol: float = 0.0,
) -> Quadrature:
    """Integral of f over [a, inf) for f decaying like exp(-rate * (x - a))."""
    if not rate > 0.0:
        raise ValueError("decay rate must be positive")

    def g(t):
        return f(a + t / rate) / rate

    estimates = _gauss_estimates("laguerre", LAGUERRE_NODES, g)
    return _converge(estimates, abs_tol, f"Gauss-Laguerre on [{a}, inf)")


def tanh_sinh(
    f: Integrand,
    a: float,
    b: float,
    *,
    abs_tol: float = 0.0,
) -> Quadrature:
    """Double-exponential rule on [a, b]; b may be inf.

    Endpoint singularities are integrable as long as f is finite at every
    interior point: no node falls on an end.
    """
    if a == b:
        return Quadrature(0.0, 0.0)

    def g(delta):
        """f at the nodes -1 + delta and 1 - delta, mapped to [a, b], summed."""
        n = delta.size
        if b < math.inf:
            half = 0.5 * (b - a)
            fx = f(np.concatenate((a + half * delta, b - half * delta)))
            return half * (fx[:n] + fx[n:])
        # x = a + v / (1 - v) with v = (1 + s) / 2; d is v's distance from
        # its nearer end, so 1 - v = d exactly at the right-hand nodes
        d = 0.5 * delta
        fx = f(np.concatenate((a + d / (1.0 - d), a + (1.0 - d) / d)))
        return 0.5 * (fx[:n] / (1.0 - d) ** 2 + fx[n:] / d**2)

    def estimates():
        # levels nest: each halving of the step adds the nodes in between;
        # the first two levels share one call of f
        (d0, w0), (d1, w1) = _tanh_sinh(0), _tanh_sinh(1)
        gx = g(np.concatenate((d0, d1)))
        total = gx[: d0.size] @ w0
        yield total * TS_STEP
        total += gx[d0.size :] @ w1
        yield total * TS_STEP / 2
        for level in range(2, TS_LEVELS):
            delta, weight = _tanh_sinh(level)
            total += g(delta) @ weight
            yield total * TS_STEP / 2**level

    return _converge(estimates(), abs_tol, f"tanh-sinh on [{a}, {b}]")
