"""Fixed-node quadrature rules with an n-versus-2n convergence check.

Every rule integrates a batch of P integrals in one pass.  The ends and the
extra arguments of the integrand are floats (one integral) or 1-D arrays
over the P rows.  The integrand f(x, *args) gets the nodes x, of shape
(n,) or (P, n), and each array argument as a (P, 1) column (floats pass as
they are), and returns values of the broadcast shape.  Node tables are
built once per process.

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

Each row compares a rule with n and with 2n nodes (step h and h/2 for
tanh-sinh).  A row whose two estimates agree within max(abs_tol,
REL_TOL * |I|) keeps that pair's finer estimate, so it gets the value a
call for that row alone returns; the rows still open double again, alone,
up to a fixed cap, and then NumericalError is raised for the first of
them.  The result carries that last difference as its error estimate; the
value returned is the finer of the pair, whose own error is far smaller
for rules that converge this fast.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

from ._array import all_, any_
from .errors import NumericalError

Integrand = Callable[..., np.ndarray]
# successive estimates for the open rows; sent those rows' indices (None: all)
Estimates = Generator[np.ndarray, "np.ndarray | None", None]

REL_TOL = 1e-10
LEGENDRE_NODES = (32, 64, 128, 256)
LAGUERRE_NODES = (32, 64, 128)  # 128 keeps e^x finite at the last node (x ~ 480)
NEWTON_STEPS = 6  # to the node tables' extended precision, from the first guesses
# tanh-sinh: t in [-T_MAX, T_MAX] with step TS_STEP / 2**level; at T_MAX the
# nodes lie 1e-37 (relative) from the ends of a finite interval
TS_STEP = 0.125  # first estimate: 65 nodes
TS_LEVELS = 6    # cap: step 1/256
T_MAX = 4.0


class Quadrature(NamedTuple):
    value: float  # or an ndarray over the rows of a batch
    error: float  # |I_2n - I_n| at the accepted pair


def _at(value, i: int):
    return value[i] if isinstance(value, np.ndarray) else value


def _columns(*values) -> list:
    """Per-row arrays as (P, 1) columns; floats as they are."""
    return [v[..., None] if isinstance(v, np.ndarray) else v for v in values]


def _open(columns: list, rows) -> list:
    """The columns at the open rows (all of them for rows None)."""
    if rows is None:
        return columns
    return [c[rows] if isinstance(c, np.ndarray) else c for c in columns]


def _converge(estimates: Estimates, abs_tol: float, where: Callable[[int], str]) -> Quadrature:
    """Accept each row at its first pair of estimates that agree.

    Rows accepted in a pair drop out; the generator is sent the indices of
    the rows still open before it makes its next estimate.
    """
    value = error = rows = None  # rows: indices of the open rows; None while all are
    # overflow, underflow and 0/0 at far nodes surface as inf or nan, which
    # fail the comparison instead of printing warnings
    with np.errstate(all="ignore"):
        prev = next(estimates)
        diff = math.inf
        while True:
            try:
                est = estimates.send(rows)
            except StopIteration:
                break
            diff = abs(est - prev)
            ok = (diff <= abs_tol) | (diff <= REL_TOL * abs(est))
            if all_(ok):
                if rows is None:
                    return Quadrature(est, diff)
                value[rows], error[rows] = est, diff
                return Quadrature(value, error)
            if any_(ok):
                if rows is None:
                    value, error, rows = np.empty_like(est), np.empty_like(est), np.arange(est.size)
                value[rows[ok]], error[rows[ok]] = est[ok], diff[ok]
                rows, est, diff = rows[~ok], est[~ok], diff[~ok]
            prev = est
    first = 0 if rows is None else int(rows[0])
    raise NumericalError(
        f"{where(first)} did not converge: last estimate {_at(prev, 0):.6g},"
        f" difference {_at(diff, 0):.3g}"
    )


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _recurrence(legendre: bool, n: int, z):
    """P_n, P_(n-1) and dP_n/dz (Legendre or Laguerre) at z, a float or an array."""
    p, q = 1.0, 0.0
    for j in range(1, n + 1):
        a = (2 * j - 1) * z if legendre else 2 * j - 1 - z
        p, q = (a * p - (j - 1) * q) / j, p
    dp = n * (z * p - q) / (z * z - 1) if legendre else n * (p - q) / z
    return p, dp


def _laguerre_start(n: int) -> list[float]:
    """The roots of L_n in double precision, smallest first.

    Each root's first guess extrapolates from the two before it (the
    formulas of Press et al., Numerical Recipes, gaulag); Newton's method
    then converges in a few steps.
    """
    roots: list[float] = []
    z = 0.0
    for i in range(n):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            z += 15.0 / (1.0 + 2.5 * n)
        else:
            z += (1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (z - roots[i - 2])
        for _ in range(20):  # the extended-precision steps finish the job
            p, dp = _recurrence(False, n, z)
            z -= p / dp
            if abs(p / dp) <= 1e-14 * z:
                break
        roots.append(z)
    return roots


@lru_cache(maxsize=None)
def _gauss(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre or Gauss-Laguerre nodes and weights.

    Newton's method on the three-term recurrence, run in extended precision
    where the platform has it (numpy's own tables have weights off by up to
    2e-11, relative, at n = 256), from the asymptotic Legendre roots
    cos(pi (i - 1/4) / (n + 1/2)) or from the double-precision Laguerre
    roots.  numpy.polynomial is not used: loading it, and the LAPACK
    eigensolver its tables start from, costs a process about 1.8 MB.
    Laguerre weights come multiplied by exp(x), so that
    integral_0^inf f = sum w_i f(x_i).
    """
    legendre = kind == "legendre"
    if legendre:
        start = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    else:
        start = _laguerre_start(n)
    z = np.array(start, dtype=np.longdouble)
    for _ in range(NEWTON_STEPS):
        p, dp = _recurrence(legendre, n, z)
        z = z - p / dp
    w = 2 / ((1 - z * z) * dp**2) if legendre else np.exp(z) / (z * dp**2)
    return _frozen(z.astype(float), w.astype(float))


def _gauss_estimates(
    kind: str, counts: Sequence[int], g: Callable[[np.ndarray, object], np.ndarray]
) -> Estimates:
    """sum_i w_i g(x_i) for each node count; the first two share one call of g."""
    (x0, w0), (x1, w1) = _gauss(kind, counts[0]), _gauss(kind, counts[1])
    gx = g(np.concatenate((x0, x1)), None)
    yield np.vecdot(gx[..., : x0.size], w0)
    rows = yield np.vecdot(gx[..., x0.size :], w1)
    for n in counts[2:]:
        x, w = _gauss(kind, n)
        rows = yield np.vecdot(g(x, rows), w)


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


def gauss_legendre(f: Integrand, a, b, *args) -> Quadrature:
    """Gauss-Legendre on [a, b], for f smooth on the closed interval."""

    columns = _columns(a, b, *args)

    def g(x, rows):
        lo, hi, *params = _open(columns, rows)
        half = 0.5 * (hi - lo)
        return half * f(0.5 * (lo + hi) + half * x, *params)

    estimates = _gauss_estimates("legendre", LEGENDRE_NODES, g)
    return _converge(estimates, 0.0, lambda i: f"Gauss-Legendre on [{_at(a, i)}, {_at(b, i)}]")


def gauss_laguerre(f: Integrand, a, rate, *args, abs_tol: float = 0.0) -> Quadrature:
    """Integral of f over [a, inf) for f decaying like exp(-rate * (x - a))."""
    if not all_(rate > 0.0):
        raise ValueError("decay rate must be positive")

    columns = _columns(a, rate, *args)

    def g(t, rows):
        lo, r, *params = _open(columns, rows)
        return f(lo + t / r, *params) / r

    estimates = _gauss_estimates("laguerre", LAGUERRE_NODES, g)
    return _converge(estimates, abs_tol, lambda i: f"Gauss-Laguerre on [{_at(a, i)}, inf)")


def tanh_sinh(f: Integrand, a, b, *args, abs_tol: float = 0.0) -> Quadrature:
    """Double-exponential rule on [a, b]; b may be inf (for every row).

    Endpoint singularities are integrable as long as f is finite at every
    interior point: no node falls on an end.
    """
    if all_(a == b):
        return Quadrature(0.0, 0.0)
    finite = all_(b < math.inf)
    columns = _columns(a, b, *args)

    def g(delta, rows):
        """f at the nodes -1 + delta and 1 - delta, mapped to [a, b], summed."""
        lo, hi, *params = _open(columns, rows)
        n = delta.size
        if finite:
            half = 0.5 * (hi - lo)
            fx = f(np.concatenate((lo + half * delta, hi - half * delta), axis=-1), *params)
            return half * (fx[..., :n] + fx[..., n:])
        # x = a + v / (1 - v) with v = (1 + s) / 2; d is v's distance from
        # its nearer end, so 1 - v = d exactly at the right-hand nodes
        d = 0.5 * delta
        fx = f(np.concatenate((lo + d / (1.0 - d), lo + (1.0 - d) / d), axis=-1), *params)
        return 0.5 * (fx[..., :n] / (1.0 - d) ** 2 + fx[..., n:] / d**2)

    def estimates() -> Estimates:
        # levels nest: each halving of the step adds the nodes in between;
        # the first two levels share one call of f
        (d0, w0), (d1, w1) = _tanh_sinh(0), _tanh_sinh(1)
        gx = g(np.concatenate((d0, d1)), None)
        total = np.vecdot(gx[..., : d0.size], w0)
        yield total * TS_STEP
        total = total + np.vecdot(gx[..., d0.size :], w1)
        rows = yield total * TS_STEP / 2
        for level in range(2, TS_LEVELS):
            delta, weight = _tanh_sinh(level)
            step = np.vecdot(g(delta, rows), weight)
            if rows is None:
                total = total + step
                rows = yield total * TS_STEP / 2**level
            else:
                total[rows] += step
                rows = yield total[rows] * TS_STEP / 2**level

    return _converge(estimates(), abs_tol, lambda i: f"tanh-sinh on [{_at(a, i)}, {_at(b, i)}]")
