"""The package's two quadrature rules: tanh-sinh, and 8-node Gauss-Laguerre.

`tanh_sinh` is the double-exponential rule of Takahasi & Mori (1974) on a
finite [a, b], with a step-halving convergence check.  It integrates the
beam-wandering factor of the bounds, and the lines of sight that the
Gauss-Laguerre rule does not take.  It takes integrable endpoint
singularities (u^(gamma/2 - 1)) and integrands whose scale is not known in
advance.  An infinite range is mapped onto a finite one by the caller, as
the wander tail is by t = exp(-rate (x - 1)).

The rule integrates a batch of P integrals in one pass: a bounds sweep
takes the wander factors of its points that way.  The ends are floats; the
extra arguments of the integrand are floats (one integral) or 1-D arrays
over the P rows.  The integrand f(x, *args) gets the nodes x, of shape (n,)
or (P, n), and each array argument as a (P, 1) column (floats pass as they
are), and returns values of the broadcast shape.  Node tables are built
once per process.

Each row compares the estimates at step h and h/2.  A row whose two
estimates agree within max(abs_tol, REL_TOL * |I|) keeps the finer one,
so it gets the value a call for that row alone returns; the rows still
open halve the step again, alone, up to a fixed cap, and then
NumericalError is raised for the first of them.  The result carries that
last difference as its error estimate; the value returned is the finer of
the pair, whose own error is far smaller for a rule that converges this
fast.

`LAGUERRE` is the 8-node Gauss-Laguerre rule, the integral over [0, inf)
of e^(-x) f(x) as the sum of w f(x) over its (x, w) pairs.  It is exact for
polynomials f up to degree 15 and converges fast for f analytic near the
half line.  The 16 literals are numpy.polynomial.laguerre.laggauss(8), as a
test holds.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError

Integrand = Callable[..., np.ndarray]

REL_TOL = 1e-10
# tanh-sinh: t in [-T_MAX, T_MAX] with step TS_STEP / 2**level; at T_MAX the
# nodes lie 1e-37 (relative) from the ends of a finite interval
TS_STEP = 0.125  # first estimate: 65 nodes
TS_LEVELS = 6    # cap: step 1/256
T_MAX = 4.0

# (node, weight) of the 8-node Gauss-Laguerre rule
LAGUERRE = (
    (0.17027963230510093, 0.36918858934163495),
    (0.90370177679938, 0.4187867808143447),
    (2.251086629866131, 0.17579498663717255),
    (4.266700170287659, 0.033343492261215794),
    (7.0459054023934655, 0.0027945362352256834),
    (10.758516010180996, 9.076508773358139e-05),
    (15.740678641278004, 8.48574671627257e-07),
    (22.863131736889265, 1.0480011748715153e-09),
)


class Quadrature(NamedTuple):
    value: float  # or an ndarray over the rows of a batch
    error: float  # |I_(h/2) - I_h| at the accepted pair


def _at(value, i: int):
    return value[i] if isinstance(value, np.ndarray) else value


def _all(mask) -> bool:
    return mask.all() if isinstance(mask, np.ndarray) else bool(mask)


def _any(mask) -> bool:
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _columns(values) -> list:
    """Per-row arrays as (P, 1) columns; floats as they are."""
    return [v[..., None] if isinstance(v, np.ndarray) else v for v in values]


def _open(columns: list, rows) -> list:
    """The columns at the open rows (all of them for rows None)."""
    if rows is None:
        return columns
    return [c[rows] if isinstance(c, np.ndarray) else c for c in columns]


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
    delta.setflags(write=False)
    weight.setflags(write=False)
    return delta, weight


def tanh_sinh(f: Integrand, a: float, b: float, *args, abs_tol: float = 0.0) -> Quadrature:
    """Double-exponential rule on the finite interval [a, b].

    Endpoint singularities are integrable as long as f is finite at every
    interior point: no node falls on an end.
    """
    if a == b:
        return Quadrature(0.0, 0.0)
    columns = _columns(args)
    half = 0.5 * (b - a)

    def g(delta, rows):
        """f at the nodes -1 + delta and 1 - delta, mapped to [a, b], summed."""
        n = delta.size
        fx = f(np.concatenate((a + half * delta, b - half * delta)), *_open(columns, rows))
        return half * (fx[..., :n] + fx[..., n:])

    value = error = rows = None  # rows: indices of the open rows; None while all are
    # overflow, underflow and 0/0 at far nodes surface as inf or nan, which
    # fail the comparison instead of printing warnings
    with np.errstate(all="ignore"):
        # levels nest: each halving of the step adds the nodes in between;
        # the first two levels share one call of f
        (d0, w0), (d1, w1) = _tanh_sinh(0), _tanh_sinh(1)
        gx = g(np.concatenate((d0, d1)), None)
        total = np.vecdot(gx[..., : d0.size], w0)  # over the open rows
        prev = total * TS_STEP
        total = total + np.vecdot(gx[..., d0.size :], w1)
        for level in range(1, TS_LEVELS):
            if level > 1:
                delta, weight = _tanh_sinh(level)
                total = total + np.vecdot(g(delta, rows), weight)
            est = total * TS_STEP / 2**level
            diff = abs(est - prev)
            ok = (diff <= abs_tol) | (diff <= REL_TOL * abs(est))
            # a row accepted at this level drops out of the finer ones
            if _all(ok):
                if rows is None:
                    return Quadrature(est, diff)
                value[rows], error[rows] = est, diff
                return Quadrature(value, error)
            if _any(ok):
                if rows is None:
                    value, error, rows = np.empty_like(est), np.empty_like(est), np.arange(est.size)
                value[rows[ok]], error[rows[ok]] = est[ok], diff[ok]
                rows, est, diff, total = rows[~ok], est[~ok], diff[~ok], total[~ok]
            prev = est
    raise NumericalError(
        f"tanh-sinh on [{a}, {b}] did not converge:"
        f" last estimate {_at(prev, 0):.6g}, difference {_at(diff, 0):.3g}"
    )
