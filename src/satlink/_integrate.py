"""The package's tanh-sinh quadrature, on arrays of nodes.

`tanh_sinh` is the double-exponential rule of Takahasi & Mori (1974) on a
finite [a, b], with a step-halving convergence check.  It integrates the
beam-wandering factor of the bounds, and the lines of sight that the
Gauss-Laguerre rule does not take.  It takes integrable endpoint
singularities (u^(gamma/2 - 1)) and integrands whose scale is not known in
advance.  An infinite range is mapped onto a finite one by the caller, as
the wander tail is by t = exp(-rate (x - 1)).

The rule integrates a batch of P integrals in one pass, by the same code
as one integral: a bounds sweep takes the wander factors of a chunk of
points, at eta and at nbar, as one batch.  The ends are floats; the
extra arguments of the integrand are floats (one integral) or 1-D arrays
over the P rows.  The integrand f(x, *args) gets the nodes x, of shape (n,)
or (P, n), and each array argument as a (P, 1) column (floats pass as they
are), and returns values of the broadcast shape.  Node tables are built
once per process.

Each row compares the estimates at step h and h/2, and is accepted when
the two agree within max(abs_tol, REL_TOL * |I|).  Every row is evaluated
at each level, the step halving up to a fixed cap, until all rows are
accepted; a row keeps the finer estimate of the first level that accepts
it.  So a row's arithmetic does not depend on the other rows, and it gets
the value and error that a call for that row alone returns.  A row that
no level accepts raises NumericalError, the first such row of a batch with
its own call's message.  The result carries the last difference as its
error estimate; the value returned is the finer of the pair, whose own
error is far smaller for a rule that converges this fast.

This module imports numpy, as do the integrands it calls; their modules
import it, and this module, in the functions that reach them.  So a command
that takes no tanh-sinh quadrature starts without numpy.
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


class Quadrature(NamedTuple):
    value: float  # or an ndarray over the rows of a batch
    error: float  # |I_(h/2) - I_h| at the accepted pair


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
    columns = [v[..., None] if isinstance(v, np.ndarray) else v for v in args]
    half = 0.5 * (b - a)

    def g(delta):
        """f at the nodes -1 + delta and 1 - delta, mapped to [a, b], summed."""
        n = delta.size
        fx = f(np.concatenate((a + half * delta, b - half * delta)), *columns)
        return half * (fx[..., :n] + fx[..., n:])

    value = error = 0.0
    done = False  # per row: accepted at an earlier level
    # overflow, underflow and 0/0 at far nodes surface as inf or nan, which
    # fail the comparison instead of printing warnings
    with np.errstate(all="ignore"):
        # levels nest: each halving of the step adds the nodes in between;
        # the first two levels share one call of f
        (d0, w0), (d1, w1) = _tanh_sinh(0), _tanh_sinh(1)
        gx = g(np.concatenate((d0, d1)))
        total = np.vecdot(gx[..., : d0.size], w0)
        prev = total * TS_STEP
        total = total + np.vecdot(gx[..., d0.size :], w1)
        for level in range(1, TS_LEVELS):
            if level > 1:
                delta, weight = _tanh_sinh(level)
                total = total + np.vecdot(g(delta), weight)
            est = total * TS_STEP / 2**level
            diff = abs(est - prev)
            # [()] makes a float call's 0-d results floats again
            value, error = np.where(done, value, est)[()], np.where(done, error, diff)[()]
            done = done | (diff <= abs_tol) | (diff <= REL_TOL * abs(est))
            if done.all():
                return Quadrature(value, error)
            prev = est
    first = np.flatnonzero(~done)[0]
    raise NumericalError(
        f"tanh-sinh on [{a}, {b}] did not converge:"
        f" last estimate {np.ravel(prev)[first]:.6g}, difference {np.ravel(diff)[first]:.3g}"
    )
