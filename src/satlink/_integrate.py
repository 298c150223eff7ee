"""The package's tanh-sinh quadrature: a batch rule on numpy arrays, and a rule in `math`.

`tanh_sinh` is the double-exponential rule of Takahasi & Mori (1974) on a
finite [a, b], with a step-halving convergence check.  It integrates the
beam-wandering factors of a bounds sweep.  It takes integrable endpoint
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

`tanh_sinh_rows` is the same rule in `math`, on the same nodes and levels,
for the few rows of one integrand that share each node's work: a max-range
probe's two wander integrals, or a line of sight that Gauss-Laguerre does
not take, both on [0, 1] (one node table per level).  Its integrand returns
each row's weighted sum over a level's nodes, in order, so a row agrees
with `tanh_sinh` to rounding.  The batch rule imports numpy in its
functions, so a command that takes no batch starts without numpy.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import add
from typing import Callable, NamedTuple

from .errors import NumericalError

REL_TOL = 1e-10
# tanh-sinh: t in [-T_MAX, T_MAX] with step TS_STEP / 2**level; at T_MAX the
# nodes lie 1e-37 (relative) from the ends of a finite interval
TS_STEP = 0.125  # first estimate: 65 nodes
TS_LEVELS = 6    # cap: step 1/256
T_MAX = 4.0


class Quadrature(NamedTuple):
    value: float  # or an ndarray over the rows of a batch
    error: float  # |I_(h/2) - I_h| at the accepted pair


def _level(level: int) -> list[float]:
    """The t >= 0 new at this level."""
    h = TS_STEP / 2**level
    return [k * h for k in range(level > 0, round(T_MAX / h) + 1, 1 + (level > 0))]


def _node(t, m):
    """The nodes at t by the module m (numpy on arrays, or math): (delta, weight).

    Each delta is a distance from the ends of [-1, 1], for the nodes
    -1 + delta and 1 - delta.  t = 0 (delta = 1, the same node twice) takes
    half its weight.  Weights exclude the step.
    """
    u = 0.5 * math.pi * m.sinh(t)
    weight = 0.5 * math.pi * m.cosh(t) / m.cosh(u) ** 2 * (1.0 - 0.5 * (t == 0))
    return 2.0 / (m.exp(2.0 * u) + 1.0), weight  # 1 - tanh(u) without cancellation


@lru_cache(maxsize=None)
def _tanh_sinh(level: int) -> tuple:
    """The nodes of a level as read-only numpy arrays."""
    import numpy as np

    delta, weight = _node(np.array(_level(level)), np)
    delta.setflags(write=False)
    weight.setflags(write=False)
    return delta, weight


class Nodes:
    """A level's distinct nodes x on [a, b], their weights, and ln x (log), taken on first use."""

    def __init__(self, x: list, weight: list):
        self.x, self.weight = x, weight

    @cached_property
    def log(self) -> list:
        return list(map(math.log, self.x))


@lru_cache(maxsize=None)
def _tanh_sinh_floats(level: int, a: float, b: float) -> Nodes:
    """The nodes of a level on [a, b], each with its weights summed, times half the length."""
    half, weights = 0.5 * (b - a), {}
    for t in _level(level):
        delta, weight = _node(t, math)
        for x in (a + half * delta, b - half * delta):
            weights[x] = weights.get(x, 0.0) + half * weight
    return Nodes(list(weights), list(weights.values()))


def _not_converged(a: float, b: float, estimate: float, difference: float) -> NumericalError:
    return NumericalError(
        f"tanh-sinh on [{a}, {b}] did not converge: last estimate {estimate:.6g}, difference {difference:.3g}"
    )


def tanh_sinh(f: Callable[..., "np.ndarray"], a: float, b: float, *args, abs_tol: float = 0.0) -> Quadrature:
    """Double-exponential rule on the finite interval [a, b].

    Endpoint singularities are integrable as long as f is finite at every
    interior point: no node falls on an end.
    """
    import numpy as np

    if a == b:
        return Quadrature(0.0, 0.0)
    columns = [v[..., None] if isinstance(v, np.ndarray) else v for v in args]
    half = 0.5 * (b - a)

    def g(delta):
        """f at the nodes -1 + delta and 1 - delta, mapped to [a, b], summed."""
        n = delta.size
        fx = f(np.concatenate((a + half * delta, b - half * delta)), *columns)
        return half * (fx[..., :n] + fx[..., n:])

    done = None  # rows of a batch accepted at an earlier level
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
            if done is not None:  # they keep the estimate and error of the level that accepted them
                est[done], diff[done] = prev[done], error[done]
            ok = (diff <= abs_tol) | (diff <= REL_TOL * abs(est))
            if ok.all():
                return Quadrature(est, diff)
            if ok.any():
                done = ok
            prev, error = est, diff
    first = np.flatnonzero(~ok)[0]
    raise _not_converged(a, b, np.ravel(prev)[first], np.ravel(diff)[first])


def tanh_sinh_rows(f: Callable[..., list], a: float, b: float, *args, abs_tol: float = 0.0) -> list[Quadrature]:
    """tanh_sinh in `math` for the rows of one integrand: a Quadrature per row.

    f(nodes, *args) gets a level's Nodes and returns each row's sum of
    weight * f(x) over them.  An OverflowError, ZeroDivisionError or
    ValueError of `math`, where numpy gives inf or nan, raises NumericalError.
    """
    try:
        total = f(_tanh_sinh_floats(0, a, b), *args)
        est, accepted = [v * TS_STEP for v in total], [None] * len(total)
        for level in range(1, TS_LEVELS):
            total = list(map(add, total, f(_tanh_sinh_floats(level, a, b), *args)))
            prev, est = est, [v * TS_STEP / 2**level for v in total]
            diff = [abs(e - p) for e, p in zip(est, prev)]
            accepted = [q or (Quadrature(e, d) if d <= abs_tol or d <= REL_TOL * abs(e) else None)
                        for q, e, d in zip(accepted, est, diff)]
            if all(accepted):
                return accepted
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise NumericalError(f"tanh-sinh on [{a}, {b}] did not converge: {exc}") from exc
    first = accepted.index(None)
    raise _not_converged(a, b, est[first], diff[first])
