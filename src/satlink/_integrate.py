"""The package's tanh-sinh quadrature: one driver, for the rows of one integrand.

`tanh_sinh_rows` is the double-exponential rule of Takahasi & Mori (1974)
on a finite [a, b], with a step-halving convergence check.  It takes
integrable endpoint singularities (u^(gamma/2 - 1)) and integrands whose
scale is not known in advance.  An infinite range is mapped onto a finite
one by the caller, as the wander tail is by t = exp(-rate (x - 1)).

It integrates the rows of one integrand in one pass, and the rows share
each node's work: a bounds sweep's wander integrals of a chunk of points,
at eta and at nbar, in numpy; a max-range probe's two wander integrals, or
a line of sight that Gauss-Laguerre does not take, in `math`.  The
integrand f(nodes, *args) gets a level's Nodes on [a, b] and returns each
row's sum of weight * f(x) over them: in `math` from the lists x, weight
and log, added in node order; in numpy from Nodes.arrays, each row summed
by np.vecdot.  Node tables are built once per process; levels nest, each
halving of the step adding the nodes in between.

Each row compares the estimates at step h and h/2, and is accepted when
the two agree within max(abs_tol, REL_TOL * |I|).  Every row is evaluated
at each level, the step halving up to a fixed cap, until all rows are
accepted; a row keeps the finer estimate of the first level that accepts
it.  So a row's arithmetic does not depend on the other rows, and it gets
the value and error that a call for that row alone returns (in numpy, as
long as the integrand's arithmetic is elementwise and its sums np.vecdot's,
whose row sums do not depend on the batch; BLAS `@` breaks this).  A row
that no level accepts raises NumericalError, the first such row with its
own call's message.  The result carries the last difference as its error
estimate; the value returned is the finer of the pair, whose own error is
far smaller for a rule that converges this fast.  Only Nodes.arrays
imports numpy, so a command that integrates in `math` starts without it.
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
    value: float
    error: float  # |I_(h/2) - I_h| at the accepted pair


def _level(level: int) -> list[float]:
    """The t >= 0 new at this level."""
    h = TS_STEP / 2**level
    return [k * h for k in range(level > 0, round(T_MAX / h) + 1, 1 + (level > 0))]


def _node(t: float) -> tuple[float, float]:
    """The nodes at t: (delta, weight).

    Each delta is a distance from the ends of [-1, 1], for the nodes
    -1 + delta and 1 - delta.  t = 0 (delta = 1, the same node twice) takes
    half its weight.  Weights exclude the step.
    """
    u = 0.5 * math.pi * math.sinh(t)
    weight = 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2 * (1.0 - 0.5 * (t == 0))
    return 2.0 / (math.exp(2.0 * u) + 1.0), weight  # 1 - tanh(u) without cancellation


class Nodes:
    """A level's distinct nodes x on [a, b], their weights, and ln x (log), taken on first use."""

    def __init__(self, x: list, weight: list):
        self.x, self.weight = x, weight

    @cached_property
    def log(self) -> list:
        return list(map(math.log, self.x))

    @cached_property
    def arrays(self) -> tuple:
        """x, weight and log as read-only numpy arrays, for an integrand on numpy."""
        import numpy as np

        arrays = tuple(map(np.array, (self.x, self.weight, self.log)))
        for a in arrays:
            a.setflags(write=False)
        return arrays


@lru_cache(maxsize=None)
def _tanh_sinh_floats(level: int, a: float, b: float) -> Nodes:
    """The nodes of a level on [a, b], each with its weights summed, times half the length."""
    half, weights = 0.5 * (b - a), {}
    for t in _level(level):
        delta, weight = _node(t)
        for x in (a + half * delta, b - half * delta):
            weights[x] = weights.get(x, 0.0) + half * weight
    return Nodes(list(weights), list(weights.values()))


def _not_converged(a: float, b: float, estimate: float, difference: float) -> NumericalError:
    return NumericalError(
        f"tanh-sinh on [{a}, {b}] did not converge: last estimate {estimate:.6g}, difference {difference:.3g}"
    )


def tanh_sinh_rows(f: Callable[..., list], a: float, b: float, *args, abs_tol: float = 0.0) -> list[Quadrature]:
    """Double-exponential rule on the finite interval [a, b]: a Quadrature per row of f.

    f(nodes, *args) gets a level's Nodes and returns each row's sum of
    weight * f(x) over them.  Endpoint singularities are integrable as long
    as f is finite at every interior point: no node falls on an end.
    Overflow and 0/0 at far nodes fail the comparison as numpy's inf or
    nan; an OverflowError, ZeroDivisionError or ValueError of `math`
    raises NumericalError.
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
