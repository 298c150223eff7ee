"""One function body for one point or for every point of a sweep.

The channel pipeline takes its per-point inputs either as floats (one
geometry) or as 1-D ndarrays (the points of a sweep).  A float input stays
on Python floats and the math module all the way through: numpy's ufuncs
cost several times more than math on a scalar, and its reductions and
np.where cost microseconds.  These helpers branch on the input type once,
so that each function keeps a single body for both cases.

A sweep gets the same doubles as its points evaluated one at a time.
Arithmetic rounds alike in numpy and Python, but numpy's exp, expm1, log,
log1p, pow, hypot and ** differ from the C library's in the last bit for
up to a few percent of arguments, and the pipeline has steps that turn one
ulp into far more: the far-field Weibull shape (1 - i0e(2x) cancels),
1 - cdf, B - T and rates near zero.  So per-point transcendental functions
and powers go through `mathof(x)`, which applies math's own functions to
each point of an array.  Quadrature integrands, which run on node arrays in
both cases, use numpy.
"""

from __future__ import annotations

import math
from itertools import repeat
from types import SimpleNamespace
from typing import Callable

import numpy as np


def _each(f: Callable) -> Callable:
    """f applied to each element; the arguments are floats or arrays of one shape."""

    def apply(*args):
        shape = next((a.shape for a in args if isinstance(a, np.ndarray)), None)
        if shape is None:
            return f(*args)
        columns = [a.ravel().tolist() if isinstance(a, np.ndarray) else repeat(a) for a in args]
        return np.fromiter(map(f, *columns), float, math.prod(shape)).reshape(shape)

    return apply


# sqrt rounds correctly in both, so numpy's (fast on node arrays) is the same
_MATH_EACH = SimpleNamespace(
    sqrt=np.sqrt,
    **{
        name: _each(getattr(math, name))
        for name in ("cos", "exp", "expm1", "log", "log1p", "log2", "pow", "hypot", "floor", "ceil")
    },
)


def mathof(x):
    """math for a float; math's functions applied to each element for an ndarray."""
    return _MATH_EACH if isinstance(x, np.ndarray) else math


def any_(mask):
    """Whether a mask (a bool, or a bool ndarray) holds at any point."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def all_(mask):
    """Whether a mask (a bool, or a bool ndarray) holds at every point."""
    return mask.all() if isinstance(mask, np.ndarray) else mask


def where(cond, a, b):
    """np.where(cond, a, b); a scalar condition picks a or b as it is."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def at_first(mask, value):
    """value at the first point where mask holds, for an error message."""
    if isinstance(mask, np.ndarray) and isinstance(value, np.ndarray):
        return value[int(np.argmax(mask))]
    return value


def each(mask, *values) -> list[tuple]:
    """The values at every point where mask holds, in point order."""
    if not isinstance(mask, np.ndarray):
        return [values] if mask else []
    return [
        tuple(v[i] if isinstance(v, np.ndarray) else v for v in values)
        for i in np.flatnonzero(mask)
    ]


def take(mask, value):
    """value at the points where mask holds; a scalar applies to every point."""
    return value[mask] if isinstance(value, np.ndarray) else value


def scatter(mask, values, fill: float):
    """values at the points where mask holds and fill elsewhere (inverse of take)."""
    if not isinstance(mask, np.ndarray):
        return values if mask else fill
    out = np.full(mask.shape, fill)
    out[mask] = values
    return out
