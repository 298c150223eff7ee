"""The double-exponential quadrature rule with a step-halving convergence check.

`tanh_sinh` is the rule of Takahasi & Mori (1974) on a finite [a, b].  It
integrates every integral in the package: the slant-path extinction, the
beam-wandering factor and the C_n^2 column panels.  It takes integrable
endpoint singularities (the Hufnagel-Stanley h^(-1/3), power-law path
weights, u^(gamma/2 - 1)) and integrands whose scale is not known in
advance.  An infinite range is mapped onto a finite one by the caller, as
the wander tail is by t = exp(-rate (x - 1)).

The rule integrates a batch of P integrals in one pass: a sweep fills its
memos of integrals (`Memo`) that way.  The ends and the extra arguments of
the integrand are floats (one integral) or 1-D arrays over the P rows.  The
integrand f(x, *args) gets the nodes x, of shape (n,) or (P, n), and each
array argument as a (P, 1) column (floats pass as they are), and returns
values of the broadcast shape.  Node tables are built once per process.

Each row compares the estimates at step h and h/2.  A row whose two
estimates agree within max(abs_tol, REL_TOL * |I|) keeps the finer one,
so it gets the value a call for that row alone returns; the rows still
open halve the step again, alone, up to a fixed cap, and then
NumericalError is raised for the first of them.  The result carries that
last difference as its error estimate; the value returned is the finer of
the pair, whose own error is far smaller for a rule that converges this
fast.
"""

from __future__ import annotations

import math
from collections import OrderedDict
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
# keys a Memo holds; a sweep fills and reads its memos a chunk of points at a time
MEMO_SIZE = 256


class Quadrature(NamedTuple):
    value: float  # or an ndarray over the rows of a batch
    error: float  # |I_(h/2) - I_h| at the accepted pair


def _at(value, i: int):
    return value[i] if isinstance(value, np.ndarray) else value


def _all(mask) -> bool:
    return mask.all() if isinstance(mask, np.ndarray) else bool(mask)


def _any(mask) -> bool:
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _columns(*values) -> list:
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


def tanh_sinh(f: Integrand, a, b, *args, abs_tol: float = 0.0) -> Quadrature:
    """Double-exponential rule on the finite interval [a, b].

    Endpoint singularities are integrable as long as f is finite at every
    interior point: no node falls on an end.
    """
    if _all(a == b):
        return Quadrature(0.0, 0.0)
    columns = _columns(a, b, *args)

    def g(delta, rows):
        """f at the nodes -1 + delta and 1 - delta, mapped to [a, b], summed."""
        lo, hi, *params = _open(columns, rows)
        n = delta.size
        half = 0.5 * (hi - lo)
        fx = f(np.concatenate((lo + half * delta, hi - half * delta), axis=-1), *params)
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
    first = 0 if rows is None else int(rows[0])
    raise NumericalError(
        f"tanh-sinh on [{_at(a, first)}, {_at(b, first)}] did not converge:"
        f" last estimate {_at(prev, 0):.6g}, difference {_at(diff, 0):.3g}"
    )


class Memo:
    """A quadrature by its arguments: a bounded, exact memo, filled a batch at a time.

    Decorates integrate(*key), a tanh_sinh call whose arguments are floats,
    or 1-D arrays for a batch of rows.  memo(*key) returns integrate(*key) as
    a float, computed only for a key not held.  memo.fill(keys) integrates
    the keys not held as the rows of one batch; a row is the double its own
    call returns, so a hit cannot tell how its key was filled.  A batch that
    fails fills nothing: each key is left for memo(*key) to compute, and the
    failing one to raise.  The memo holds MEMO_SIZE keys and drops the least
    recently used.
    """

    def __init__(self, integrate: Callable[..., object]):
        self._integrate = integrate
        self._values: OrderedDict[tuple, float] = OrderedDict()
        self.hits = self.misses = 0

    def __call__(self, *key) -> float:
        if key in self._values:
            self.hits += 1
            self._values.move_to_end(key)
        else:
            self.misses += 1
            self._hold(key, float(self._integrate(*key)))
        return self._values[key]

    def __len__(self) -> int:
        return len(self._values)

    def _hold(self, key: tuple, value: float) -> None:
        self._values[key] = value
        if len(self._values) > MEMO_SIZE:
            self._values.popitem(last=False)

    def fill(self, keys) -> None:
        """Integrate the keys not held in one batch.

        The keys held already become the most recently used, so that no more
        than MEMO_SIZE keys all stay held.
        """
        new = []
        for key in dict.fromkeys(keys):
            if key in self._values:
                self._values.move_to_end(key)
            else:
                new.append(key)
        if not new:
            return
        try:
            values = self._integrate(*map(np.array, zip(*new)))
        except NumericalError:
            return
        # a batch whose rows all have a == b integrates to one 0.0
        for key, value in zip(new, np.broadcast_to(values, len(new)).tolist()):
            self._hold(key, value)

    def cache_clear(self) -> None:
        self._values.clear()
        self.hits = self.misses = 0
