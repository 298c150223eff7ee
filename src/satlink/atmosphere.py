"""Atmospheric extinction along vertical and slant paths.

Beer-Lambert absorption/scattering with an exponentially decaying extinction
coefficient alpha(h) = alpha0 * exp(-h / h_scale).  The shipped default
alpha0 = 5e-6 1/m is the sea-level value at 800 nm; other wavelengths need a
caller-supplied alpha0.

The path integral of a single line of sight (float h and theta) is kept in
a fixed-size cache keyed on the slant length, the angle and the scale
height, which is all the quadrature sees.  A hit returns the double the
quadrature returned, so the cache is exact.  It pays off because the path is
cut at PATH_TOP_M: every altitude above it shares one line of sight per
angle, as do the bisection steps of a tight max-range solve and the shared
and mirrored slice edges of a pass.  Array calls (sweeps) integrate every
point once in one batch and bypass the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry
from ._array import mathof, where
from ._integrate import tanh_sinh
from .domain import NON_NEGATIVE, POSITIVE, Checked, param

# the extinction tail above this altitude shifts the loss exponent by < 1e-13
PATH_TOP_M = 200e3


@dataclass(frozen=True)
class ExtinctionModel(Checked):
    alpha0: float = param(5e-6, NON_NEGATIVE)    # sea-level extinction, 1/m (800 nm)
    h_scale: float = param(6600.0, POSITIVE)     # decay scale height, m


def _extinction(y, theta, h_scale: float):
    return np.exp(-geometry.altitude_from_slant(y, theta) / h_scale)


def _path_integral(path, theta, model: ExtinctionModel):
    """Integral of exp(-h(y)/h_scale) along lines of sight of length path.

    h(y) is the altitude at slant range y and zenith angle theta.
    tanh-sinh in the slant variable: h(y) is analytic along the whole path,
    also at the horizon where dy/dh has a square-root branch at h = 0.
    """
    # path is an array whenever h or theta is
    if isinstance(path, np.ndarray):
        return tanh_sinh(_extinction, 0.0, path, theta, model.h_scale).value
    return _line_of_sight(path, theta, model.h_scale)


# a pass visits about 130 angles, a max-range solve fewer than 10 lines of sight
@lru_cache(maxsize=256)
def _line_of_sight(path: float, theta: float, h_scale: float) -> float:
    """_path_integral of one line of sight, integrated once per process."""
    return tanh_sinh(_extinction, 0.0, path, theta, h_scale).value


def eta_atm(h, theta, model: ExtinctionModel):
    """Slant-path transmissivity to altitude h at zenith angle theta.

    h and theta are floats or 1-D arrays of points.  The path integral is
    truncated where the line of sight clears the atmosphere; the neglected
    tail is far below the quadrature tolerance.  At h = 0 the path is empty
    and the transmissivity 1.
    """
    # slant_range rejects h < 0
    path = geometry.slant_range(where(h < PATH_TOP_M, h, PATH_TOP_M), theta)
    return mathof(path).exp(-model.alpha0 * _path_integral(path, theta, model))

