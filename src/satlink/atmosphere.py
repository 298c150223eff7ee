"""Atmospheric extinction along vertical and slant paths.

Beer-Lambert absorption/scattering with an exponentially decaying extinction
coefficient alpha(h) = alpha0 * exp(-h / h_scale).  The shipped default
alpha0 = 5e-6 1/m is the sea-level value at 800 nm; other wavelengths need a
caller-supplied alpha0.

The path integral of a line of sight is held in a bounded memo keyed on the
slant length, the cosine of the angle and the scale height, which is all
the quadrature sees.  A hit returns the double the quadrature returned, so
the memo is exact.  It pays off because the path is cut at PATH_TOP_M:
every altitude above it shares one line of sight per angle, as do the
bisection steps of a tight max-range solve and the shared and mirrored
slice edges of a pass.  A sweep fills it for a chunk of points in one batch
(`prefetch`) before it evaluates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from ._integrate import Memo, tanh_sinh
from .domain import NON_NEGATIVE, POSITIVE, Checked, param

# the extinction tail above this altitude shifts the loss exponent by < 1e-13
PATH_TOP_M = 200e3


@dataclass(frozen=True)
class ExtinctionModel(Checked):
    alpha0: float = param(5e-6, NON_NEGATIVE)    # sea-level extinction, 1/m (800 nm)
    h_scale: float = param(6600.0, POSITIVE)     # decay scale height, m


def _extinction(y, cos_theta, h_scale):
    return np.exp(-geometry.path_altitude(y, cos_theta) / h_scale)


@Memo
def _line_of_sight(path, cos_theta, h_scale):
    """Integral of exp(-h(y)/h_scale) along a line of sight of length path.

    h(y) is the altitude at slant range y.  tanh-sinh in the slant
    variable: h(y) is analytic along the whole path, also at the horizon
    where dy/dh has a square-root branch at h = 0.
    """
    return tanh_sinh(_extinction, 0.0, path, cos_theta, h_scale).value


def _line(h: float, theta: float, model: ExtinctionModel) -> tuple[float, float, float]:
    """The key of _line_of_sight for a satellite at (h, theta)."""
    # slant_range rejects h < 0 and angles beyond pi/2
    path = geometry.slant_range(h if h < PATH_TOP_M else PATH_TOP_M, theta)
    return path, math.cos(abs(theta)), model.h_scale


def eta_atm(h: float, theta: float, model: ExtinctionModel) -> float:
    """Slant-path transmissivity to altitude h at zenith angle theta.

    The path integral is truncated where the line of sight clears the
    atmosphere; the neglected tail is far below the quadrature tolerance.
    At h = 0 the path is empty and the transmissivity 1.
    """
    return math.exp(-model.alpha0 * _line_of_sight(*_line(h, theta, model)))


def prefetch(points, model: ExtinctionModel) -> None:
    """Integrate the lines of sight of the points (h, theta) not held, in one batch.

    A point without a line of sight (h < 0, or beyond pi/2) is left for
    eta_atm to reject.
    """
    keys = []
    for h, theta in points:
        try:
            keys.append(_line(h, theta, model))
        except ValueError:
            pass
    _line_of_sight.fill(keys)
