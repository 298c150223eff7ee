"""Atmospheric extinction along vertical and slant paths.

Beer-Lambert absorption/scattering with an exponentially decaying extinction
coefficient alpha(h) = alpha0 * exp(-h / h_scale).  The shipped default
alpha0 = 5e-6 1/m is the sea-level value at 800 nm; other wavelengths need a
caller-supplied alpha0.

The loss exponent is alpha0 times the integral of exp(-h / h_scale) along
the line of sight, cut where it reaches PATH_TOP_M: Chapman's
grazing-incidence function (Chapman 1931; Huestis, JQSRT 69, 709, 2001),
cut at the path top.  With u = h / R and c = cos(theta), the slant range
grows with altitude as dy/dh = (1 + u) / sqrt(c^2 + u (2 + u)), which is
(1 - tan(theta)^2 g(u)) / c with g(u) = q / (r (1 + u + r)),
q = u (2 + u) and r = sqrt(1 + q / c^2).  In s = h / h_scale, up to the
path top s_top, the integral is

    (h_scale / c) [(1 - e^(-s_top)) - tan(theta)^2 (G(0) - e^(-s_top) G(s_top))],

where G(s) is the integral over [0, inf) of e^(-t) g at s + t.  The secant
term is exact, and the 8-node Gauss-Laguerre rule takes G, which is small
and smooth.  g has a square-root branch point R (1 - sin theta) below the
ground, and the rule's error grows as that branch nears the path; for a
short path, G(0) - e^(-s_top) G(s_top) cancels.  So the rule takes a line
of sight whose branch lies BRANCH_MIN scale heights below the ground or
more (|theta| <= 1.3427 rad at the default scale height), and that rises
TOP_MIN scale heights or more.  Any other line of sight, up to the
horizon, takes tanh-sinh in `math`, in y = path * t for t in [0, 1], along
which the altitude h(y) is analytic.

`LAGUERRE` is the 8-node Gauss-Laguerre rule, the integral over [0, inf)
of e^(-x) f(x) as the sum of w f(x) over its (x, w) pairs.  It is exact for
polynomials f up to degree 15 and converges fast for f analytic near the
half line.  The 16 literals are numpy.polynomial.laguerre.laggauss(8), as a
test holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry
from .domain import NON_NEGATIVE, POSITIVE, Checked, param
from .geometry import R_EARTH

# the extinction tail above this altitude shifts the loss exponent by < 1e-13
PATH_TOP_M = 200e3
# The Gauss-Laguerre line of sight is within 5e-16 relative of mpmath (40
# digits) wherever it is taken, at any scale height.  Its error depends on
# the branch distance in scale heights alone: 4e-16 at 25, 2e-15 at 20,
# 5e-14 at 15, 4e-12 at 10; and on the path top, through the cancellation
# in G(0) - e^(-s_top) G(s_top): 8e-16 at 0.01 scale heights, 6e-14 at 1e-4.
BRANCH_MIN = 25.0  # scale heights
TOP_MIN = 0.1      # scale heights

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


@dataclass(frozen=True)
class ExtinctionModel(Checked):
    alpha0: float = param(5e-6, NON_NEGATIVE)    # sea-level extinction, 1/m (800 nm)
    h_scale: float = param(6600.0, POSITIVE)     # decay scale height, m


def _extinction_rows(nodes, path, cos_theta, h_scale):
    """A line of sight's one row: exp(-h(y) / h_scale) at y = path * t over the Nodes t of [0, 1], weighted."""
    total, exp, sqrt, r2 = 0.0, math.exp, math.sqrt, R_EARTH**2
    for t, w in zip(nodes.x, nodes.weight):
        y = path * t
        # h = sqrt(R^2 + rise) - R without cancellation, so h > 0 for any y > 0
        rise = y * y + 2.0 * y * R_EARTH * cos_theta
        total += w * exp(-rise / (sqrt(r2 + rise) + R_EARTH) / h_scale)
    return [total]


def _excess(s: float, h_scale: float, cos2: float) -> float:
    """G(s), the integral over t in [0, inf) of e^(-t) g(u) at u = h_scale (s + t) / R."""
    total = 0.0
    for x, w in LAGUERRE:
        u = h_scale * (s + x) / R_EARTH
        q = u * (2.0 + u)
        r = math.sqrt(1.0 + q / cos2)
        total += w * q / (r * (1.0 + u + r))
    return total


def _line_of_sight(h: float, theta: float, model: ExtinctionModel) -> float:
    """Integral of exp(-h(y) / h_scale) along the line of sight to (h, theta), cut at PATH_TOP_M."""
    top = h if h < PATH_TOP_M else PATH_TOP_M
    # slant_range rejects h < 0 and angles beyond pi/2
    path = geometry.slant_range(top, theta)
    h_scale = model.h_scale
    s_top = top / h_scale
    theta = abs(theta)
    cos_theta = math.cos(theta)
    if s_top >= TOP_MIN and R_EARTH * (1.0 - math.sin(theta)) >= BRANCH_MIN * h_scale:
        bracket = -math.expm1(-s_top)
        tan2 = math.tan(theta) ** 2
        if tan2 != 0.0:  # a vertical path has no excess
            cos2 = cos_theta * cos_theta
            bracket -= tan2 * (_excess(0.0, h_scale, cos2) - math.exp(-s_top) * _excess(s_top, h_scale, cos2))
        return h_scale / cos_theta * bracket
    from . import _integrate

    return path * _integrate.tanh_sinh_rows(_extinction_rows, 0.0, 1.0, path, cos_theta, h_scale)[0].value


def eta_atm(h: float, theta: float, model: ExtinctionModel) -> float:
    """Slant-path transmissivity to altitude h at zenith angle theta.

    The path integral is truncated where the line of sight clears the
    atmosphere; the neglected tail is far below the quadrature tolerance.
    At h = 0 the path is empty and the transmissivity 1.
    """
    return math.exp(-model.alpha0 * _line_of_sight(h, theta, model))
