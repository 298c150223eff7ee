"""Ground-station / satellite geometry.

Converts among altitude, zenith angle, slant range and orbital angle on a
spherical Earth.  All angles are radians, all lengths are meters.  Zenith
angles are signed in [-pi/2, pi/2]; every formula here is even in theta, so
the sign only matters to orbital code.  `slant_range` and
`altitude_from_slant` take floats or 1-D arrays of points.
"""

from __future__ import annotations

import math

from ._array import any_, at_first, mathof

R_EARTH = 6.371e6  # mean Earth radius, m
MU_EARTH = 6.674e-11 * 5.972e24  # standard gravitational parameter G*M, m^3/s^2


def _check_angle(theta):
    # no tolerance above pi/2: cos(theta) turns negative there, and sec(theta)
    # has no real power 11/6 for the Rytov variance
    outside = abs(theta) > math.pi / 2
    if any_(outside):
        raise ValueError(f"zenith angle {at_first(outside, theta)} outside [-pi/2, pi/2]")
    return abs(theta)


def slant_range(h, theta):
    """Slant range (m) to a satellite at altitude h and zenith angle theta."""
    if any_(h < 0):
        raise ValueError("altitude must be non-negative")
    t = _check_angle(theta)
    m = mathof(t)
    c = m.cos(t)
    r2 = h * h + 2.0 * h * R_EARTH + m.pow(R_EARTH * c, 2)
    return mathof(r2).sqrt(r2) - R_EARTH * c


def altitude_from_slant(z, theta):
    """Satellite altitude (m) given slant range z and zenith angle theta.

    Floats give a float; arrays broadcast, as the (P, n) quadrature nodes of
    the extinction path do against a (P, 1) column of angles.
    """
    if any_(z < 0):
        raise ValueError("slant range must be non-negative")
    t = _check_angle(theta)
    c = mathof(t).cos(t)
    # sqrt(R^2 + rise) - R without cancellation, so h > 0 for any z > 0
    rise = z * z + 2.0 * z * R_EARTH * c
    r2 = R_EARTH**2 + rise
    return rise / (mathof(r2).sqrt(r2) + R_EARTH)


def slant_orbital(r_s: float, alpha: float) -> float:
    """Slant range from orbital radius r_s and orbital angle alpha (law of cosines)."""
    if r_s <= R_EARTH:
        raise ValueError("orbital radius must exceed the Earth radius")
    return math.sqrt(R_EARTH**2 + r_s * r_s - 2.0 * R_EARTH * r_s * math.cos(alpha))
