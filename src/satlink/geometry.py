"""Ground-station / satellite geometry.

Converts among altitude, zenith angle, slant range and orbital angle on a
spherical Earth.  All angles are radians, all lengths are meters.  Zenith
angles are signed in [-pi/2, pi/2]; every formula here is even in theta, so
the sign only matters to orbital code.
"""

from __future__ import annotations

import math

R_EARTH = 6.371e6  # mean Earth radius, m
MU_EARTH = 6.674e-11 * 5.972e24  # standard gravitational parameter G*M, m^3/s^2


def _check_angle(theta: float) -> float:
    # no tolerance above pi/2: cos(theta) turns negative there, and sec(theta)
    # has no real power 11/6 for the Rytov variance
    if abs(theta) > math.pi / 2:
        raise ValueError(f"zenith angle {theta} outside [-pi/2, pi/2]")
    return abs(theta)


def slant_range(h: float, theta: float) -> float:
    """Slant range (m) to a satellite at altitude h and zenith angle theta."""
    if h < 0:
        raise ValueError("altitude must be non-negative")
    c = R_EARTH * math.cos(_check_angle(theta))
    # sqrt((R + h)^2 - (R sin theta)^2) - R cos theta rationalised, so short
    # paths do not cancel; hypot does not round the squares it sums
    rise = h * (h + 2.0 * R_EARTH)
    return rise / (math.hypot(math.sqrt(rise), c) + c)


def slant_orbital(r_s: float, alpha: float) -> float:
    """Slant range from orbital radius r_s and orbital angle alpha (law of cosines)."""
    if r_s <= R_EARTH:
        raise ValueError("orbital radius must exceed the Earth radius")
    return math.sqrt(R_EARTH**2 + r_s * r_s - 2.0 * R_EARTH * r_s * math.cos(alpha))
