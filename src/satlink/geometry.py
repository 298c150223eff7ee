"""Ground-station / satellite geometry.

Converts among altitude, zenith angle, slant range and orbital angle on a
spherical Earth, including the elevated-station generalization and the
single-slab Snell refraction correction.  All angles are radians, all
lengths are meters.  Zenith angles are signed in [-pi/2, pi/2]; every
formula here is even in theta, so the sign only matters to orbital code.
`slant_range` and `altitude_from_slant` take floats or 1-D arrays of
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._array import any_, at_first, mathof


@dataclass(frozen=True)
class EarthConstants:
    """Physical constants for the spherical-Earth link model."""

    radius_m: float = 6.371e6
    gravitational_constant: float = 6.674e-11
    mass_kg: float = 5.972e24
    surface_refractive_index: float = 1.00027

    @property
    def mu_g(self) -> float:
        """Standard gravitational parameter G*M (m^3/s^2)."""
        return self.gravitational_constant * self.mass_kg


EARTH = EarthConstants()

R_EARTH = EARTH.radius_m


@dataclass(frozen=True)
class LinkGeometry:
    """A resolved station-satellite geometry.

    h is the satellite altitude above sea level, theta the signed zenith
    angle and z the line-of-sight slant range.  h0 is the ground-station
    altitude (zero for a sea-level station).
    """

    h: float
    theta: float
    z: float
    h0: float = 0.0

    @classmethod
    def from_altitude(cls, h: float, theta: float, h0: float = 0.0) -> "LinkGeometry":
        return cls(h=h, theta=theta, z=slant_range_elevated(h, theta, h0), h0=h0)


def _check_angle(theta):
    outside = abs(theta) > math.pi / 2 + 1e-12
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


def zenith_from(z: float, h: float) -> float:
    """Zenith angle in [0, pi/2] from a consistent (slant range, altitude) pair."""
    if z <= 0:
        raise ValueError("slant range must be positive")
    cos_theta = h / z + (h * h - z * z) / (2.0 * z * R_EARTH)
    if not -1.0 - 1e-12 <= cos_theta <= 1.0 + 1e-12:
        raise ValueError(f"inconsistent (z={z}, h={h}): cos(theta)={cos_theta}")
    return math.acos(min(1.0, max(-1.0, cos_theta)))


def slant_range_elevated(h: float, theta: float, h0: float = 0.0) -> float:
    """Slant range from a station at altitude h0 to a satellite at altitude h."""
    if h0 == 0.0:
        return slant_range(h, theta)
    if not 0.0 <= h0 < h:
        raise ValueError("station altitude must satisfy 0 <= h0 < h")
    t = _check_angle(theta)
    r_g = R_EARTH + h0
    r_s = R_EARTH + h
    c = math.cos(t)
    return math.sqrt(r_s * r_s + r_g * r_g * (c * c - 1.0)) - r_g * c


def altitude_elevated(z: float, theta: float, h0: float = 0.0) -> float:
    """Satellite altitude given slant range measured from a station at h0."""
    if z < 0:
        raise ValueError("slant range must be non-negative")
    if h0 < 0:
        raise ValueError("station altitude must be non-negative")
    t = _check_angle(theta)
    r_g = R_EARTH + h0
    c = math.cos(t)
    return math.sqrt(r_g * r_g + z * z + 2.0 * z * r_g * c) - R_EARTH


def slant_orbital(r_s: float, alpha: float) -> float:
    """Slant range from orbital radius r_s and orbital angle alpha (law of cosines)."""
    if r_s <= R_EARTH:
        raise ValueError("orbital radius must exceed the Earth radius")
    return math.sqrt(R_EARTH**2 + r_s * r_s - 2.0 * R_EARTH * r_s * math.cos(alpha))


def apparent_zenith(theta: float, n0: float = EARTH.surface_refractive_index) -> float:
    """Apparent (refracted) zenith angle for true zenith angle theta."""
    t = _check_angle(theta)
    return math.copysign(math.asin(math.sin(t) / n0), theta)


def true_zenith(theta_app: float, n0: float = EARTH.surface_refractive_index) -> float:
    """True zenith angle for an apparent angle; inverse of apparent_zenith."""
    s = n0 * math.sin(abs(theta_app))
    if s > 1.0 + 1e-15:
        raise ValueError(f"apparent angle {theta_app} beyond the refracted horizon")
    return math.copysign(math.asin(min(1.0, s)), theta_app)


class ElongationTable:
    """Monotone path-elongation factor vs apparent zenith angle.

    Linear interpolation between tabulated nodes, clamped to the end values
    outside the table.  Factors must be >= 1.
    """

    def __init__(self, angles: Sequence[float], factors: Sequence[float]):
        if len(angles) != len(factors) or len(angles) < 2:
            raise ValueError("need at least two (angle, factor) nodes")
        pairs = sorted(zip(angles, factors))
        self._angles = [a for a, _ in pairs]
        self._factors = [f for _, f in pairs]
        if min(self._factors) < 1.0:
            raise ValueError("elongation factors must be >= 1")

    def __call__(self, theta_app: float) -> float:
        t = abs(theta_app)
        a, f = self._angles, self._factors
        if t <= a[0]:
            return f[0]
        if t >= a[-1]:
            return f[-1]
        for i in range(1, len(a)):
            if t <= a[i]:
                w = (t - a[i - 1]) / (a[i] - a[i - 1])
                return f[i - 1] + w * (f[i] - f[i - 1])
        return f[-1]


def unit_elongation(theta_app: float) -> float:
    """Default elongation model: no optical-path lengthening."""
    return 1.0


def refracted_slant(
    h: float,
    theta_app: float,
    elongation: Callable[[float], float] = unit_elongation,
) -> float:
    """Refracted slant range: elongation times the slant range at the true angle."""
    factor = elongation(theta_app)
    if factor < 1.0:
        raise ValueError("elongation factor must be >= 1")
    return factor * slant_range(h, true_zenith(theta_app))


def altitude_refracted(
    z_ref: float,
    theta_app: float,
    elongation: Callable[[float], float] = unit_elongation,
) -> float:
    """Altitude reached after a refracted path of length z_ref at apparent angle."""
    return altitude_from_slant(z_ref / elongation(theta_app), true_zenith(theta_app))
