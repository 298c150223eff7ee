"""Refractive-index structure profiles and turbulence beam statistics.

Implements the Hufnagel-Valley and Hufnagel-Stanley C_n^2(h) profiles, the
plane-wave Rytov variance (weak-turbulence diagnostic), spherical/planar
coherence lengths, and the short-/long-term spot sizes plus centroid-wander
variance for uplink beams.  Downlink beams are diffraction-limited within the
working angular window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import geometry
from ._array import any_, at_first, each, mathof
from ._integrate import Integrand, tanh_sinh
from .beam import BeamParams, diffraction_waist
from .errors import StrongTurbulenceError

# C_n^2 falls exponentially above the tropopause; integrals truncate here
PROFILE_TOP_M = 100e3
# panel edges that resolve the 100 m ground scale and the 10 km bump
LAYER_EDGES_M = (0.0, 2e3, 3e4, PROFILE_TOP_M)


@dataclass(frozen=True)
class TurbulenceProfile:
    """Atmospheric turbulence-strength profile.

    kind "hufnagel-valley" uses the ground value a_ground and windspeed;
    kind "hufnagel-stanley" uses the c1 * h^(-1/3) * exp(-h/c2) form and is
    singular at h = 0; kind "constant" holds C_n^2 = a_ground at every
    altitude (fixed-altitude horizontal links).
    """

    kind: str = "hufnagel-valley"
    a_ground: float = 1.7e-14   # C_n^2(0), m^(-2/3)
    windspeed: float = 21.0     # m/s
    hs_c1: float = 4.2e-14
    hs_c2: float = 3200.0

    @classmethod
    def constant(cls, value: float) -> "TurbulenceProfile":
        return cls(kind="constant", a_ground=value)

    @classmethod
    def from_name(cls, name: str) -> "TurbulenceProfile":
        try:
            return PROFILES[name]
        except KeyError:
            raise ValueError(f"unknown turbulence profile {name!r}") from None

    @property
    def name(self) -> str:
        for name, preset in PROFILES.items():
            if preset == self:
                return name
        if self.kind == "hufnagel-valley":
            return f"hv(A={self.a_ground:g},v={self.windspeed:g})"
        if self.kind == "constant":
            return f"constant({self.a_ground:g})"
        return self.kind


# the named profiles: Hufnagel-Valley at night, by day and on a worst-case
# (high-wind) day, and the Hufnagel-Stanley form
PROFILES: dict[str, TurbulenceProfile] = {
    "hv-night": TurbulenceProfile(a_ground=1.7e-14, windspeed=21.0),
    "hv-day": TurbulenceProfile(a_ground=2.75e-14, windspeed=21.0),
    "hv-worst-day": TurbulenceProfile(a_ground=2.75e-14, windspeed=57.0),
    "hufnagel-stanley": TurbulenceProfile(kind="hufnagel-stanley"),
}


def cn2(h, profile: TurbulenceProfile):
    """Structure constant C_n^2 (m^(-2/3)) at altitude h, a float or ndarray."""
    if profile.kind == "hufnagel-stanley":
        if np.min(h) <= 0:
            raise ValueError("Hufnagel-Stanley profile is singular at h <= 0")
        return profile.hs_c1 * h ** (-1.0 / 3.0) * np.exp(-h / profile.hs_c2)
    if np.min(h) < 0:
        raise ValueError("altitude must be non-negative")
    if profile.kind == "constant":
        return np.full_like(h, profile.a_ground, dtype=float)[()]
    v = profile.windspeed
    return (
        5.94e-53 * (v / 27.0) ** 2 * h**10 * np.exp(-h / 1000.0)
        + 2.7e-16 * np.exp(-h / 1500.0)
        + profile.a_ground * np.exp(-h / 100.0)
    )


def _column(f: Integrand, edges: Sequence[float]) -> float:
    """Integral of f over the panels between consecutive edges.

    tanh-sinh on each panel takes the integrable endpoint singularities
    (the Hufnagel-Stanley h^(-1/3), the power-law path weights) as well as
    the smooth Hufnagel-Valley and constant profiles.
    """
    return sum(tanh_sinh(f, a, b).value for a, b in zip(edges, edges[1:]))


def _layer_edges(top: float) -> list[float]:
    """The LAYER_EDGES_M panel edges below top, closed by top."""
    return [e for e in LAYER_EDGES_M if e < top] + [top]


def cn2_avg(h: float, profile: TurbulenceProfile) -> float:
    """Single-layer average (1/h) * integral of C_n^2 from 0 to h."""
    if h <= 0:
        raise ValueError("layer thickness must be positive")
    edges = _layer_edges(min(h, PROFILE_TOP_M))
    return _column(lambda x: cn2(x, profile), edges) / h


@lru_cache(maxsize=32)
def i_infty(profile: TurbulenceProfile) -> float:
    """Column-integrated C_n^2 (m^(1/3)); the planar-approximation constant."""
    return _column(lambda x: cn2(x, profile), LAYER_EDGES_M)


class RytovResult(NamedTuple):
    value: float
    weak: bool  # value < 1 marks the weak-fluctuation regime


def rytov_variance(
    h: float,
    theta: float,
    k: float,
    profile: TurbulenceProfile,
    direction: str = "down",
) -> RytovResult:
    """Plane-wave Rytov variance for a slant path to altitude h.

    Downlink: 2.25 k^(7/6) h^(5/6) (sec theta)^(11/6) * mu(h) with the
    (xi/h)^(5/6)-weighted profile integral mu.  Uplink differs by the factor
    mu~(h)/mu(h) where mu~ carries an extra (1 - xi/h)^(5/6) weight.
    """
    if h <= 0:
        raise ValueError("altitude must be positive")
    edges = _layer_edges(min(h, PROFILE_TOP_M))
    mu = _column(lambda x: cn2(x, profile) * (x / h) ** (5.0 / 6.0), edges)
    sec = 1.0 / math.cos(abs(theta))
    value = 2.25 * k ** (7.0 / 6.0) * h ** (5.0 / 6.0) * sec ** (11.0 / 6.0) * mu
    if direction == "up":
        mu_tilde = _column(
            lambda x: cn2(x, profile) * (x / h * (1.0 - x / h)) ** (5.0 / 6.0), edges
        )
        value *= mu_tilde / mu
    elif direction != "down":
        raise ValueError("direction must be 'up' or 'down'")
    return RytovResult(value, value < 1.0)


@lru_cache(maxsize=32)
def _rytov_column(profile: TurbulenceProfile) -> float:
    """Cached integral of C_n^2(xi) xi^(5/6); the saturated Rytov weight."""
    return _column(lambda x: cn2(x, profile) * x ** (5.0 / 6.0), LAYER_EDGES_M)


def rytov_saturated(theta, k: float, profile: TurbulenceProfile):
    """Rytov variance in the saturated (above-atmosphere) limit.

    Equals the full slant expression for any altitude beyond the
    stratosphere; cheap enough to serve as an always-on regime check.
    theta is a float or an array of points.
    """
    m = mathof(theta)
    sec = 1.0 / m.cos(abs(theta))
    return 2.25 * k ** (7.0 / 6.0) * m.pow(sec, 11.0 / 6.0) * _rytov_column(profile)


def coherence_length(
    z: float,
    theta: float,
    k: float,
    profile: TurbulenceProfile,
    direction: str,
) -> float:
    """Spherical-wave coherence length rho_0 over a slant path of length z.

    The (1 - xi/z)^(5/3) spherical weight is applied to the profile sampled
    along the path: uplink sees the dense layers near the transmitter,
    downlink near the receiver.
    """
    if z <= 0:
        raise ValueError("path length must be positive")
    path_top = geometry.slant_range(PROFILE_TOP_M, theta)

    if direction == "up":
        weight = lambda xi: (1.0 - xi / z) ** (5.0 / 3.0)
    elif direction == "down":
        # substituting xi -> z - xi folds the weight onto the near-ground end
        weight = lambda xi: (xi / z) ** (5.0 / 3.0)
    else:
        raise ValueError("direction must be 'up' or 'down'")

    top = min(z, path_top)
    along_path = (geometry.slant_range(e, theta) for e in LAYER_EDGES_M)
    edges = [y for y in along_path if y < top]
    integral = _column(
        lambda xi: weight(xi) * cn2(geometry.altitude_from_slant(xi, theta), profile),
        edges + [top],
    )
    return (1.46 * k * k * integral) ** (-3.0 / 5.0)


def coherence_length_planar(theta, k: float, profile: TurbulenceProfile):
    """Asymptotic plane-wave coherence length [1.46 k^2 sec(theta) I_inf]^(-3/5)."""
    m = mathof(theta)
    sec = 1.0 / m.cos(abs(theta))
    return m.pow(1.46 * k * k * sec * i_infty(profile), -3.0 / 5.0)


def speckle_count(aperture: float, rho0: float) -> float:
    """Number of short-term speckles across an aperture, 1 + (a_R/rho0)^2."""
    if rho0 <= 0:
        raise ValueError("coherence length must be positive")
    return 1.0 + (aperture / rho0) ** 2


def uplink_coefficients(profile: TurbulenceProfile) -> tuple[float, float, float]:
    """Planar-approximation spot-size coefficients (a, b, c) for an uplink beam.

    a scales the total turbulent broadening, b the Yura wander fraction and
    c = a*b the centroid-wander variance.
    """
    i_inf = i_infty(profile)
    a = 26.28 * i_inf ** (6.0 / 5.0)
    b = 0.2934 * i_inf ** (-1.0 / 5.0)
    return a, b, a * b


class SpotSizes(NamedTuple):
    w_d: float         # diffraction-limited spot size
    w_st: float        # short-term (fast broadening only)
    w_lt: float        # long-term (incl. centroid wandering)
    sigma_tb2: float   # turbulence wander variance, w_lt^2 - w_st^2
    sigma_p2: float    # pointing wander variance
    sigma2: float      # total wander variance
    psi: float
    yura_phi: float


def spot_sizes(
    z,
    theta,
    beam: BeamParams,
    profile: TurbulenceProfile,
    direction: str,
    pointing_sigma2=0.0,
    linearized: bool = False,
    use_quadrature_rho0: bool = False,
) -> SpotSizes:
    """Short-/long-term spot sizes and wander variances at slant range z.

    z and theta are floats or 1-D arrays of points (floats only with
    use_quadrature_rho0).  Downlink beams are treated as diffraction-limited
    (w_st = w_lt = w_d, sigma_TB = 0).  Uplink beams use the planar
    coherence length by default; use_quadrature_rho0 switches to the full
    spherical-wave integral.  The wander fraction uses the exact (1 - phi)^2
    form unless linearized, which selects the first-order 1 - 2*phi variant.
    The identity w_lt^2 = w_st^2 + sigma_TB^2 holds exactly in all modes.
    """
    w_d = diffraction_waist(z, beam)
    if direction == "down":
        return SpotSizes(w_d, w_d, w_d, 0.0, pointing_sigma2, pointing_sigma2, 1.0, 0.0)
    if direction != "up":
        raise ValueError("direction must be 'up' or 'down'")
    if i_infty(profile) == 0.0:
        return SpotSizes(w_d, w_d, w_d, 0.0, pointing_sigma2, pointing_sigma2, 1.0, 0.0)

    if use_quadrature_rho0:
        rho0 = coherence_length(z, theta, beam.wavenumber, profile, "up")
    else:
        rho0 = coherence_length_planar(theta, beam.wavenumber, profile)

    m = mathof(z)
    phi = 0.33 * m.pow(rho0 / beam.waist, 1.0 / 3.0)
    strong = phi >= 1.0
    if any_(strong):
        raise StrongTurbulenceError(
            f"Yura condition violated: phi={at_first(strong, phi):.3f} >= 1 for w0={beam.waist}"
        )
    for (marginal,) in each(phi > 0.5, phi):
        warnings.warn(
            f"Yura parameter phi={marginal:.2f} is not small; spot-size model is marginal",
            stacklevel=2,
        )
    psi = 1.0 - 2.0 * phi if linearized else m.pow(1.0 - phi, 2)

    broadening = 2.0 * m.pow(beam.wavelength * z / (math.pi * rho0), 2)
    w_lt2 = m.pow(w_d, 2) + broadening
    w_st2 = m.pow(w_d, 2) + broadening * psi
    sigma_tb2 = broadening * (1.0 - psi)
    sigma2 = sigma_tb2 + pointing_sigma2
    return SpotSizes(
        w_d, m.sqrt(w_st2), m.sqrt(w_lt2), sigma_tb2, pointing_sigma2, sigma2,
        psi, phi,
    )
