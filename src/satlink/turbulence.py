"""Refractive-index structure profiles and turbulence beam statistics.

Implements the Hufnagel-Valley and Hufnagel-Stanley C_n^2(h) profiles, the
saturated plane-wave Rytov variance (weak-turbulence check), the planar
coherence length, and the short-/long-term spot sizes plus centroid-wander
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

from ._integrate import Integrand, tanh_sinh
from .beam import BeamParams, diffraction_waist
from .errors import NumericalError, StrongTurbulenceError

# C_n^2 falls exponentially above the tropopause; integrals truncate here
PROFILE_TOP_M = 100e3
# panel edges that resolve the 100 m ground scale and the 10 km bump
LAYER_EDGES_M = (0.0, 2e3, 3e4, PROFILE_TOP_M)


@dataclass(frozen=True)
class TurbulenceProfile:
    """Atmospheric turbulence-strength profile.

    kind "hufnagel-valley" uses the ground value a_ground and windspeed;
    kind "hufnagel-stanley" uses the c1 * h^(-1/3) * exp(-h/c2) form and is
    singular at h = 0.
    """

    kind: str = "hufnagel-valley"
    a_ground: float = 1.7e-14   # C_n^2(0), m^(-2/3)
    windspeed: float = 21.0     # m/s
    hs_c1: float = 4.2e-14
    hs_c2: float = 3200.0


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
    the smooth Hufnagel-Valley profile.
    """
    return sum(tanh_sinh(f, a, b).value for a, b in zip(edges, edges[1:]))


@lru_cache(maxsize=32)
def i_infty(profile: TurbulenceProfile) -> float:
    """Column-integrated C_n^2 (m^(1/3)); the planar-approximation constant."""
    return _column(lambda x: cn2(x, profile), LAYER_EDGES_M)


@lru_cache(maxsize=32)
def _rytov_column(profile: TurbulenceProfile) -> float:
    """Cached integral of C_n^2(xi) xi^(5/6); the saturated Rytov weight."""
    return _column(lambda x: cn2(x, profile) * x ** (5.0 / 6.0), LAYER_EDGES_M)


def rytov_saturated(theta: float, k: float, profile: TurbulenceProfile) -> float:
    """Rytov variance in the saturated (above-atmosphere) limit.

    Equals the full slant expression for any altitude beyond the
    stratosphere; cheap enough to serve as an always-on regime check.
    """
    sec = 1.0 / math.cos(abs(theta))
    return 2.25 * k ** (7.0 / 6.0) * math.pow(sec, 11.0 / 6.0) * _rytov_column(profile)


def coherence_length_planar(theta: float, k: float, profile: TurbulenceProfile) -> float:
    """Asymptotic plane-wave coherence length [1.46 k^2 sec(theta) I_inf]^(-3/5)."""
    sec = 1.0 / math.cos(abs(theta))
    strength = 1.46 * k * k * sec * i_infty(profile)
    if strength == 0.0:  # k^2 underflows for a wavelength beyond ~1e154 m
        raise NumericalError(f"no finite coherence length for wavenumber {k:.6g}")
    return math.pow(strength, -3.0 / 5.0)


class SpotSizes(NamedTuple):
    w_d: float         # diffraction-limited spot size
    w_st: float        # short-term (fast broadening only)
    w_lt: float        # long-term (incl. centroid wandering)
    sigma_tb2: float   # turbulence wander variance, w_lt^2 - w_st^2
    sigma_p2: float    # pointing wander variance
    sigma2: float      # total wander variance
    yura_phi: float


def spot_sizes(
    z: float,
    theta: float,
    beam: BeamParams,
    profile: TurbulenceProfile,
    direction: str,
    pointing_sigma2: float,
) -> SpotSizes:
    """Short-/long-term spot sizes and wander variances at slant range z.

    Downlink beams are treated as diffraction-limited (w_st = w_lt = w_d, sigma_TB = 0).
    Uplink beams use the planar coherence length, and the wander fraction
    the exact (1 - phi)^2 form.  The identity w_lt^2 = w_st^2 + sigma_TB^2
    holds exactly.  A Yura parameter phi above 0.5 raises a validity warning.
    """
    w_d = diffraction_waist(z, beam)
    if direction == "down":
        return SpotSizes(w_d, w_d, w_d, 0.0, pointing_sigma2, pointing_sigma2, 0.0)

    rho0 = coherence_length_planar(theta, beam.wavenumber, profile)

    phi = 0.33 * math.pow(rho0 / beam.waist, 1.0 / 3.0)
    if phi >= 1.0:
        raise StrongTurbulenceError(f"Yura condition violated: phi={phi:.3f} >= 1 for w0={beam.waist}")
    if phi > 0.5:
        warnings.warn(
            f"Yura parameter phi={phi:.2f} is not small; spot-size model is marginal",
            stacklevel=2,
        )
    psi = math.pow(1.0 - phi, 2)

    broadening = 2.0 * math.pow(beam.wavelength * z / (math.pi * rho0), 2)
    w_lt2 = math.pow(w_d, 2) + broadening
    w_st2 = math.pow(w_d, 2) + broadening * psi
    sigma_tb2 = broadening * (1.0 - psi)
    sigma2 = sigma_tb2 + pointing_sigma2
    return SpotSizes(w_d, math.sqrt(w_st2), math.sqrt(w_lt2), sigma_tb2, pointing_sigma2, sigma2, phi)
