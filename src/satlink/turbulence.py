"""Refractive-index structure profiles and turbulence beam statistics.

Implements the Hufnagel-Valley and Hufnagel-Stanley C_n^2(h) profiles, the
saturated plane-wave Rytov variance (weak-turbulence check), the planar
coherence length, and the short-/long-term spot sizes plus centroid-wander
variance for uplink beams.  Downlink beams are diffraction-limited within the
working angular window.

A profile is one of the names of PROFILES, which holds its terms: C_n^2 is
the sum of c * h^q * exp(-h / a) over them, so the moments of C_n^2 that the
Rytov variance and the coherence length take are sums of
c * Gamma(p + q + 1) * a^(p + q + 1) in closed form, cached by name.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .beam import BeamParams, diffraction_waist
from .errors import NumericalError, StrongTurbulenceError, guard


def _hufnagel_valley(a_ground: float, windspeed: float) -> tuple[tuple[float, float, float], ...]:
    """The Hufnagel-Valley terms of ground value a_ground = C_n^2(0) (m^(-2/3)) and windspeed (m/s)."""
    return (
        (5.94e-53 * (windspeed / 27.0) ** 2, 10.0, 1000.0),
        (2.7e-16, 0.0, 1500.0),
        (a_ground, 0.0, 100.0),
    )


# the named profiles, each C_n^2(h) as the sum of c * h^q * exp(-h / a) over
# its terms (c, q, a): Hufnagel-Valley at night, by day and on a worst-case
# (high-wind) day, and the Hufnagel-Stanley form c1 * h^(-1/3) * exp(-h/c2),
# singular at h = 0
PROFILES: dict[str, tuple[tuple[float, float, float], ...]] = {
    "hv-night": _hufnagel_valley(1.7e-14, 21.0),
    "hv-day": _hufnagel_valley(2.75e-14, 21.0),
    "hv-worst-day": _hufnagel_valley(2.75e-14, 57.0),
    "hufnagel-stanley": ((4.2e-14, -1.0 / 3.0, 3200.0),),
}


def _moment(p: float, profile: str) -> float:
    """Integral over h in [0, inf) of h^p C_n^2(h): the sum of c Gamma(p + q + 1) a^(p + q + 1)."""
    # a^(q + 1) a^p: a^(p + q + 1) would lose ln(a) ulps of p + q + 1, 7e-15 for the h^10 term
    return sum(c * math.gamma(p + q + 1.0) * a ** (q + 1.0) * a**p for c, q, a in PROFILES[profile])


# the columns integrate C_n^2 over [0, inf); above 100 km lies below 1e-28
# of the Hufnagel-Valley ones, and 1.7e-13 of the Hufnagel-Stanley h^(5/6) one
@lru_cache(maxsize=32)
def i_infty(profile: str) -> float:
    """Column-integrated C_n^2 (m^(1/3)); the planar-approximation constant."""
    return _moment(0.0, profile)


@lru_cache(maxsize=32)
def _rytov_column(profile: str) -> float:
    """Cached integral of C_n^2(xi) xi^(5/6); the saturated Rytov weight."""
    return _moment(5.0 / 6.0, profile)


def rytov_saturated(theta: float, k: float, profile: str) -> float:
    """Rytov variance in the saturated (above-atmosphere) limit.

    Equals the full slant expression for any altitude beyond the
    stratosphere; cheap enough to serve as an always-on regime check.
    """
    sec = 1.0 / math.cos(abs(theta))
    return 2.25 * k ** (7.0 / 6.0) * math.pow(sec, 11.0 / 6.0) * _rytov_column(profile)


def coherence_length_planar(theta: float, k: float, profile: str) -> float:
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
    profile: str,
    direction: str,
    pointing_sigma2: float,
) -> SpotSizes:
    """Short-/long-term spot sizes and wander variances at slant range z.

    Downlink beams are treated as diffraction-limited (w_st = w_lt = w_d, sigma_TB = 0).
    Uplink beams use the planar coherence length, and the wander fraction
    the exact (1 - phi)^2 form.  The identity w_lt^2 = w_st^2 + sigma_TB^2
    holds exactly.  A Yura parameter phi above 0.5 fires guard turbulence.yura.
    """
    w_d = diffraction_waist(z, beam)
    if direction == "down":
        return SpotSizes(w_d, w_d, w_d, 0.0, pointing_sigma2, pointing_sigma2, 0.0)

    rho0 = coherence_length_planar(theta, beam.wavenumber, profile)

    phi = 0.33 * math.pow(rho0 / beam.waist, 1.0 / 3.0)
    if phi >= 1.0:
        raise StrongTurbulenceError(f"Yura condition violated: phi={phi:.3f} >= 1 for w0={beam.waist}")
    if phi > 0.5:
        guard("turbulence.yura", f"Yura parameter phi={phi:.2f} is not small; spot-size model is marginal")
    psi = math.pow(1.0 - phi, 2)

    broadening = 2.0 * math.pow(beam.wavelength * z / (math.pi * rho0), 2)
    w_lt2 = math.pow(w_d, 2) + broadening
    w_st2 = math.pow(w_d, 2) + broadening * psi
    sigma_tb2 = broadening * (1.0 - psi)
    sigma2 = sigma_tb2 + pointing_sigma2
    return SpotSizes(w_d, math.sqrt(w_st2), math.sqrt(w_lt2), sigma_tb2, pointing_sigma2, sigma2, phi)
