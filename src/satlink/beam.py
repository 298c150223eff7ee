"""Gaussian-beam diffraction, aperture coupling and loss-only rate bounds.

Distances and transmissivities are floats or 1-D arrays of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._array import all_, any_, mathof, where
from .domain import NON_NEGATIVE, POSITIVE, UNIT, Checked, Domain, param
from .errors import NumericalError

LN2 = math.log(2.0)


@dataclass(frozen=True)
class BeamParams(Checked):
    """Transmitted Gaussian beam: wavelength, field spot size, curvature radius.

    curvature = inf means a collimated beam (the default operating mode); a radius
    R > 0 focuses it at distance R (diffraction_waist), R < 0 diverges it.
    """

    wavelength: float = param(800e-9, POSITIVE)
    waist: float = param(0.2, POSITIVE)
    curvature: float = param(math.inf, Domain("a non-zero quantity (inf: collimated)",
                                              lambda x: x < 0 or x > 0))

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist**2 / self.wavelength


@dataclass(frozen=True)
class ReceiverParams(Checked):
    """Receiving telescope and detector parameters (SI units)."""

    aperture: float = param(0.4, POSITIVE)          # radius a_R, m
    fov_sr: float = param(1e-10, POSITIVE)          # field of view, sr
    detection_time: float = param(10e-9, POSITIVE)  # s
    filter_width: float = param(1e-9, POSITIVE)     # spectral filter, m
    efficiency: float = param(0.4, UNIT)            # end-to-end setup efficiency
    excess_photons: float = param(0.0, NON_NEGATIVE)  # trusted excess thermal photons

    @property
    def gamma_r(self) -> float:
        """Background-collection parameter: filter(nm) * time * fov * aperture^2."""
        return (self.filter_width / 1e-9) * self.detection_time * self.fov_sr * self.aperture**2


def diffraction_waist(z, beam: BeamParams):
    """Field spot size after free propagation over distance z."""
    if any_(z < 0):
        raise ValueError("propagation distance must be non-negative")
    ratio = z / beam.rayleigh_range
    return beam.waist * mathof(z).hypot(1.0 - z / beam.curvature, ratio)


def eta_diffraction(z, beam: BeamParams, aperture: float):
    """Fraction of the beam collected by a circular aperture of radius `aperture`."""
    w = diffraction_waist(z, beam)
    m = mathof(w)
    return -m.expm1(-2.0 * aperture**2 / m.pow(w, 2))


def plob(eta):
    """Repeaterless secret-key capacity -log2(1 - eta) of a pure-loss channel."""
    if not all_((0.0 <= eta) & (eta <= 1.0)):
        raise NumericalError("transmissivity must lie in [0, 1]")
    lossless = eta == 1.0
    return where(lossless, math.inf, -mathof(eta).log1p(-where(lossless, 0.0, eta)) / LN2)


def diffraction_bound(z, beam: BeamParams, aperture: float):
    """Far-field upper bound (2/ln2) a_R^2 / w_d^2, bits per channel use."""
    w = diffraction_waist(z, beam)
    return (2.0 / LN2) * aperture**2 / mathof(w).pow(w, 2)

