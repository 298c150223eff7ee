"""Gaussian-beam diffraction, aperture coupling and loss-only rate bounds."""

from __future__ import annotations

import math

from .domain import NON_NEGATIVE, POSITIVE, UNIT, Domain, Record, param
from .errors import NumericalError

LN2 = math.log(2.0)


class BeamParams(Record):
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


class ReceiverParams(Record):
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


def diffraction_waist(z: float, beam: BeamParams) -> float:
    """Field spot size after free propagation over distance z."""
    if z < 0:
        raise ValueError("propagation distance must be non-negative")
    return beam.waist * math.hypot(1.0 - z / beam.curvature, z / beam.rayleigh_range)


def eta_diffraction(z: float, beam: BeamParams, aperture: float) -> float:
    """Fraction of the beam collected by a circular aperture of radius `aperture`."""
    w = diffraction_waist(z, beam)
    return -math.expm1(-2.0 * aperture**2 / math.pow(w, 2))


def plob(eta: float) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta) of a pure-loss channel."""
    if not 0.0 <= eta <= 1.0:
        raise NumericalError("transmissivity must lie in [0, 1]")
    if eta == 1.0:
        return math.inf
    return -math.log1p(-eta) / LN2


def diffraction_bound(z: float, beam: BeamParams, aperture: float) -> float:
    """Far-field upper bound (2/ln2) a_R^2 / w_d^2, bits per channel use."""
    w = diffraction_waist(z, beam)
    return (2.0 / LN2) * aperture**2 / math.pow(w, 2)

