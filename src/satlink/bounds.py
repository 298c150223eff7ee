"""Capacity-type bounds for the satellite fading channel.

The loss-limited bound B takes the pure-loss key capacity over the
transmissivity distribution, in closed form up to the beam-wandering factor.
With background thermal photons it splits into an upper bound (B minus a
thermal correction) and the reverse-coherent-information lower bound
B - h(nbar / (1 - eta)), both clamped at zero.  Maximum secure ranges follow
either from a Fresnel-number argument or from the root of upper-bound = 0.
The bounds take a fading model at one geometry or at every point of a
sweep; the thermal photon number nbar is one float for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._array import all_, any_, mathof, scatter, take, where
from ._integrate import tanh_sinh
from .beam import LN2
from .errors import NumericalError
from .fading import FadingModel

_H_TINY = -1e-12


def entropy_h(x):
    """Thermal-state entropy (x+1)log2(x+1) - x log2(x), with h(0) = 0."""
    # numerical dust from symplectic eigenvalues counts as zero
    if any_(x <= _H_TINY):
        raise ValueError("mean photon number must be non-negative")
    return thermal_entropy(x)


def thermal_entropy(x):
    """entropy_h without the domain check, x <= 0 counting as 0."""
    # multiplying by the masks zeroes x <= 0 (to -0.0 at worst, which h maps
    # to 0.0) and keeps log2 off 0, without a branch on scalars or arrays
    x = x * (x > 0.0)
    m = mathof(x)
    return (x + 1.0) * m.log2(x + 1.0) - x * m.log2(x + (x == 0.0))


def _wander_low(u, s, g, eta):
    return np.exp(-s * u) * g * u ** (g - 1.0) / (np.exp(u**g) - eta)


def _wander_high(x, s, g, eta):
    # written as exp(-s x^(2/g) - x) / (1 - eta e^-x) to avoid overflow
    return np.exp(-s * x ** (1.0 / g) - x) / (1.0 - eta * np.exp(-x))


def _wander(t, s, g, eta):
    """Both pieces of the wandering integral at the same nodes t in (0, 1].

    The tail beyond x = 1 maps to t = exp(-rate (x - 1)), rate = 1 + s/g,
    the rate at which it decays near x = 1.
    """
    rate = 1.0 + s / g
    return _wander_low(t, s, g, eta) + _wander_high(1.0 - np.log(t) / rate, s, g, eta) / (rate * t)


def wander_delta(eta, sigma2, gamma, r0):
    """Beam-wandering correction factor Delta(eta, sigma) in (0, 1].

    Delta = 1 + (eta / ln(1-eta)) * I with
    I = integral_0^inf exp(-(r0^2/2 sigma^2) x^(2/gamma)) / (e^x - eta) dx.
    The integral is split at x = 1.  The lower piece takes the substitution
    u = x^(2/gamma), which removes the infinite-derivative endpoint when
    gamma > 2 and leaves an integrable u^(gamma/2 - 1) one.  The upper piece
    decays like exp(-(1 + 2 s / gamma)(x - 1)) near x = 1; the substitution
    t = exp(-(1 + 2 s / gamma)(x - 1)) maps it onto (0, 1] as well.  One
    tanh-sinh call integrates the sum of the two pieces.  Without wander
    (sigma2 = 0) Delta is 1.
    """
    wander = sigma2 != 0.0
    s = r0 * r0 / (2.0 * where(wander, sigma2, 1.0))
    g = gamma / 2.0
    integral = tanh_sinh(_wander, 0.0, 1.0, s, g, eta, abs_tol=1e-12).value
    return where(wander, 1.0 + eta / mathof(eta).log1p(-eta) * integral, 1.0)


def bound_b(eta, sigma2, gamma, r0):
    """Loss-limited bound -Delta(eta, sigma) * log2(1 - eta), bits per use."""
    if not all_((0.0 < eta) & (eta < 1.0)):
        raise NumericalError("eta must lie in (0, 1)")
    return -wander_delta(eta, sigma2, gamma, r0) * mathof(eta).log1p(-eta) / LN2


def bound_b_model(model: FadingModel):
    return bound_b(model.eta, model.sigma2, model.gamma, model.r0)


def thermal_correction(nbar: float, model: FadingModel):
    """Thermal correction subtracted from the loss-limited bound (nbar <= eta)."""
    if nbar == 0.0:
        return 0.0
    m = mathof(model.eta)
    u = m.pow(m.log(model.eta / nbar), 2.0 / model.gamma)
    weight = 1.0 - m.exp(-model.spread * u)
    bracket = nbar * math.log2(nbar) / (1.0 - nbar) + entropy_h(nbar)
    return weight * bracket + bound_b(nbar, model.sigma2, model.gamma, model.r0)


def thermal_upper(nbar: float, model: FadingModel, b=None):
    """Thermal-loss upper bound max(0, B - T); zero beyond entanglement breaking.

    b is the model's loss-limited bound B, when the caller has it already.
    """
    if nbar == 0.0:
        return bound_b_model(model) if b is None else b
    live = nbar < model.eta
    if not any_(live):
        return 0.0 * model.eta
    part = model.select(live)
    upper = (bound_b_model(part) if b is None else take(live, b)) - thermal_correction(nbar, part)
    return scatter(live, where(upper > 0.0, upper, 0.0), 0.0)


def thermal_lower(nbar: float, model: FadingModel, b):
    """Reverse-coherent-information lower bound max(0, B - h(nbar / (1 - eta))).

    The entropy penalty takes the transmissivity at its maximum eta.  b is
    the model's loss-limited bound B.
    """
    if nbar == 0.0:
        return b
    lower = b - entropy_h(nbar / (1.0 - model.eta))
    return where(lower > 0.0, lower, 0.0)


# the tight max-range search: first probe, bracket cap and bisection step (m)
Z_LO = 10e3
Z_HI = 1e9
Z_TOL = 1e3


@dataclass(frozen=True)
class MaxRangeResult:
    z_max: float          # meters; 0.0 when no secure range exists
    capped: bool = False  # z_max is the bracket cap Z_HI, not a root


def fresnel_range(waist: float, wavelength: float, aperture: float, n_background: float) -> float:
    """Fresnel-number maximum range pi w0 a_R / (lambda n_B) for background photons n_B."""
    if wavelength * n_background == 0.0:  # n_B, or lambda n_B, rounds to 0
        raise NumericalError(f"no finite Fresnel range: lambda n_B underflows to 0 at n_B = {n_background:.6g}")
    return math.pi * waist * aperture / (wavelength * n_background)


def max_range(build_model: Callable[[float], FadingModel], nbar: float) -> MaxRangeResult:
    """Maximum slant range (m) for secure key distribution at zenith.

    Locates the zero of the thermal-loss upper bound B - T by bisection on
    the geometry supplied by build_model, with the bracket grown
    geometrically from Z_LO up to the cap Z_HI.
    """
    if nbar >= 1.0:
        return MaxRangeResult(0.0)

    def upper_at(z: float) -> float:
        return thermal_upper(nbar, build_model(z))

    if upper_at(Z_LO) <= 0.0:
        return MaxRangeResult(0.0)

    # expand until the bound dies or the cap is reached
    lo, hi = Z_LO, 2.0 * Z_LO
    while hi < Z_HI and upper_at(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    if hi >= Z_HI and upper_at(Z_HI) > 0.0:
        return MaxRangeResult(Z_HI, capped=True)

    while hi - lo > Z_TOL:
        mid = 0.5 * (lo + hi)
        if upper_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return MaxRangeResult(0.5 * (lo + hi))
