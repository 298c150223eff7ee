"""Capacity-type bounds for the satellite fading channel.

The loss-limited bound B takes the pure-loss key capacity over the
transmissivity distribution, in closed form up to the beam-wandering factor.
With background thermal photons it splits into an upper bound (B minus a
thermal correction) and the reverse-coherent-information lower bound
B - h(nbar / (1 - eta)), both clamped at zero.  Maximum secure ranges follow
either from a Fresnel-number argument or from the root of upper-bound = 0.

The thermal bounds take B at the transmissivity eta and at the thermal
photon number nbar.  `loss_bounds` gives both for a list of fading models,
with their beam-wandering integrals in two batches, B at eta and B at
nbar; a bounds sweep hands those to its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._integrate import tanh_sinh
from .beam import LN2
from .errors import NumericalError
from .fading import FadingModel

_H_TINY = -1e-12


def entropy_h(x: float) -> float:
    """Thermal-state entropy (x+1)log2(x+1) - x log2(x), with h(0) = 0."""
    # numerical dust from symplectic eigenvalues counts as zero
    if x <= _H_TINY:
        raise ValueError("mean photon number must be non-negative")
    return thermal_entropy(x)


def thermal_entropy(x: float) -> float:
    """entropy_h without the domain check, x <= 0 counting as 0."""
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


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


def _wander_integral(eta, sigma2, gamma, r0):
    """The integral I of the beam-wandering factor Delta(eta, sigma) in (0, 1].

    Delta = 1 + (eta / ln(1-eta)) * I with
    I = integral_0^inf exp(-(r0^2/2 sigma^2) x^(2/gamma)) / (e^x - eta) dx,
    for sigma2 > 0; without wander (sigma2 = 0) Delta is 1.
    The integral is split at x = 1.  The lower piece takes the substitution
    u = x^(2/gamma), which removes the infinite-derivative endpoint when
    gamma > 2 and leaves an integrable u^(gamma/2 - 1) one.  The upper piece
    decays like exp(-(1 + 2 s / gamma)(x - 1)) near x = 1; the substitution
    t = exp(-(1 + 2 s / gamma)(x - 1)) maps it onto (0, 1] as well.  One
    tanh-sinh call integrates the sum of the two pieces.  The arguments are
    floats, or 1-D arrays over the rows of a batch.
    """
    return tanh_sinh(_wander, 0.0, 1.0, r0 * r0 / (2.0 * sigma2), gamma / 2.0, eta, abs_tol=1e-12).value


def _bound(eta: float, integral: float) -> float:
    """Loss-limited bound -Delta * log2(1 - eta) from the wander integral I (0 without wander)."""
    return -(1.0 + eta / math.log1p(-eta) * integral) * math.log1p(-eta) / LN2


def _integrals(rows: list[tuple[float, FadingModel]]) -> list[float]:
    """The wander integral I at each (eta, model) row: 0.0 without wander,
    the others as the rows of one batch.  A lone row is integrated as
    floats, in half the time of a batch of one."""
    wander = [(eta, m.sigma2, m.gamma, m.r0) for eta, m in rows if m.sigma2 != 0.0]
    if len(wander) > 1:
        values = iter(_wander_integral(*map(np.array, zip(*wander))).tolist())
    else:
        values = iter([float(_wander_integral(*row)) for row in wander])
    return [next(values) if m.sigma2 != 0.0 else 0.0 for _, m in rows]


def loss_bounds(models: list[FadingModel], nbar: float) -> list[tuple[float, float]]:
    """B at eta and B at nbar, (b, b_nbar), of each model, in bits per use.

    The wander integrals are taken in two batches: B at eta of every model,
    then B at nbar of the models where 0 < nbar < eta (b_nbar is 0.0 for
    the others, whose bounds do not read it).  A batch row is the double
    its own call returns, so a model's pair does not depend on the others.
    If a batch fails, the models are taken one at a time, so that the
    first to fail raises its own error.
    """
    live = [0.0 < nbar < m.eta for m in models]
    try:
        at_eta = _integrals([(m.eta, m) for m in models])
        at_nbar = iter(_integrals([(nbar, m) for m, ok in zip(models, live) if ok]))
    except NumericalError:
        if len(models) == 1:
            raise
        return [pair for m in models for pair in loss_bounds([m], nbar)]
    return [(_bound(m.eta, i), _bound(nbar, next(at_nbar)) if ok else 0.0) for m, i, ok in zip(models, at_eta, live)]


def bound_b_model(model: FadingModel) -> float:
    """The loss-limited bound B of one model."""
    return loss_bounds([model], 0.0)[0][0]


def thermal_correction(nbar: float, model: FadingModel, b_nbar: float) -> float:
    """Thermal correction subtracted from the loss-limited bound (nbar <= eta).

    b_nbar is the model's loss-limited bound B at nbar.
    """
    if nbar == 0.0:
        return 0.0
    u = math.pow(math.log(model.eta / nbar), 2.0 / model.gamma)
    weight = 1.0 - math.exp(-model.spread * u)
    bracket = nbar * math.log2(nbar) / (1.0 - nbar) + entropy_h(nbar)
    return weight * bracket + b_nbar


def thermal_upper(nbar: float, model: FadingModel, b: float, b_nbar: float) -> float:
    """Thermal-loss upper bound max(0, B - T); zero beyond entanglement breaking.

    b and b_nbar are the model's loss-limited bound B at eta and at nbar.
    """
    if nbar == 0.0:
        return b
    if not nbar < model.eta:
        return 0.0
    upper = b - thermal_correction(nbar, model, b_nbar)
    return upper if upper > 0.0 else 0.0


def thermal_lower(nbar: float, model: FadingModel, b: float) -> float:
    """Reverse-coherent-information lower bound max(0, B - h(nbar / (1 - eta))).

    The entropy penalty takes the transmissivity at its maximum eta.  b is
    the model's loss-limited bound B.
    """
    if nbar == 0.0:
        return b
    lower = b - entropy_h(nbar / (1.0 - model.eta))
    return lower if lower > 0.0 else 0.0


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
        model = build_model(z)
        return thermal_upper(nbar, model, *loss_bounds([model], nbar)[0])

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
