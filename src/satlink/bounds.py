"""Capacity-type bounds for the satellite fading channel.

The loss-limited bound averages the pure-loss key capacity over the
transmissivity distribution; with background thermal photons it splits into
an upper bound (loss-limited minus a thermal correction) and a reverse
coherent information lower bound.  Maximum secure ranges follow either from
a Fresnel-number argument or from the root of upper-bound = 0.  The bounds
take a fading model at one geometry or at every point of a sweep; the
thermal photon number nbar is one float for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._array import all_, any_, mathof, scatter, take, where
from ._integrate import gauss_laguerre, tanh_sinh
from .beam import LN2, ReceiverParams, plob
from .fading import FadingModel, eta_slow

_H_TINY = -1e-12


def entropy_h(x):
    """Thermal-state entropy (x+1)log2(x+1) - x log2(x), with h(0) = 0."""
    # numerical dust from symplectic eigenvalues counts as zero
    if any_(x <= _H_TINY):
        raise ValueError("mean photon number must be non-negative")
    return thermal_entropy(x, mathof(x))


def thermal_entropy(x, m):
    """entropy_h without the domain check, x <= 0 counting as 0, with m's log2.

    m is mathof(x) at the points of a sweep and numpy in quadrature integrands.
    """
    # multiplying by the masks zeroes x <= 0 (to -0.0 at worst, which h maps
    # to 0.0) and keeps log2 off 0, without a branch on scalars or arrays
    x = x * (x > 0.0)
    return (x + 1.0) * m.log2(x + 1.0) - x * m.log2(x + (x == 0.0))


def phi_thermal(tau: float, nbar: float) -> float:
    """Key-rate upper bound of a thermal-loss channel, 0 when nbar > tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError("transmissivity must lie in (0, 1)")
    if nbar < 0:
        raise ValueError("thermal photons must be non-negative")
    if nbar > tau:
        return 0.0
    n_e = nbar / (1.0 - tau)
    return -math.log2(1.0 - tau) - n_e * math.log2(tau) - entropy_h(n_e)


def _wander_low(u, s, g, eta):
    return np.exp(-s * u) * g * u ** (g - 1.0) / (np.exp(u**g) - eta)


def _wander_high(x, s, g, eta):
    # written as exp(-s x^(2/g) - x) / (1 - eta e^-x) to avoid overflow
    return np.exp(-s * x ** (1.0 / g) - x) / (1.0 - eta * np.exp(-x))


def wander_delta(eta, sigma2, gamma, r0):
    """Beam-wandering correction factor Delta(eta, sigma) in (0, 1].

    Delta = 1 + (eta / ln(1-eta)) * I with
    I = integral_0^inf exp(-(r0^2/2 sigma^2) x^(2/gamma)) / (e^x - eta) dx.
    The integral is split at x = 1.  The lower piece takes the substitution
    u = x^(2/gamma), which removes the infinite-derivative endpoint when
    gamma > 2 and leaves an integrable u^(gamma/2 - 1) one for tanh-sinh.
    The upper piece decays like exp(-(1 + 2 s / gamma)(x - 1)) near x = 1,
    the rate its Gauss-Laguerre rule is scaled to.  Without wander
    (sigma2 = 0) Delta is 1.
    """
    wander = sigma2 != 0.0
    s = r0 * r0 / (2.0 * where(wander, sigma2, 1.0))
    g = gamma / 2.0
    integral = tanh_sinh(_wander_low, 0.0, 1.0, s, g, eta, abs_tol=1e-12).value
    integral += gauss_laguerre(_wander_high, 1.0, 1.0 + s / g, s, g, eta, abs_tol=1e-12).value
    return where(wander, 1.0 + eta / mathof(eta).log1p(-eta) * integral, 1.0)


def bound_b(eta, sigma2, gamma, r0):
    """Loss-limited bound -Delta(eta, sigma) * log2(1 - eta), bits per use."""
    if not all_((0.0 < eta) & (eta < 1.0)):
        raise ValueError("eta must lie in (0, 1)")
    return -wander_delta(eta, sigma2, gamma, r0) * mathof(eta).log1p(-eta) / LN2


def bound_b_model(model: FadingModel):
    return bound_b(model.eta, model.sigma2, model.gamma, model.r0)


def thermal_correction(nbar: float, model: FadingModel):
    """Thermal correction subtracted from the loss-limited bound (nbar <= eta)."""
    if nbar < 0:
        raise ValueError("thermal photons must be non-negative")
    if nbar == 0.0:
        return 0.0
    if any_(nbar > model.eta):
        raise ValueError("thermal correction defined for nbar <= eta")
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


class ThermalLower(NamedTuple):
    middle: float  # B - <h(nbar / (1 - tau))> averaged over fading
    simple: float  # B - h(nbar / (1 - eta))


def thermal_lower(nbar: float, model: FadingModel, b=None) -> ThermalLower:
    """Reverse-coherent-information lower bounds, clamped at zero.

    The middle form averages the entropy penalty over the fading law; the
    simple form replaces tau by its maximum eta and is never larger.  b is
    the model's loss-limited bound B, when the caller has it already.
    """
    if nbar < 0:
        raise ValueError("thermal photons must be non-negative")
    if b is None:
        b = bound_b_model(model)
    if nbar == 0.0:
        return ThermalLower(b, b)
    middle = b - _fading_average(lambda tau: thermal_entropy(nbar / (1.0 - tau), np), model, 1e-12)
    simple = b - entropy_h(nbar / (1.0 - model.eta))
    return ThermalLower(where(middle > 0.0, middle, 0.0), where(simple > 0.0, simple, 0.0))


def _fading_average(
    f: Callable[[np.ndarray], np.ndarray],
    model: FadingModel,
    abs_tol: float,
    tau_min: float = 0.0,
):
    """Average of f(tau) 1[tau > tau_min] over the fading law.

    In u = ln(eta / tau)^(2 / gamma) the density is s exp(-s u) on
    [0, inf), and f picks up a u^(gamma/2 - 1) endpoint singularity in its
    derivative; tanh-sinh handles both, whatever s.  A cut at tau_min > 0
    becomes the upper end of the u range, so the rule never sees the step.
    """
    s = model.spread
    g = model.gamma / 2.0
    eta = model.eta
    m = mathof(eta)
    u_max = m.pow(m.log(eta / tau_min), 1.0 / g) if tau_min > 0.0 else math.inf
    return tanh_sinh(
        lambda u, s, g, eta: s * np.exp(-s * u) * f(eta * np.exp(-(u**g))),
        0.0,
        u_max,
        s,
        g,
        eta,
        abs_tol=abs_tol,
    ).value


def average_plob(model: FadingModel):
    """Direct fading average of -log2(1 - tau); oracle for bound_b."""
    return _fading_average(lambda tau: -np.log1p(-tau) / LN2, model, 1e-13)


def average_phi_thermal(nbar: float, model: FadingModel) -> float:
    """Fading average of the thermal-loss upper bound; <= thermal_upper.

    Entanglement-breaking slots (tau <= nbar) contribute nothing.  One
    geometry at a time.
    """
    if nbar >= model.eta:
        return 0.0

    def phi(tau: np.ndarray) -> np.ndarray:
        n_e = nbar / (1.0 - tau)
        return -np.log2(1.0 - tau) - n_e * np.log2(tau) - thermal_entropy(n_e, np)

    return _fading_average(phi, model, 1e-13, tau_min=nbar)


def bound_slow(model: FadingModel, receiver: ReceiverParams, eta_atm: float) -> float:
    """Upper bound for slow (fading-averaged) detection."""
    denom = model.w_lt**2 + model.sigma_p2
    return min(
        plob(eta_slow(model, receiver, eta_atm)),
        (2.0 / LN2) * receiver.aperture**2 / denom,
    )


# the tight max-range search: first probe, bracket cap and bisection step (m)
Z_LO = 10e3
Z_HI = 1e9
Z_TOL = 1e3


@dataclass(frozen=True)
class MaxRangeResult:
    z_max: float          # meters; 0.0 when no secure range exists
    mode: str
    secure_anywhere: bool


def fresnel_range(waist: float, wavelength: float, aperture: float, n_background: float) -> float:
    """Fresnel-number maximum range pi w0 a_R / (lambda n_B) for background photons n_B."""
    return math.pi * waist * aperture / (wavelength * n_background)


def max_range(build_model: Callable[[float], FadingModel], nbar: float) -> MaxRangeResult:
    """Maximum slant range (m) for secure key distribution at zenith.

    Locates the zero of the thermal-loss upper bound B - T by bisection on
    the geometry supplied by build_model, with the bracket grown
    geometrically from Z_LO up to the cap Z_HI.
    """
    if nbar >= 1.0:
        return MaxRangeResult(0.0, "tight", False)

    def upper_at(z: float) -> float:
        return thermal_upper(nbar, build_model(z))

    if upper_at(Z_LO) <= 0.0:
        return MaxRangeResult(0.0, "tight", False)

    # expand until the bound dies or the cap is reached
    lo, hi = Z_LO, 2.0 * Z_LO
    while hi < Z_HI and upper_at(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    if hi >= Z_HI and upper_at(Z_HI) > 0.0:
        return MaxRangeResult(Z_HI, "tight", True)

    while hi - lo > Z_TOL:
        mid = 0.5 * (lo + hi)
        if upper_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return MaxRangeResult(0.5 * (lo + hi), "tight", True)
