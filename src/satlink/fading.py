"""Beam-wandering fading statistics.

A Gaussian random walk of the beam centroid (turbulence wander plus pointing
error) maps to a Weibull-type law for the instantaneous transmissivity tau,
supported on (0, eta) where eta is the perfectly-aligned transmissivity.
The shape/scale parameters (gamma, r0) follow from the short-term spot size
through modified-Bessel geometry factors.  The channel state is built at one
geometry (floats) or at every point of a sweep (1-D arrays) in one call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import atmosphere, geometry, turbulence
from ._array import all_, any_, at_first, each, mathof, take, where
from ._special import i0e, i1e
from .atmosphere import DEFAULT_EXTINCTION, ExtinctionModel
from .beam import BeamParams, ReceiverParams
from .turbulence import SpotSizes, TurbulenceProfile


def pointing_variance(z, error_rad: float = 1e-6):
    """Centroid variance (m^2) from a transmitter pointing error in radians."""
    if any_(z < 0):
        raise ValueError("distance must be non-negative")
    return mathof(z).pow(error_rad * z, 2)


def bessel_f0(x):
    """f0(x) = 1 / (1 - exp(-2x) I0(2x))."""
    if any_(x <= 0):
        raise ValueError("argument must be positive")
    return 1.0 / (1.0 - i0e(2.0 * x))


def bessel_f1(x):
    """f1(x) = exp(-2x) I1(2x)."""
    if any_(x < 0):
        raise ValueError("argument must be non-negative")
    return i1e(2.0 * x)


def fading_params(eta_st, eta_st_far, aperture: float):
    """Weibull shape gamma and scale r0 from the short-term transmissivities.

    The far-field value eta_st_far = 2 a_R^2 / w_st^2 enters the Bessel
    factors while the exact eta_st enters the logarithm, mirroring how the
    two appear in the wandering law.  In the near field (eta_st_far above
    about 37) eta_st = 1 - exp(-eta_st_far) rounds to 1; f0 -> 1 there and
    the logarithm tends to ln 2, so eta_st = 1 is a valid input.
    """
    if not all_((0.0 < eta_st) & (eta_st <= 1.0)):
        raise ValueError("eta_st must lie in (0, 1]")
    if any_(eta_st_far <= 0.0):
        raise ValueError("eta_st_far must be positive")
    f0 = bessel_f0(eta_st_far)
    f1 = bessel_f1(eta_st_far)
    log_arg = 2.0 * eta_st * f0
    degenerate = log_arg <= 1.0
    if any_(degenerate):
        raise ValueError(
            f"degenerate fading geometry: ln argument {at_first(degenerate, log_arg):.6g} <= 1"
        )
    m = mathof(log_arg)
    log_term = m.log(log_arg)
    gamma = 4.0 * eta_st_far * f0 * f1 / log_term
    r0 = aperture / m.pow(log_term, 1.0 / gamma)
    return gamma, r0


@dataclass(frozen=True)
class FadingModel:
    """Fading-channel state at one link geometry, or at each point of a sweep.

    Each field is a float, or a 1-D array over the points of a sweep.
    """

    eta: float          # maximum transmissivity eta_eff * eta_atm * eta_st
    eta_st: float
    eta_st_far: float
    gamma: float        # Weibull shape
    r0: float           # Weibull scale, m
    sigma2: float       # total wander variance sigma_P^2 + sigma_TB^2, m^2
    sigma_p2: float
    sigma_tb2: float
    w_st: float
    w_lt: float
    eta_atm: float | None = None  # the extinction factor of eta, set by fading_model

    def __post_init__(self):
        if not all_((0.0 < self.eta) & (self.eta < 1.0)):
            raise ValueError("eta must lie in (0, 1)")
        if any_((self.gamma <= 0) | (self.r0 <= 0) | (self.sigma2 < 0)):
            raise ValueError("invalid fading parameters")

    @property
    def spread(self):
        """The exponent prefactor r0^2 / (2 sigma^2)."""
        return mathof(self.r0).pow(self.r0, 2) / (2.0 * self.sigma2)

    def select(self, mask) -> "FadingModel":
        """The model at the points where mask holds; a one-point model as it is."""
        if not isinstance(mask, np.ndarray):
            return self
        return FadingModel(**{f.name: take(mask, getattr(self, f.name)) for f in fields(self)})


def fading_model(
    h,
    theta,
    beam: BeamParams,
    receiver: ReceiverParams,
    profile: TurbulenceProfile,
    direction: str,
    extinction: ExtinctionModel = DEFAULT_EXTINCTION,
    pointing_error: float = 1e-6,
) -> FadingModel:
    """Assemble the fading-channel state for a satellite at (h, theta).

    h and theta are floats, or 1-D arrays that give the state at each of
    their points.  Strong scintillation (saturated Rytov variance >= 1, e.g.
    worst-case day conditions at large zenith angles) does not abort the
    computation but raises a validity warning, once per such point.
    """
    rytov = turbulence.rytov_saturated(theta, beam.wavenumber, profile)
    for value, angle in each(rytov >= 1.0, rytov, theta):
        warnings.warn(
            f"Rytov variance {value:.2f} >= 1 at theta={angle:.2f}:"
            " outside the weak-turbulence window, treat results as indicative",
            stacklevel=2,
        )
    z = geometry.slant_range(h, theta)
    spots: SpotSizes = turbulence.spot_sizes(
        z, theta, beam, profile, direction,
        pointing_sigma2=pointing_variance(z, pointing_error),
    )
    m = mathof(spots.w_st)
    eta_st_far = 2.0 * receiver.aperture**2 / m.pow(spots.w_st, 2)
    eta_st = -m.expm1(-eta_st_far)
    gamma, r0 = fading_params(eta_st, eta_st_far, receiver.aperture)
    eta_atm = atmosphere.eta_atm(h, theta, extinction)
    return FadingModel(
        eta=receiver.efficiency * eta_atm * eta_st,
        eta_st=eta_st,
        eta_st_far=eta_st_far,
        gamma=gamma,
        r0=r0,
        sigma2=spots.sigma2,
        sigma_p2=spots.sigma_p2,
        sigma_tb2=spots.sigma_tb2,
        w_st=spots.w_st,
        w_lt=spots.w_lt,
        eta_atm=eta_atm,
    )


def eta_short_term(
    z: float,
    theta: float,
    beam: BeamParams,
    receiver: ReceiverParams,
    profile: TurbulenceProfile,
    direction: str,
) -> float:
    """Short-term transmissivity 1 - exp(-2 a_R^2 / w_st^2); <= eta_diffraction."""
    spots = turbulence.spot_sizes(z, theta, beam, profile, direction)
    return -math.expm1(-2.0 * receiver.aperture**2 / spots.w_st**2)


def fading_pdf(tau: float, model: FadingModel) -> float:
    """Probability density of the instantaneous transmissivity on (0, eta).

    Returns 0.0 outside the support so the function can sit directly inside
    a quadrature.
    """
    if tau <= 0.0 or tau >= model.eta:
        return 0.0
    log_ratio = math.log(model.eta / tau)
    u = log_ratio ** (2.0 / model.gamma)
    return (
        model.r0**2
        / (model.gamma * model.sigma2 * tau)
        * log_ratio ** (2.0 / model.gamma - 1.0)
        * math.exp(-model.spread * u)
    )


def fading_cdf(tau, model: FadingModel):
    """P(transmissivity <= tau); exact via the Gaussian-walk substitution.

    tau and the model's fields are floats, giving a float, or arrays, giving
    an array of their broadcast shape.
    """
    inside = (tau > 0.0) & (tau < model.eta)
    # placeholder eta/e keeps the logarithm finite outside the support
    ratio = model.eta / where(inside, tau, model.eta / math.e)
    # numpy's ufuncs for many tau of one model (validate-mc samples a
    # million); math at every point of a sweep, as for one point alone
    m = np if isinstance(model.eta, float) and isinstance(tau, np.ndarray) else mathof(ratio)
    cdf = m.exp(-model.spread * m.pow(m.log(ratio), 2.0 / model.gamma))
    return where(inside, cdf, where(tau <= 0.0, 0.0, 1.0))


def p_threshold(eta_th, model: FadingModel):
    """Post-selection probability P(tau > eta_th).

    The integral of the density over (eta_th, eta) reduces exactly to an
    exponential in the substituted variable, so no quadrature is needed.
    """
    if any_((eta_th < 0) | (eta_th >= model.eta)):
        raise ValueError("threshold must lie in [0, eta)")
    return 1.0 - fading_cdf(eta_th, model)


def p_slot(k: int, delta_tau: float, model: FadingModel) -> float:
    """Probability that tau falls in the lattice slot [k*dt, (k+1)*dt]."""
    if k < 0 or delta_tau <= 0:
        raise ValueError("need k >= 0 and delta_tau > 0")
    lo = min(k * delta_tau, model.eta)
    hi = min((k + 1) * delta_tau, model.eta)
    return fading_cdf(hi, model) - fading_cdf(lo, model)


def sample_fading(model: FadingModel, n: int, seed: int) -> np.ndarray:
    """Draw n instantaneous transmissivities; deterministic for a fixed seed.

    Each sample deflects the centroid by r = |(x, y)| with x, y zero-mean
    Gaussians of variance sigma^2, then maps tau = eta * exp(-(r/r0)^gamma).
    """
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(model.sigma2)
    xy = rng.normal(0.0, sigma, size=(2, n))
    r = np.hypot(xy[0], xy[1])
    return model.eta * np.exp(-((r / model.r0) ** model.gamma))


def eta_slow(model: FadingModel, receiver: ReceiverParams, eta_atm: float) -> float:
    """Long-acquisition transmissivity averaged over the wandering process."""
    denom = model.w_lt**2 + model.sigma_p2
    return receiver.efficiency * eta_atm * -math.expm1(-2.0 * receiver.aperture**2 / denom)
