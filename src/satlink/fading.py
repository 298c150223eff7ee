"""Beam-wandering fading statistics.

A Gaussian random walk of the beam centroid (turbulence wander plus pointing
error) maps to a Weibull-type law for the instantaneous transmissivity tau,
supported on (0, eta) where eta is the perfectly-aligned transmissivity.
The shape/scale parameters (gamma, r0) follow from the short-term spot size
through modified-Bessel geometry factors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import atmosphere, geometry, turbulence
from ._special import i0e, i1e
from .atmosphere import ExtinctionModel
from .beam import BeamParams, ReceiverParams
from .errors import NumericalError
from .turbulence import TurbulenceProfile

# Elements per block where a pass over many samples runs in pieces: 64 Ki
# doubles (512 KiB), so that a block and its temporaries stay in cache
BLOCK = 1 << 16

# Sorted samples per segment of the KS statistic: the law is taken at one
# sample in STRIDE, then inside the few segments that can hold the largest
# deviation
STRIDE = 32
# Slack on a segment's deviation bound, far above the few ulps by which
# numpy's expm1 can break the law's monotonicity on [0, 1]
KS_MARGIN = 1e-12


def pointing_variance(z: float, error_rad: float) -> float:
    """Centroid variance (m^2) from a transmitter pointing error in radians."""
    return math.pow(error_rad * z, 2)


def bessel_f0(x: float) -> float:
    """f0(x) = 1 / (1 - exp(-2x) I0(2x)); the denominator ~ 2x rounds to 0 as x -> 0."""
    d = 1.0 - i0e(2.0 * x)
    if d <= 0.0:
        raise NumericalError(f"degenerate fading geometry: f0 is infinite at x={x:.6g}")
    return 1.0 / d


def bessel_f1(x: float) -> float:
    """f1(x) = exp(-2x) I1(2x)."""
    return i1e(2.0 * x)


def fading_params(eta_st: float, eta_st_far: float, aperture: float) -> tuple[float, float]:
    """Weibull shape gamma and scale r0 from the short-term transmissivities.

    The far-field value eta_st_far = 2 a_R^2 / w_st^2 enters the Bessel
    factors while the exact eta_st enters the logarithm, mirroring how the
    two appear in the wandering law.  In the near field (eta_st_far above
    about 37) eta_st = 1 - exp(-eta_st_far) rounds to 1; f0 -> 1 there and
    the logarithm tends to ln 2, so eta_st = 1 is a valid input.
    """
    if not 0.0 < eta_st <= 1.0:
        raise NumericalError("eta_st must lie in (0, 1]")
    f0 = bessel_f0(eta_st_far)
    f1 = bessel_f1(eta_st_far)
    log_arg = 2.0 * eta_st * f0
    if log_arg <= 1.0:
        raise NumericalError(f"degenerate fading geometry: ln argument {log_arg:.6g} <= 1")
    log_term = math.log(log_arg)
    gamma = 4.0 * eta_st_far * f0 * f1 / log_term
    # a shape gamma -> 0 leaves no finite scale r0 = a_R / log_term^(1/gamma)
    scale = math.pow(log_term, 1.0 / gamma) if gamma > 0.0 else 0.0
    if scale == 0.0:
        raise NumericalError("degenerate fading geometry: no finite Weibull scale r0")
    r0 = aperture / scale
    return gamma, r0


@dataclass(frozen=True)
class FadingModel:
    """Fading-channel state at one link geometry."""

    eta: float          # maximum transmissivity eta_eff * eta_atm * eta_st
    gamma: float        # Weibull shape
    r0: float           # Weibull scale, m
    sigma2: float       # total wander variance sigma_P^2 + sigma_TB^2, m^2
    eta_atm: float      # the extinction factor of eta

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise NumericalError("eta must lie in (0, 1)")
        if self.gamma <= 0 or self.r0 <= 0 or self.sigma2 < 0:
            raise NumericalError("invalid fading parameters")

    @property
    def spread(self) -> float:
        """The exponent prefactor r0^2 / (2 sigma^2); inf without wander (sigma^2 = 0)."""
        if self.sigma2 > 0.0:
            return math.pow(self.r0, 2) / (2.0 * self.sigma2)
        return math.inf


def fading_model(
    h: float,
    theta: float,
    beam: BeamParams,
    receiver: ReceiverParams,
    profile: TurbulenceProfile,
    direction: str,
    extinction: ExtinctionModel,
    pointing_error: float,
) -> FadingModel:
    """Assemble the fading-channel state for a satellite at (h, theta).

    Strong scintillation (saturated Rytov variance >= 1, e.g. worst-case
    day conditions at large zenith angles) does not abort the computation
    but raises a validity warning, as does a marginal Yura condition in
    spot_sizes.
    """
    # the slant range first: it rejects zenith angles beyond pi/2, where
    # sec(theta) < 0 has no Rytov variance
    z = geometry.slant_range(h, theta)
    rytov = turbulence.rytov_saturated(theta, beam.wavenumber, profile)
    if rytov >= 1.0:
        warnings.warn(
            f"Rytov variance {rytov:.2f} >= 1 at theta={theta:.2f}:"
            " outside the weak-turbulence window, treat results as indicative",
            stacklevel=2,
        )
    spots = turbulence.spot_sizes(z, theta, beam, profile, direction, pointing_variance(z, pointing_error))
    eta_st_far = 2.0 * receiver.aperture**2 / math.pow(spots.w_st, 2)
    eta_st = -math.expm1(-eta_st_far)
    gamma, r0 = fading_params(eta_st, eta_st_far, receiver.aperture)
    eta_atm = atmosphere.eta_atm(h, theta, extinction)
    return FadingModel(
        eta=receiver.efficiency * eta_atm * eta_st,
        gamma=gamma,
        r0=r0,
        sigma2=spots.sigma2,
        eta_atm=eta_atm,
    )


def fading_cdf(tau: float, model: FadingModel) -> float:
    """P(transmissivity <= tau); exact via the Gaussian-walk substitution."""
    if not 0.0 < tau < model.eta:
        return 0.0 if tau <= 0.0 else 1.0
    return math.exp(-model.spread * math.pow(math.log(model.eta / tau), 2.0 / model.gamma))


def p_threshold(eta_th: float, model: FadingModel) -> float:
    """Post-selection probability P(tau > eta_th).

    The integral of the density over (eta_th, eta) reduces exactly to an
    exponential in the substituted variable, so no quadrature is needed.
    """
    if eta_th < 0 or eta_th >= model.eta:
        raise NumericalError("threshold must lie in [0, eta)")
    return 1.0 - fading_cdf(eta_th, model)


def sample_radius2(model: FadingModel, n: int, seed: int):
    """Draw n squared centroid deflections r^2; deterministic for a fixed seed.

    r^2 = x^2 + y^2 with x, y zero-mean Gaussians of variance sigma^2: the n
    values of x, then the n of y, are the stream of rng.normal(0, sigma,
    (2, n)) on default_rng(seed).  x is drawn whole, and is the array
    returned.  y is drawn BLOCK values at a time; while a block of x is in
    cache it takes every step in place: * sigma, squared, + (sigma y)^2.  So
    the only n-element array is the result, and it is swept from memory once.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    sigma = math.sqrt(model.sigma2)
    x = rng.standard_normal(n)
    y = np.empty(min(n, BLOCK))
    for lo in range(0, n, BLOCK):
        xb = x[lo:lo + BLOCK]
        xb *= sigma
        xb *= xb
        yb = rng.standard_normal(out=y[:len(xb)])
        yb *= sigma
        yb *= yb
        xb += yb
    return x


def radius2_cdf(v, model: FadingModel):
    """P(r^2 <= v) = 1 - exp(-v / 2 sigma^2), the law of sample_radius2 where
    the model has wander (sigma^2 > 0)."""
    import numpy as np

    return -np.expm1(-v / (2.0 * model.sigma2))


def _deviation(cdf, i, n: int):
    """|G - empirical CDF| at sorted sample i, where the empirical CDF steps
    from i / n to (i + 1) / n; cdf is the law G there."""
    import numpy as np

    return np.maximum((i + 1) / n - cdf, cdf - i / n)


def sorted_radius2_statistics(r2, model: FadingModel, edges):
    """(KS distance of sorted squared radii from their law G, radius2_cdf; the
    counts of the transmissivities tau(r) in the bins of tau edges as
    np.histogram counts them: [lo, hi), the last bin [lo, hi]).

    tau falls as r grows, so the sorted r^2 fix both.  In exact arithmetic
    the KS distance of r^2 from G is that of tau from fading_cdf, and it is
    free of tau's rounding near eta.  A tau edge e maps to
    r^2(e) = r0^2 ln(eta / e)^(2 / gamma), and tau in [lo, hi) is r^2 in
    (r^2(hi), r^2(lo)]; the closed last bin also holds r^2 = 0, where tau = eta.

    G is non-decreasing on sorted samples, so it is taken at every STRIDE-th
    sample and the last, the knots, and then only inside the segments between
    knots that can hold the largest deviation.  Over a segment [a, b),
    G_a <= G_k <= G_b bounds the deviation by max(b / n - G_a, G_b - a / n);
    the knots' own deviations are a lower bound on the statistic.  A segment
    is taken when its bound comes within KS_MARGIN of that, which covers the
    ulp-level non-monotonicity of expm1.  Every deviation is the same double
    the all-samples pass computes, so the statistic is too.
    """
    import numpy as np

    inside = edges > 0.0
    log_ratio = np.log(model.eta / np.where(inside, edges, model.eta))
    bounds = np.where(inside, model.r0**2 * log_ratio**(2.0 / model.gamma), math.inf)
    counts = -np.diff(np.concatenate((
        r2.searchsorted(bounds[:-1], "right"),
        r2.searchsorted(bounds[-1:], "left"),
    )))
    if model.sigma2 == 0.0:
        return 0.0, counts  # every r^2 is 0, the law's point mass: the empirical law is the law
    n = len(r2)
    knots = np.append(np.arange(0, n - 1, STRIDE), n - 1)
    cdf = radius2_cdf(r2[knots], model)
    ks = np.max(_deviation(cdf, knots, n))
    a, b = knots[:-1], knots[1:]
    bound = np.maximum(b / n - cdf[:-1], cdf[1:] - a / n)
    inner = (a[bound + KS_MARGIN > ks, None] + np.arange(STRIDE)).ravel()
    inner = inner[inner < n]  # the last segment may be shorter
    ks = np.max(_deviation(radius2_cdf(r2[inner], model), inner, n), initial=ks)
    return float(ks), counts
