"""Beam-wandering fading statistics.

A Gaussian random walk of the beam centroid (turbulence wander plus pointing
error) maps to a Weibull-type law for the instantaneous transmissivity tau,
supported on (0, eta) where eta is the perfectly-aligned transmissivity:
P(tau <= t) = exp(-s ln(eta / t)^(2 / gamma)) (Vasylyev, Semenov & Vogel,
PRL 108, 220501, 2012).  The shape gamma and the Weibull scale r0 follow from
the short-term spot size through modified-Bessel geometry factors; the
spread s = r0^2 / (2 sigma^2) sets the law against the wander variance
sigma^2.  A model holds eta, gamma and s, all that the law needs.

In the law's variable v = r^2 / sigma^2 of a centroid deflection r, the
transmissivity is tau = eta exp(-(v / 2s)^(gamma / 2)), and v = x^2 + y^2 of
two standard normals x, y, whatever the model: validate-mc draws v.
"""

from __future__ import annotations

import math

from . import atmosphere, geometry, turbulence
from ._special import i0e, i1e
from .atmosphere import ExtinctionModel
from .beam import BeamParams, ReceiverParams
from .domain import Record
from .errors import NumericalError, guard

# Elements per block where a pass over many samples runs in pieces: 64 Ki
# doubles (512 KiB), so that a block and its temporaries stay in cache
BLOCK = 1 << 16
# Normals per segment of sample_v's stream, and the helper's extra normals at
# a segment's start, where the stream lies about 2.2 % of a segment past the
# advance
SEGMENT = 2 * BLOCK
SLACK = SEGMENT // 32 + 256

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


class FadingModel(Record):
    """Fading-channel state at one link geometry."""

    eta: float          # maximum transmissivity eta_eff * eta_atm * eta_st
    gamma: float        # Weibull shape
    spread: float       # s = r0^2 / (2 sigma^2): inf without wander, 0 for an infinite variance
    eta_atm: float      # the extinction factor of eta

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise NumericalError("eta must lie in (0, 1)")
        if self.gamma <= 0 or self.spread < 0:
            raise NumericalError("invalid fading parameters")


def fading_model(
    h: float,
    theta: float,
    beam: BeamParams,
    receiver: ReceiverParams,
    profile: str,
    direction: str,
    extinction: ExtinctionModel,
    pointing_error: float,
) -> FadingModel:
    """Assemble the fading-channel state for a satellite at (h, theta).

    profile names the turbulence profile, a key of turbulence.PROFILES.
    Strong scintillation (saturated Rytov variance >= 1, e.g. worst-case
    day conditions at large zenith angles) does not abort the computation
    but fires the validity guard fading.rytov (errors.GUARDS), as a marginal
    Yura condition in spot_sizes fires turbulence.yura.
    """
    # the slant range first: it rejects zenith angles beyond pi/2, where
    # sec(theta) < 0 has no Rytov variance
    z = geometry.slant_range(h, theta)
    rytov = turbulence.rytov_saturated(theta, beam.wavenumber, profile)
    if rytov >= 1.0:
        guard("fading.rytov", f"Rytov variance {rytov:.3g} >= 1 at theta={theta:.2f}:"
              " outside the weak-turbulence window, treat results as indicative")
    spots = turbulence.spot_sizes(z, theta, beam, profile, direction, pointing_variance(z, pointing_error))
    eta_st_far = 2.0 * receiver.aperture**2 / math.pow(spots.w_st, 2)
    eta_st = -math.expm1(-eta_st_far)
    gamma, r0 = fading_params(eta_st, eta_st_far, receiver.aperture)
    eta_atm = atmosphere.eta_atm(h, theta, extinction)
    return FadingModel(
        eta=receiver.efficiency * eta_atm * eta_st,
        gamma=gamma,
        spread=math.pow(r0, 2) / (2.0 * spots.sigma2) if spots.sigma2 > 0.0 else math.inf,
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


def _draw_ahead(state, out, found) -> None:
    """Fill out with normals from a PCG64 at state advanced by len(out) - SLACK
    words; append to found its state after SLACK normals, then the generator.

    A normal takes at least one word, so the advance is a lower bound on
    where the stream's next segment starts, and the stream lies a little way
    into out (about 2.2 % of the advance).
    """
    import numpy as np

    bitgen = np.random.PCG64()
    bitgen.state = state
    bitgen.advance(len(out) - SLACK)
    rng = np.random.Generator(bitgen)
    rng.standard_normal(out=out[:SLACK])
    found.append(bitgen.state)
    rng.standard_normal(out=out[SLACK:])
    found.append(rng)


def _fold(v, p: int, values) -> None:
    """Square values, the normals at stream positions p, p + 1, ..., into v:
    position i < len(v) sets v[i], position i >= len(v) adds to v[i - len(v)].
    The squares overwrite the values of positions past len(v)."""
    import numpy as np

    n = len(v)
    k = min(max(n - p, 0), len(values))
    np.square(values[:k], out=v[p:p + k])
    if k < len(values):
        y = np.square(values[k:], out=values[k:])
        v[p + k - n:p + len(values) - n] += y


def sample_v(n: int, seed: int):
    """Draw n values of the law's variable v = x^2 + y^2, x and y standard
    normals; deterministic for a fixed seed.

    The n values of x, then the n of y, are the stream of
    rng.standard_normal((2, n)) on default_rng(seed), and v holds the doubles
    of that array squared and summed, however the rounds below fall.

    The stream is drawn in rounds on two threads.  The calling thread holds
    the exact generator and draws q <= SEGMENT normals, while a helper draws
    q + SLACK from the same state advanced by q words (_draw_ahead).  The
    calling thread finds its next normal among the helper's first SLACK, at
    j, and draws SLACK - j itself.  If its state then equals the helper's
    after SLACK normals, both stand at the same word: the helper's last q
    normals are the stream's next, and its generator carries on.  Otherwise
    the round ends at the calling thread's own draws: a miss costs time,
    never a value.

    The rounds hold two buffers of SEGMENT + SLACK doubles (2.2 MB) beside v.
    The calling thread draws alone where the process may run on one CPU (a
    helper there only slows the draw), and for the last normals of the
    stream, fewer than 2 BLOCK + SLACK.
    """
    import os
    import threading

    import numpy as np

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity set on this OS
        cpus = os.cpu_count() or 1
    v = np.empty(n)
    rng = np.random.default_rng(seed)
    own = np.empty(min(2 * n, SEGMENT + SLACK))
    ahead = np.empty(SEGMENT + SLACK) if cpus > 1 and 2 * n >= 2 * BLOCK + SLACK else None
    p = 0
    while p < 2 * n:
        q = min(SEGMENT, (2 * n - p - SLACK) // 2)
        if ahead is None or q < BLOCK:
            q = min(SEGMENT, 2 * n - p)
            _fold(v, p, rng.standard_normal(out=own[:q]))
            p += q
            continue
        found = []
        state = rng.bit_generator.state
        helper = threading.Thread(target=_draw_ahead, args=(state, ahead[:q + SLACK], found))
        helper.start()
        try:
            _fold(v, p, rng.standard_normal(out=own[:q]))
            p += q
            helper.join()
            rng.standard_normal(out=own[:1])
            j = np.flatnonzero(ahead[:SLACK] == own[0])
            m = SLACK - int(j[0]) if len(j) else 1
            rng.standard_normal(out=own[1:m])
            _fold(v, p, own[:m])
            p += m
            if len(j) and len(found) == 2 and rng.bit_generator.state == found[0]:
                _fold(v, p, ahead[SLACK:q + SLACK])
                p += q
                rng = found[1]
        finally:
            helper.join()
    return v


def v_cdf(v):
    """P(v' <= v) = 1 - exp(-v / 2), the law of sample_v: chi-squared with two degrees of freedom."""
    import numpy as np

    return -np.expm1(-v / 2.0)


def _deviation(cdf, i, n: int):
    """|G - empirical CDF| at sorted sample i, where the empirical CDF steps
    from i / n to (i + 1) / n; cdf is the law G there."""
    import numpy as np

    return np.maximum((i + 1) / n - cdf, cdf - i / n)


def sorted_v_statistics(v, model: FadingModel, edges):
    """(KS distance of sorted v from their law G, v_cdf; the counts of the
    transmissivities tau(v) in the bins of tau edges as np.histogram counts
    them: [lo, hi), the last bin [lo, hi]).

    tau falls as v grows, so the sorted v fix both.  In exact arithmetic the
    KS distance of v from G is that of tau from fading_cdf, and it is free of
    tau's rounding near eta.  A tau edge e maps to
    v(e) = 2 s ln(eta / e)^(2 / gamma), and tau in [lo, hi) is v in
    (v(hi), v(lo)]; the closed last bin also holds v = 0, where tau = eta.
    An infinite variance (s = 0) maps every edge above 0 to v = 0, so every
    tau is 0, in the first bin.  Without wander (s = inf) every tau is eta,
    the law's point mass, in the last bin, and the empirical law is the law.

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

    n = len(v)
    if model.spread == math.inf:
        return 0.0, np.append(np.zeros(len(edges) - 2, np.intp), n)
    inside = edges > 0.0
    log_ratio = np.log(model.eta / np.where(inside, edges, model.eta))
    bounds = np.where(inside, 2.0 * model.spread * log_ratio**(2.0 / model.gamma), math.inf)
    counts = -np.diff(np.concatenate((
        v.searchsorted(bounds[:-1], "right"),
        v.searchsorted(bounds[-1:], "left"),
    )))
    knots = np.append(np.arange(0, n - 1, STRIDE), n - 1)
    cdf = v_cdf(v[knots])
    ks = np.max(_deviation(cdf, knots, n))
    a, b = knots[:-1], knots[1:]
    bound = np.maximum(b / n - cdf[:-1], cdf[1:] - a / n)
    inner = (a[bound + KS_MARGIN > ks, None] + np.arange(STRIDE)).ravel()
    inner = inner[inner < n]  # the last segment may be shorter
    ks = np.max(_deviation(v_cdf(v[inner]), inner, n), initial=ks)
    return float(ks), counts
