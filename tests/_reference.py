"""Reference code the tests hold satlink to; no satlink command reaches it.

Three kinds of code live here:

- a copy of a record with some fields changed (replace), which only tests
  make;
- oracles and cross-checks, independent or slower spellings of what the
  package computes: the altitude along a line of sight on numpy arrays
  (slant_range's inverse) and the line of sight by tanh-sinh on numpy in
  the slant range, fading averages by direct quadrature (the lower bound
  with its entropy penalty averaged over fading among them), the
  beam-wandering factor Delta and the thermal upper bound of one model,
  the tight max-range kernel with a value list per row and its sums apart,
  C_n^2 on arrays of altitudes and its integrals by panels below 100 km, the
  finite-altitude Rytov variance, the spherical-wave coherence length,
  far-field forms, slow-detection bounds, a simulated pilot estimation,
  the transmissivity sampler on sample_v (validate-mc draws the law's
  variable v alone) with its hypot and whole-array spellings, the v of
  rng.standard_normal and their law, the all-samples KS statistic and
  the twice-sorting validate-mc body that the package's in-place, blocked
  and bounded ones replaced;
- paper side paths whose tests pin a published value: the zenith, secant
  and refracted extinction, the fading density, the fixed-loss bound V
  (a second spelling of the column Scenario.bounds_at computes), the
  unfaded composable rate, the speckle count, the uplink planar
  coefficients, the general-attack parameter set, the local-oscillator
  noise and the (mu, phi) protocol optimizer with its golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from satlink import atmosphere, cli, geometry
from satlink._integrate import Quadrature, tanh_sinh_rows
from satlink.atmosphere import PATH_TOP_M, ExtinctionModel
from satlink.beam import LN2, BeamParams, ReceiverParams, diffraction_waist, eta_diffraction, plob
from satlink.bounds import _wander_batch, entropy_h, loss_bounds, thermal_upper
from satlink.cvqkd import (
    KeyRate,
    ProtocolParams,
    _finite_size_rate,
    asymptotic_rate,
    worst_case_nbar,
)
from satlink.domain import Record
from satlink.fading import BLOCK, FadingModel, fading_cdf, pointing_variance, sample_v
from satlink.scenario import Scenario
from satlink.turbulence import SpotSizes, i_infty, spot_sizes

# the scenario defaults of the extinction and the pointing error, which the
# channel functions take from their caller
EXTINCTION = ExtinctionModel()
POINTING_ERROR = Scenario.pointing_error

# -- records -----------------------------------------------------------------


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with the fields in `changes` set, checked as a new record."""
    return type(record)(**dict(zip(record._fields, record._key), **changes))


# -- geometry and extinction -------------------------------------------------

SURFACE_REFRACTIVE_INDEX = 1.00027


def true_zenith(theta_app: float, n0: float = SURFACE_REFRACTIVE_INDEX) -> float:
    """True zenith angle for an apparent (Snell-refracted) angle."""
    s = n0 * math.sin(abs(theta_app))
    if s > 1.0 + 1e-15:
        raise ValueError(f"apparent angle {theta_app} beyond the refracted horizon")
    return math.copysign(math.asin(min(1.0, s)), theta_app)


def unit_elongation(theta_app: float) -> float:
    """Default elongation model: no optical-path lengthening."""
    return 1.0


def path_altitude(z, cos_theta):
    """Altitude (m) at slant range z along a line of sight with cos(zenith angle) cos_theta.

    z is a float or an array of quadrature nodes.
    """
    # sqrt(R^2 + rise) - R without cancellation, so h > 0 for any z > 0
    rise = z * z + 2.0 * z * geometry.R_EARTH * cos_theta
    return rise / (np.sqrt(geometry.R_EARTH**2 + rise) + geometry.R_EARTH)


def tanh_sinh_numpy(f, a: float, b: float, *args, abs_tol: float = 0.0) -> list[Quadrature]:
    """tanh_sinh_rows on an elementwise numpy integrand f(x, *args) of the nodes x, a row
    per element of the args (floats or 1-D arrays), each as a (P, 1) column."""
    columns = [np.reshape(v, (-1, 1)) for v in args]

    def sums(nodes):
        with np.errstate(all="ignore"):  # inf and nan fail the comparison
            return np.atleast_1d(np.vecdot(f(nodes.arrays[0], *columns), nodes.arrays[1])).tolist()

    return tanh_sinh_rows(sums, a, b, abs_tol=abs_tol)


def _extinction(y, cos_theta, h_scale):
    """exp(-h / h_scale) at the slant ranges y, an array of quadrature nodes."""
    return np.exp(-path_altitude(y, cos_theta) / h_scale)


def line_of_sight(h: float, theta: float, model: ExtinctionModel = EXTINCTION) -> float:
    """atmosphere._line_of_sight by tanh-sinh on numpy in the slant range, on every path."""
    path = geometry.slant_range(min(h, PATH_TOP_M), theta)
    return tanh_sinh_numpy(_extinction, 0.0, path, math.cos(abs(theta)), model.h_scale)[0].value


def altitude_from_slant(z: float, theta: float) -> float:
    """Satellite altitude (m) given slant range z and zenith angle theta."""
    if z < 0:
        raise ValueError("slant range must be non-negative")
    if abs(theta) > math.pi / 2:
        raise ValueError(f"zenith angle {theta} outside [-pi/2, pi/2]")
    return float(path_altitude(z, math.cos(abs(theta))))


def eta_atm_zenith(h: float, model: ExtinctionModel = EXTINCTION) -> float:
    """Vertical-path transmissivity up to altitude h (closed form)."""
    if h < 0:
        raise ValueError("altitude must be non-negative")
    return math.exp(model.alpha0 * model.h_scale * (math.exp(-h / model.h_scale) - 1.0))


def eta_atm_secant(
    h: float, theta: float, model: ExtinctionModel = EXTINCTION
) -> float:
    """Secant-law approximation [eta_zenith(inf)]^(sec theta); good for h >= 30 km."""
    del h  # the saturated zenith value is used regardless of altitude
    return math.exp(-model.alpha0 * model.h_scale / math.cos(abs(theta)))


def eta_atm_zenith_inf(model: ExtinctionModel = EXTINCTION) -> float:
    """Vertical transmissivity through the whole atmosphere, exp(-alpha0*h_scale)."""
    return math.exp(-model.alpha0 * model.h_scale)


def eta_atm_refracted(
    h: float,
    theta_app: float,
    elongation: Callable[[float], float] = unit_elongation,
    model: ExtinctionModel = EXTINCTION,
) -> float:
    """Slant transmissivity with Snell bending and optional path elongation.

    The apparent angle is converted to the true angle for the geometry while
    the path length is stretched by elongation(theta_app).
    """
    if h < 0:
        raise ValueError("altitude must be non-negative")
    if h == 0:
        return 1.0
    factor = elongation(theta_app)
    if factor < 1.0:
        raise ValueError("elongation factor must be >= 1")
    theta = true_zenith(theta_app)
    # the path stretched by factor: y = factor * y' with y' along the true one
    return math.exp(-model.alpha0 * factor * line_of_sight(h, theta, model))


def eta_diffraction_far(z, beam: BeamParams, aperture: float):
    """Far-field approximation 2 a_R^2 / w_d^2 (valid when << 1)."""
    w = diffraction_waist(z, beam)
    return 2.0 * aperture**2 / math.pow(w, 2)


def eta_total(
    h: float,
    theta: float,
    beam: BeamParams,
    receiver: ReceiverParams,
    extinction: ExtinctionModel = EXTINCTION,
) -> float:
    """Fixed point-to-point loss: setup efficiency x extinction x diffraction."""
    z = geometry.slant_range(h, theta)
    return (
        receiver.efficiency
        * atmosphere.eta_atm(h, theta, extinction)
        * eta_diffraction(z, beam, receiver.aperture)
    )


def bound_v(
    h: float,
    theta: float,
    beam: BeamParams,
    receiver: ReceiverParams,
    extinction: ExtinctionModel = EXTINCTION,
) -> float:
    """Key-rate upper bound -log2(1 - eta_total), bits per use."""
    return plob(eta_total(h, theta, beam, receiver, extinction))


# -- turbulence --------------------------------------------------------------

# the finite-altitude profile integrals stop here, where C_n^2 has fallen
# exponentially above the tropopause
PROFILE_TOP_M = 100e3
# panel edges that resolve the 100 m ground scale and the 10 km bump
LAYER_EDGES_M = (0.0, 2e3, 3e4, PROFILE_TOP_M)


# the parameters of each named profile, apart from satlink.turbulence's terms:
# Hufnagel-Valley's ground value C_n^2(0) (m^(-2/3)) and windspeed (m/s), and
# Hufnagel-Stanley's c1 and c2 in c1 h^(-1/3) exp(-h / c2)
HUFNAGEL_VALLEY = {"hv-night": (1.7e-14, 21.0), "hv-day": (2.75e-14, 21.0), "hv-worst-day": (2.75e-14, 57.0)}
HUFNAGEL_STANLEY = {"hufnagel-stanley": (4.2e-14, 3200.0)}


def hufnagel_valley(h, a_ground: float, windspeed: float):
    """The Hufnagel-Valley C_n^2 (m^(-2/3)) of ground value a_ground and windspeed at altitude h."""
    return (
        5.94e-53 * (windspeed / 27.0) ** 2 * h**10 * np.exp(-h / 1000.0)
        + 2.7e-16 * np.exp(-h / 1500.0)
        + a_ground * np.exp(-h / 100.0)
    )


def cn2(h, profile: str):
    """The named profile's structure constant C_n^2 (m^(-2/3)) at an altitude or an array of them
    (quadrature nodes), spelled from its parameters."""
    if profile in HUFNAGEL_STANLEY:
        if np.min(h) <= 0:
            raise ValueError("Hufnagel-Stanley profile is singular at h <= 0")
        c1, c2 = HUFNAGEL_STANLEY[profile]
        return c1 * h ** (-1.0 / 3.0) * np.exp(-h / c2)
    return hufnagel_valley(h, *HUFNAGEL_VALLEY[profile])


def _column(f, edges) -> float:
    """Integral of f over the panels between consecutive edges.

    tanh-sinh on each panel takes the integrable endpoint singularities
    (the Hufnagel-Stanley h^(-1/3), the power-law path weights) as well as
    the smooth Hufnagel-Valley profile.
    """
    return sum(tanh_sinh_numpy(f, a, b)[0].value for a, b in zip(edges, edges[1:]))


def _layer_edges(top: float) -> list[float]:
    """The LAYER_EDGES_M panel edges below top, closed by top."""
    return [e for e in LAYER_EDGES_M if e < top] + [top]


def cn2_avg(h: float, profile: str) -> float:
    """Single-layer average (1/h) * integral of C_n^2 from 0 to h."""
    if h <= 0:
        raise ValueError("layer thickness must be positive")
    edges = _layer_edges(min(h, PROFILE_TOP_M))
    return _column(lambda x: cn2(x, profile), edges) / h


class RytovResult(NamedTuple):
    value: float
    weak: bool  # value < 1 marks the weak-fluctuation regime


def rytov_variance(
    h: float,
    theta: float,
    k: float,
    profile: str,
    direction: str = "down",
) -> RytovResult:
    """Plane-wave Rytov variance for a slant path to altitude h.

    Downlink: 2.25 k^(7/6) h^(5/6) (sec theta)^(11/6) * mu(h) with the
    (xi/h)^(5/6)-weighted profile integral mu.  Uplink differs by the factor
    mu~(h)/mu(h) where mu~ carries an extra (1 - xi/h)^(5/6) weight.
    """
    if h <= 0:
        raise ValueError("altitude must be positive")
    edges = _layer_edges(min(h, PROFILE_TOP_M))
    mu = _column(lambda x: cn2(x, profile) * (x / h) ** (5.0 / 6.0), edges)
    sec = 1.0 / math.cos(abs(theta))
    value = 2.25 * k ** (7.0 / 6.0) * h ** (5.0 / 6.0) * sec ** (11.0 / 6.0) * mu
    if direction == "up":
        mu_tilde = _column(
            lambda x: cn2(x, profile) * (x / h * (1.0 - x / h)) ** (5.0 / 6.0), edges
        )
        value *= mu_tilde / mu
    elif direction != "down":
        raise ValueError("direction must be 'up' or 'down'")
    return RytovResult(value, value < 1.0)


def speckle_count(aperture: float, rho0: float) -> float:
    """Number of short-term speckles across an aperture, 1 + (a_R/rho0)^2."""
    if rho0 <= 0:
        raise ValueError("coherence length must be positive")
    return 1.0 + (aperture / rho0) ** 2


def uplink_coefficients(profile: str) -> tuple[float, float, float]:
    """Planar-approximation spot-size coefficients (a, b, c) for an uplink beam.

    a scales the total turbulent broadening, b the Yura wander fraction and
    c = a*b the centroid-wander variance.
    """
    i_inf = i_infty(profile)
    a = 26.28 * i_inf ** (6.0 / 5.0)
    b = 0.2934 * i_inf ** (-1.0 / 5.0)
    return a, b, a * b


def coherence_length(
    z: float,
    theta: float,
    k: float,
    profile: str,
    direction: str,
) -> float:
    """Spherical-wave coherence length rho_0 over a slant path of length z.

    The (1 - xi/z)^(5/3) spherical weight is applied to the profile sampled
    along the path: uplink sees the dense layers near the transmitter,
    downlink near the receiver.
    """
    if z <= 0:
        raise ValueError("path length must be positive")
    path_top = geometry.slant_range(PROFILE_TOP_M, theta)

    if direction == "up":
        weight = lambda xi: (1.0 - xi / z) ** (5.0 / 3.0)
    elif direction == "down":
        # substituting xi -> z - xi folds the weight onto the near-ground end
        weight = lambda xi: (xi / z) ** (5.0 / 3.0)
    else:
        raise ValueError("direction must be 'up' or 'down'")

    top = min(z, path_top)
    along_path = (geometry.slant_range(e, theta) for e in LAYER_EDGES_M)
    edges = [y for y in along_path if y < top]
    integral = _column(
        lambda xi: weight(xi) * cn2(path_altitude(xi, math.cos(abs(theta))), profile),
        edges + [top],
    )
    return (1.46 * k * k * integral) ** (-3.0 / 5.0)


# -- fading averages and bounds ----------------------------------------------


def model_spot_sizes(
    h: float,
    theta: float,
    beam: BeamParams,
    profile: str,
    direction: str,
    pointing_error: float = POINTING_ERROR,
) -> SpotSizes:
    """The spot sizes and wander variances fading_model takes at (h, theta)."""
    z = geometry.slant_range(h, theta)
    return spot_sizes(z, theta, beam, profile, direction, pointing_variance(z, pointing_error))


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
        2.0 * model.spread
        / (model.gamma * tau)
        * log_ratio ** (2.0 / model.gamma - 1.0)
        * math.exp(-model.spread * u)
    )


def eta_slow(spots: SpotSizes, receiver: ReceiverParams, eta_atm: float) -> float:
    """Long-acquisition transmissivity averaged over the wandering process."""
    denom = spots.w_lt**2 + spots.sigma_p2
    return receiver.efficiency * eta_atm * -math.expm1(-2.0 * receiver.aperture**2 / denom)


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


def fading_average(
    f: Callable[[np.ndarray], np.ndarray],
    model: FadingModel,
    abs_tol: float,
    tau_min: float = 0.0,
) -> float:
    """Average of f(tau) 1[tau > tau_min] over the fading law, at one geometry.

    In u = ln(eta / tau)^(2 / gamma) the density is s exp(-s u) on
    [0, inf); t = exp(-s u) makes it uniform on (0, 1], so that
    <f> = integral over [t_min, 1] of f(eta exp(-(-ln t / s)^(gamma / 2))) dt.
    f picks up a (-ln t)^(gamma/2 - 1) singularity in its derivative at
    t = 1, which tanh-sinh takes.  A cut at tau_min > 0 becomes the lower
    end t_min = exp(-s u_max), so the rule never sees the step.
    """
    s = model.spread
    g = model.gamma / 2.0
    eta = model.eta
    t_min = math.exp(-s * math.log(eta / tau_min) ** (1.0 / g)) if tau_min > 0.0 else 0.0
    return tanh_sinh_numpy(lambda t: f(eta * np.exp(-((-np.log(t) / s) ** g))), t_min, 1.0, abs_tol=abs_tol)[0].value


def node_entropy(x: np.ndarray) -> np.ndarray:
    """The thermal-state entropy h(x) of bounds.entropy_h at quadrature nodes x >= 0, with numpy's log2."""
    return (x + 1.0) * np.log2(x + 1.0) - x * np.log2(x + (x == 0.0))


def average_plob(model: FadingModel) -> float:
    """Direct fading average of -log2(1 - tau); oracle for bound_b."""
    return fading_average(lambda tau: -np.log1p(-tau) / LN2, model, 1e-13)


def wander_delta(eta: float, s: float, gamma: float) -> float:
    """The beam-wandering factor Delta = 1 + (eta / ln(1-eta)) * I of satlink's B at spread s, 1 without wander."""
    if s == math.inf:
        return 1.0
    args = np.array([[s]]), np.array([[gamma / 2.0]]), np.array([[[eta], [eta]]])
    with np.errstate(all="ignore"):
        integral = tanh_sinh_rows(_wander_batch, 0.0, 1.0, *args, abs_tol=1e-12)[0].value
    return 1.0 + eta / math.log1p(-eta) * integral


def wander_rows(t, s, g, etas):
    """The tight max-range kernel before its sums were fused: bounds._wander_batch in
    math at the nodes t, a list of values per eta of etas (one or two)."""
    rate, inv_g, g1, exp, log = 1.0 + s / g, 1.0 / g, g - 1.0, math.exp, math.log
    e1, e2, rows = etas[0], etas[-1], ([], [])
    for u in t:
        p, x = u**g1, 1.0 - log(u) / rate
        low, q, high, e = exp(-s * u) * g * p, exp(p * u), exp(-s * x**inv_g - x) / (rate * u), exp(-x)
        rows[0].append(low / (q - e1) + high / (1.0 - e1 * e))
        rows[1].append(low / (q - e2) + high / (1.0 - e2 * e))
    return rows[: len(etas)]


def wander_sums(nodes, s, g, etas):
    """wander_rows as a tanh_sinh_rows integrand: each row's weighted sum, added
    left to right (sum() compensates its additions from Python 3.12 on)."""
    sums = []
    for row in wander_rows(nodes.x, s, g, etas):
        total = 0.0
        for value, weight in zip(row, nodes.weight):
            total += value * weight
        sums.append(total)
    return sums


def upper_bound(nbar: float, model: FadingModel) -> float:
    """thermal_upper of one model, with its B at eta and at nbar from loss_bounds."""
    return thermal_upper(nbar, model, *loss_bounds([model], nbar)[0])


def thermal_lower_middle(nbar: float, model: FadingModel, b: float) -> float:
    """B - <h(nbar / (1 - tau))> over the fading law, clamped at zero.

    The reverse-coherent-information bound with its entropy penalty averaged
    over fading: at least satlink's thermal_lower, which takes tau at its
    maximum eta, and at most thermal_upper.  b is the model's B.
    """
    if nbar == 0.0:
        return b
    middle = b - fading_average(lambda tau: node_entropy(nbar / (1.0 - tau)), model, 1e-12)
    return max(middle, 0.0)


def average_phi_thermal(nbar: float, model: FadingModel) -> float:
    """Fading average of the thermal-loss upper bound; <= thermal_upper.

    Entanglement-breaking slots (tau <= nbar) contribute nothing.  One
    geometry at a time.
    """
    if nbar >= model.eta:
        return 0.0

    def phi(tau: np.ndarray) -> np.ndarray:
        n_e = nbar / (1.0 - tau)
        return -np.log2(1.0 - tau) - n_e * np.log2(tau) - node_entropy(n_e)

    return fading_average(phi, model, 1e-13, tau_min=nbar)


def bound_slow(spots: SpotSizes, receiver: ReceiverParams, eta_atm: float) -> float:
    """Upper bound for slow (fading-averaged) detection."""
    denom = spots.w_lt**2 + spots.sigma_p2
    return min(
        plob(eta_slow(spots, receiver, eta_atm)),
        (2.0 / LN2) * receiver.aperture**2 / denom,
    )


# -- Monte Carlo validation --------------------------------------------------


def wander_radii(n: int, seed: int) -> np.ndarray:
    """The deflections r = hypot(x, y) in units of sigma, x and y of rng.standard_normal((2, n))."""
    xy = np.random.default_rng(seed).standard_normal((2, n))
    return np.hypot(xy[0], xy[1])


def tau_of_radius(r: np.ndarray, model: FadingModel) -> np.ndarray:
    """The transmissivity eta * exp(-(r / sqrt(2 s))^gamma) at deflection r in units of sigma (r^2 = v)."""
    return model.eta * np.exp(-((r / math.sqrt(2.0 * model.spread)) ** model.gamma))


def sample_fading(model: FadingModel, n: int, seed: int) -> np.ndarray:
    """Draw n instantaneous transmissivities; deterministic for a fixed seed.

    Each sample maps the v of sample_v to tau = eta * exp(-(v / 2s)^(gamma / 2)),
    in place and BLOCK samples at a time: sqrt, / sqrt(2 s), ** gamma,
    negate, exp, * eta.
    """
    tau = sample_v(n, seed)
    scale = math.sqrt(2.0 * model.spread)
    for lo in range(0, n, BLOCK):
        b = tau[lo:lo + BLOCK]
        np.sqrt(b, out=b)
        b /= scale
        b **= model.gamma
        np.negative(b, out=b)
        np.exp(b, out=b)
        b *= model.eta
    return tau


def sample_fading_hypot(model: FadingModel, n: int, seed: int) -> np.ndarray:
    """sample_fading spelled with np.hypot and new arrays at every step."""
    return tau_of_radius(wander_radii(n, seed), model)


def sample_fading_whole(model: FadingModel, n: int, seed: int) -> np.ndarray:
    """sample_fading with y drawn whole: each step in place on all n samples."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    x *= x
    y *= y
    x += y
    np.sqrt(x, out=x)
    x /= math.sqrt(2.0 * model.spread)
    x **= model.gamma
    np.negative(x, out=x)
    np.exp(x, out=x)
    x *= model.eta
    return x


def wander_v(n: int, seed: int) -> np.ndarray:
    """The law's variable v = x^2 + y^2 of rng.standard_normal((2, n))."""
    xy = np.random.default_rng(seed).standard_normal((2, n))
    return xy[0] ** 2 + xy[1] ** 2


def v_law(v: np.ndarray) -> np.ndarray:
    """P(v' <= v) at each v: exponential with mean 2."""
    return -np.expm1(-(v / 2.0))


def ks_statistic_blocks(v: np.ndarray) -> float:
    """The KS distance of sorted v from their law, with the law taken at
    every sample, BLOCK samples per call: the all-samples pass that
    sorted_v_statistics' bounded one replaced."""
    n = len(v)

    def block_max(lo):
        analytic = v_law(v[lo:lo + BLOCK])
        steps = np.arange(lo, lo + len(analytic) + 1) / n
        above = np.max(steps[1:] - analytic)
        analytic -= steps[:-1]  # now G - i / n
        return max(above, np.max(analytic))

    return float(max(block_max(lo) for lo in range(0, n, BLOCK)))


def cmd_validate_mc_sorted_twice(args, scn) -> str:
    """validate-mc's output from a sorted copy of wander_v for the KS
    statistic, and np.histogram of sample_fading_hypot, which sorts the
    transmissivities.  args are those of cli.parse_args, with every option
    converted."""
    h, theta, n, bins, seed = args.h, args.theta, args.samples, args.bins, args.seed
    model = scn.fading_model(h, theta)

    analytic = v_law(np.sort(wander_v(n, seed)))
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    ks = float(np.max(np.maximum(np.abs(steps_hi - analytic), np.abs(analytic - steps_lo))))

    edges = np.linspace(0.0, model.eta, bins + 1)
    counts, _ = np.histogram(sample_fading_hypot(model, n, seed), bins=edges)
    cdf = [fading_cdf(edge, model) for edge in edges.tolist()]
    return cli.csv_text(
        scn,
        ["tau_bin_lo", "tau_bin_hi", "empirical_p", "analytic_p"],
        zip(edges[:-1].tolist(), edges[1:].tolist(), (counts / n).tolist(), np.diff(cdf).tolist()),
        [
            f"h_km={cli._fmt(h / 1e3)} theta={cli._fmt(theta)} samples={n} seed={seed}",
            f"ks_statistic={cli._fmt(ks)}",
        ],
    )


# -- CV-QKD ------------------------------------------------------------------


def composable_rate(
    tau, nbar_prime: float, params: ProtocolParams, attacks: str = "collective"
) -> KeyRate:
    """Composable finite-size rate against collective or general attacks."""
    return _finite_size_rate(asymptotic_rate(tau, nbar_prime, params), params.key_pulses, params, attacks)


def general_protocol(**overrides) -> ProtocolParams:
    """The general-attack parameter set: tight epsilons, an energy test,
    Hoeffding confidence tails and heterodyne detection."""
    defaults = dict(
        p_ec=0.1,
        eps_s=1e-43, eps_h=1e-43, eps_pe=1e-43, eps_cor=1e-43,
        energy_test_fraction=0.9,
        tail="hoeffding",
        detection="het",
    )
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def equivalent_noise(tau, nbar, nu_add: float):
    """Total noise referred to the channel input, sigma_z^2 / tau.

    With sigma_z^2 = 2*nbar + nu_add the mutual information takes the
    compact form (nu_add / 2) * log2(1 + sigma_x^2 / Sigma).
    """
    return (2.0 * nbar + nu_add) / tau


@dataclass(frozen=True)
class EstimationResult:
    sqrt_tau_hat: float
    sqrt_tau_var: float   # analytic variance of the sqrt(tau) estimator
    nbar_hat: float
    nbar_prime: float


def simulate_pilots(
    tau: float, nbar: float, nbar_pilot: float, m: int, nu_add: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Emulate pilot transmission: returns (x, y) with y = sqrt(tau) x + z.

    Heterodyne (nu_add = 2) yields two quadrature samples per pilot pulse,
    so m pilots give m * nu_add data points.
    """
    rng = np.random.default_rng(seed)
    samples = int(m * nu_add)
    x = np.full(samples, math.sqrt(2.0 * nbar_pilot))
    sigma_z = math.sqrt(2.0 * nbar + nu_add)
    z = rng.normal(0.0, sigma_z, size=samples)
    return x, math.sqrt(tau) * x + z


def estimate_channel(
    x: np.ndarray,
    y: np.ndarray,
    nu_add: float,
    eps_pe: float,
    tail: str = "gaussian",
    sqrt_tau: float | None = None,
) -> EstimationResult:
    """Build the pilot estimators and the worst-case thermal photon number.

    Passing the known sqrt_tau (pilots are bright enough to pin it down)
    removes the O(1/m) bias of the residual-based thermal estimate.
    """
    samples = len(x)
    m = samples / nu_add
    sqrt_tau_hat = float(np.mean(y / x))
    resid = y - (sqrt_tau if sqrt_tau is not None else sqrt_tau_hat) * x
    nbar_hat = 0.5 * (float(np.mean(resid**2)) - nu_add)
    nbar_pilot = float(x[0]) ** 2 / 2.0
    sigma_z2 = 2.0 * max(nbar_hat, 0.0) + nu_add
    var = sigma_z2 / (2.0 * nu_add * m * nbar_pilot)
    nbar_prime = worst_case_nbar(nbar_hat, m, nu_add, eps_pe, tail)
    return EstimationResult(sqrt_tau_hat, var, nbar_hat, nbar_prime)


class LloNoise(NamedTuple):
    eps_llo: float
    nbar_llo: float


def llo_noise(sigma_x2: float, clock_hz: float, linewidth_hz: float, tau: float) -> LloNoise:
    """Excess noise of a locally regenerated oscillator.

    The returned photon number adds to the trusted excess term; rates using
    an LLO also carry a 1/2 duty-cycle prefactor for the dedicated LO pulses.
    """
    if clock_hz <= 0:
        raise ValueError("clock must be positive")
    eps = 2.0 * math.pi * sigma_x2 * linewidth_hz / clock_hz
    return LloNoise(eps, tau * eps / 2.0)


def golden_section(
    fn: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Golden-section search for a minimum of fn on [a, b].

    Shrinks the bracket until it is no wider than tol; returns its midpoint
    and the smallest of the last two interior values.  Deterministic.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b), min(fc, fd)


class OptimizeResult(NamedTuple):
    mu: float
    phi: float
    rate: float
    feasible: bool


def optimize_protocol(
    rate_fn: Callable[[float, float], float],
    mu_range: tuple[float, float],
    phi_range: tuple[float, float],
    grid: int = 32,
) -> OptimizeResult:
    """Maximize a rate functional over modulation mu and threshold fraction phi.

    A coarse grid scan locates the basin; alternating golden-section passes
    refine each axis.  Deterministic, with ties broken toward smaller mu and
    then smaller phi.
    """
    mu_lo, mu_hi = mu_range
    phi_lo, phi_hi = phi_range
    if not (1.0 < mu_lo <= mu_hi <= 100.0):
        raise ValueError("mu range must lie within (1, 100]")
    if not (0.0 < phi_lo <= phi_hi < 1.0):
        raise ValueError("phi range must lie within (0, 1)")
    if mu_lo == mu_hi and phi_lo == phi_hi:
        return OptimizeResult(mu_lo, phi_lo, rate_fn(mu_lo, phi_lo), True)

    mus = np.linspace(mu_lo, mu_hi, grid)
    phis = np.linspace(phi_lo, phi_hi, grid)
    best = (-math.inf, mu_lo, phi_lo)
    for mu in mus:
        for phi in phis:
            r = rate_fn(float(mu), float(phi))
            if r > best[0]:
                best = (r, float(mu), float(phi))
    if best[0] <= 0.0:
        return OptimizeResult(best[1], best[2], 0.0, False)

    _, mu_star, phi_star = best
    dmu = (mu_hi - mu_lo) / (grid - 1) if mu_hi > mu_lo else 0.0
    dphi = (phi_hi - phi_lo) / (grid - 1) if phi_hi > phi_lo else 0.0
    for _ in range(2):
        if dmu > 0:
            a, b = max(mu_lo, mu_star - dmu), min(mu_hi, mu_star + dmu)
            mu_star, _ = golden_section(lambda m: -rate_fn(m, phi_star), a, b, 1e-9 * (b - a))
        if dphi > 0:
            a, b = max(phi_lo, phi_star - dphi), min(phi_hi, phi_star + dphi)
            phi_star, _ = golden_section(lambda p: -rate_fn(mu_star, p), a, b, 1e-9 * (b - a))
    rate = rate_fn(mu_star, phi_star)
    return OptimizeResult(mu_star, phi_star, rate, True)
