"""Capacity-type bounds for the satellite fading channel.

The loss-limited bound B takes the pure-loss key capacity over the
transmissivity distribution, in closed form up to the beam-wandering factor.
With background thermal photons it splits into an upper bound (B minus a
thermal correction) and the reverse-coherent-information lower bound
B - h(nbar / (1 - eta)), both clamped at zero.  Maximum secure ranges follow
either from a Fresnel-number argument or from the root of upper-bound = 0.

The thermal bounds take B at the transmissivity eta and at the thermal
photon number nbar, whose beam-wandering integrals are two rows of one
tanh-sinh call that share each node's work.  `loss_bounds` gives both for a
list of fading models, as the rows of one numpy batch, and a bounds sweep
hands them to its points.  `model_bounds` gives both for one model in
`math`, adding up the two integrands in one loop over each level's nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .beam import LN2
from .errors import NumericalError
from .fading import FadingModel


def entropy_h(x: float) -> float:
    """Thermal-state entropy (x+1)log2(x+1) - x log2(x), with h(0) = 0.

    x <= 0 counts as 0: the numerical dust of symplectic eigenvalues near 1.
    """
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def _wander_batch(nodes, s, g, etas):
    """The wander integrals of a batch of models, summed over the Nodes of a
    tanh_sinh_rows level on (0, 1]: a row per model and eta, interleaved as
    [model 1 at etas[0, 0], model 1 at etas[0, 1], model 2 at etas[1, 0], ...].

    The beam-wandering factor is Delta = 1 + (eta / ln(1-eta)) * I with
    I = integral_0^inf exp(-s x^(1/g)) / (e^x - eta) dx, s = r0^2 / (2 sigma^2)
    and g = gamma / 2, for sigma2 > 0; without wander (sigma2 = 0) Delta is 1.
    The integral is split at x = 1.  The lower piece takes the substitution
    u = x^(1/g), which removes the infinite-derivative endpoint when
    gamma > 2 and leaves an integrable u^(g - 1) one:
    exp(-s u) g u^(g - 1) / (e^(u^g) - eta).  The upper piece decays like
    exp(-(1 + s/g)(x - 1)) near x = 1; the substitution t = exp(-rate (x - 1)),
    rate = 1 + s/g, maps it onto (0, 1] as well, where it is written as
    exp(-s x^(1/g) - x) / (1 - eta e^-x) to avoid overflow.  The rule
    integrates the sum of the two pieces at the same nodes.

    s and g are (P, 1) columns over the P models and etas their (P, 2, 1)
    pairs: each model's transcendentals are taken once per node, then summed
    at its two etas, each row by np.vecdot so that it is the double its own
    call returns.  Overflow and 0/0 at far nodes give inf or nan, which fail
    the rule's comparison; the caller silences numpy's warnings for them.
    """
    import numpy as np

    u, w, ln_u = nodes.arrays
    rate = 1.0 + s / g
    p, x = u ** (g - 1.0), 1.0 - ln_u / rate
    low, q = np.exp(-s * u) * g * p, np.exp(p * u)
    high, e = np.exp(-s * x ** (1.0 / g) - x) / (rate * u), np.exp(-x)
    values = low[:, None] / (q[:, None] - etas) + high[:, None] / (1.0 - etas * e[:, None])
    return np.vecdot(values, w).ravel().tolist()


def _wander_rows(nodes, s, g, etas):
    """_wander_batch in `math` for one model, summed in node order: a sum per
    eta of etas (one or two), which share each node's transcendentals."""
    rate, inv_g, g1, exp = 1.0 + s / g, 1.0 / g, g - 1.0, math.exp
    e1, e2, sum1, sum2 = etas[0], etas[-1], 0.0, 0.0
    for u, w, ln_u in zip(nodes.x, nodes.weight, nodes.log):
        p, x = u**g1, 1.0 - ln_u / rate
        low, q, high, e = exp(-s * u) * g * p, exp(p * u), exp(-s * x**inv_g - x) / (rate * u), exp(-x)
        sum1 += (low / (q - e1) + high / (1.0 - e1 * e)) * w
        sum2 += (low / (q - e2) + high / (1.0 - e2 * e)) * w
    return [sum1, sum2][: len(etas)]


def _bound(eta: float, integral: float) -> float:
    """Loss-limited bound -Delta * log2(1 - eta) from the wander integral I (0 without wander)."""
    return -(1.0 + eta / math.log1p(-eta) * integral) * math.log1p(-eta) / LN2


def loss_bounds(models: list[FadingModel], nbar: float) -> list[tuple[float, float]]:
    """B at eta and B at nbar, (b, b_nbar), of each model, in bits per use.

    The models with wander are the rows of one _wander_batch, in model
    order, at eta and then at nbar where 0 < nbar < eta.  The others take
    eta twice and drop the second row (b_nbar is 0.0 there, and their bounds
    do not read it).  A batch row is the double its own call returns, and a
    failing batch raises its first failing row's error: the first that the
    models taken one at a time would raise.
    """
    from . import _integrate

    live = [0.0 < nbar < m.eta for m in models]
    wander = [(m.r0 * m.r0 / (2.0 * m.sigma2), m.gamma / 2.0, (m.eta, nbar if ok else m.eta))
              for m, ok in zip(models, live) if m.sigma2 != 0.0]
    values = iter(())
    if wander:
        import numpy as np

        s, g, etas = (np.array(v)[..., None] for v in zip(*wander))
        with np.errstate(all="ignore"):
            rows = _integrate.tanh_sinh_rows(_wander_batch, 0.0, 1.0, s, g, etas, abs_tol=1e-12)
        values = iter([q.value for q in rows])
    pairs = zip(values, values)  # a model's rows at its two etas
    integrals = [next(pairs) if m.sigma2 != 0.0 else (0.0, 0.0) for m in models]
    return [(_bound(m.eta, i), _bound(nbar, j) if ok else 0.0) for m, ok, (i, j) in zip(models, live, integrals)]


def model_bounds(model: FadingModel, nbar: float) -> tuple[float, float]:
    """loss_bounds([model], nbar)[0] to rounding, its wander integrals the rows of one tanh_sinh_rows call."""
    from . import _integrate

    live = 0.0 < nbar < model.eta
    integrals = [0.0, 0.0]
    if model.sigma2 != 0.0:
        args = model.r0 * model.r0 / (2.0 * model.sigma2), model.gamma / 2.0, (model.eta, nbar)[: 1 + live]
        integrals = [q.value for q in _integrate.tanh_sinh_rows(_wander_rows, 0.0, 1.0, *args, abs_tol=1e-12)]
    return _bound(model.eta, integrals[0]), _bound(nbar, integrals[1]) if live else 0.0


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

    Locates the zero of the thermal-loss upper bound B - T (thermal_upper once per
    probe, on model_bounds where nbar < eta) by bisection on the geometry supplied
    by build_model, with the bracket grown geometrically from Z_LO up to Z_HI.
    """
    if nbar >= 1.0:
        return MaxRangeResult(0.0)

    def upper_at(z: float) -> float:
        model = build_model(z)  # thermal_upper reads no B where nbar >= eta
        return thermal_upper(nbar, model, *model_bounds(model, nbar) if nbar < model.eta else (0.0, 0.0))

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
