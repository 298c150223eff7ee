"""Composable finite-size key rates for a pilot-guided coherent-state protocol.

Gaussian-modulated coherent states with homodyne or heterodyne detection in
reverse reconciliation.  Eavesdropping is modeled as a collective
entangling-cloner attack: the eavesdropper's Holevo information is computed
from first principles via the two-mode Gaussian covariance matrix, its
symplectic eigenvalues nu+- = sqrt((D +- sqrt(D^2 - 4 det V)) / 2), and the
homodyne/heterodyne measurement update of the conditional state.  Bright
pilot pulses interleaved with the signal estimate the instantaneous
transmissivity and the thermal photon number; the worst-case thermal
estimate enters the rate.  Transmissivities, and the fading model the
post-selected rate takes, are floats or arrays over the points of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from ._array import all_, any_, at_first, mathof, where
from ._special import erfcinv
from .bounds import thermal_entropy
from .errors import NumericalError
from .fading import FadingModel, p_threshold
from .orbit import golden_section

EPS_DEFAULT = 2.0**-33  # shared default for the smoothing/hash/PE/correctness epsilons


@dataclass(frozen=True)
class ProtocolParams:
    """Block structure, epsilon budget and modulation of the key protocol."""

    block_size: int = 100_000_000          # N, pulses per block
    pilots: int = 15_000_000               # m, pulses sacrificed for estimation
    energy_test_fraction: float = 0.0      # f_et; > 0 only for general attacks
    beta: float = 0.96                     # reconciliation efficiency
    p_ec: float = 0.9                      # error-correction success probability
    eps_s: float = EPS_DEFAULT
    eps_h: float = EPS_DEFAULT
    eps_pe: float = EPS_DEFAULT
    eps_cor: float = EPS_DEFAULT
    alphabet: int = 32                     # d, post-ADC alphabet size
    mu: float = 9.28                       # modulation variance (sigma_x^2 = mu - 1)
    phi_thr: float = 0.73                  # post-selection threshold fraction
    clock_hz: float = 5e6
    detection: str = "het"                 # "hom" | "het"
    tail: str = "gaussian"                 # PE confidence model: "gaussian" | "hoeffding"

    def __post_init__(self):
        if self.mu <= 1.0:
            raise ValueError("modulation variance mu must exceed 1")
        if not 0.0 < self.phi_thr < 1.0:
            raise ValueError("threshold fraction must lie in (0, 1)")
        if self.pilots >= self.block_size:
            raise ValueError("pilot count must be below the block size")
        if self.detection not in ("hom", "het"):
            raise ValueError("detection must be 'hom' or 'het'")
        for eps in (self.eps_s, self.eps_h, self.eps_pe, self.eps_cor):
            if not 0.0 < eps < 1.0:
                raise ValueError("epsilon parameters must lie in (0, 1)")

    @classmethod
    def general(cls, **overrides) -> "ProtocolParams":
        defaults = dict(
            p_ec=0.1,
            eps_s=1e-43, eps_h=1e-43, eps_pe=1e-43, eps_cor=1e-43,
            energy_test_fraction=0.9,
            tail="hoeffding",
            detection="het",
        )
        defaults.update(overrides)
        return cls(**defaults)

    @property
    def sigma_x2(self) -> float:
        return self.mu - 1.0

    @property
    def nbar_t(self) -> float:
        """Mean photons of the average transmitted thermal state."""
        return (self.mu - 1.0) / 2.0

    @property
    def nu_add(self) -> float:
        return 1.0 if self.detection == "hom" else 2.0

    @property
    def key_pulses(self) -> float:
        """Pulses left for key generation after pilots (and energy tests)."""
        n = self.block_size - self.pilots
        if self.energy_test_fraction > 0:
            n /= 1.0 + self.energy_test_fraction
        return n

    # the two finite-size terms depend on the protocol alone; every rate
    # evaluation needs them, so they are computed once per instance

    @cached_property
    def delta_aep(self) -> float:
        """AEP penalty Delta_AEP, to be divided by sqrt(n)."""
        return 4.0 * math.log2(2.0 * math.sqrt(self.alphabet) + 1.0) * math.sqrt(
            math.log2(18.0 / (self.p_ec**2 * self.eps_s**4))
        )

    @cached_property
    def theta_term(self) -> float:
        """Leftover-hash term Theta, to be divided by n."""
        return math.log2(self.p_ec * (1.0 - self.eps_s**2 / 3.0)) + 2.0 * math.log2(
            math.sqrt(2.0) * self.eps_h
        )

    @property
    def eps_total(self) -> float:
        """Composed epsilon security against collective attacks."""
        return self.p_ec * self.eps_pe + self.eps_cor + self.eps_s + self.eps_h


def mutual_information(tau, nbar: float, sigma_x2: float, detection: str):
    """Transmitter-receiver mutual information, bits per use."""
    if not all_((0.0 < tau) & (tau <= 1.0)):
        raise ValueError("transmissivity must lie in (0, 1]")
    if sigma_x2 < 0 or nbar < 0:
        raise ValueError("variance and photon number must be non-negative")
    if detection == "hom":
        snr = 1.0 + tau * sigma_x2 / (2.0 * nbar + 1.0)
        return 0.5 * mathof(snr).log2(snr)
    if detection == "het":
        snr = 1.0 + tau * sigma_x2 / (2.0 * nbar + 2.0)
        return mathof(snr).log2(snr)
    raise ValueError("detection must be 'hom' or 'het'")


def equivalent_noise(tau, nbar, nu_add: float):
    """Total noise referred to the channel input, sigma_z^2 / tau.

    With sigma_z^2 = 2*nbar + nu_add the mutual information takes the
    compact form (nu_add / 2) * log2(1 + sigma_x^2 / Sigma).
    """
    return (2.0 * nbar + nu_add) / tau


def _entropy_from_nu(nu, m):
    unphysical = nu < 1.0 - 1e-9
    if any_(unphysical):
        raise NumericalError(f"non-physical symplectic eigenvalue {at_first(unphysical, nu)}")
    return thermal_entropy((nu - 1.0) / 2.0, m)


def holevo_bound(tau, nbar, mu: float, detection: str):
    """Eavesdropper Holevo information chi(E:y) in reverse reconciliation.

    The transmitter-receiver state is the two-mode Gaussian with quadrature
    blocks A = mu*I, B = (tau*mu + 1 - tau + 2*nbar)*I and C = c*Z,
    c = sqrt(tau (mu^2 - 1)).  Eve purifies it, so chi = S(AB) - S(A|y)
    with the conditional entropy taken after the receiver's measurement.
    """
    if not all_((0.0 < tau) & (tau <= 1.0)):
        raise ValueError("transmissivity must lie in (0, 1]")
    if mu <= 1.0:
        raise ValueError("mu must exceed 1")
    a = mu
    b = tau * mu + 1.0 - tau + 2.0 * nbar
    c2 = tau * (mu * mu - 1.0)
    m = mathof(b)

    delta = a * a + b * b - 2.0 * c2
    det_v = m.pow(a * b - c2, 2)
    disc = delta * delta - 4.0 * det_v
    # rounding takes disc a little below 0, which counts as 0; far below,
    # the spectrum is complex
    if any_((disc < -1e-9) & (disc < -1e-9 * delta * delta)):
        raise NumericalError("covariance matrix has complex symplectic spectrum")
    # multiplying by the mask clamps at (-)0 without a branch
    root = m.sqrt(disc * (disc > 0.0))
    nu_plus = m.sqrt((delta + root) / 2.0)
    nu_minus2 = (delta - root) / 2.0
    nu_minus = m.sqrt(nu_minus2 * (nu_minus2 > 0.0))
    s_ab = _entropy_from_nu(nu_plus, m) + _entropy_from_nu(nu_minus, m)

    if detection == "hom":
        nu_cond = m.sqrt(a * (a - c2 / b))
    elif detection == "het":
        nu_cond = a - c2 / (b + 1.0)
    else:
        raise ValueError("detection must be 'hom' or 'het'")
    return s_ab - _entropy_from_nu(nu_cond, m)


def asymptotic_rate(tau: float, nbar: float, params: ProtocolParams) -> float:
    """Asymptotic collective-attack rate beta*I - chi (not clamped)."""
    i_xy = mutual_information(tau, nbar, params.sigma_x2, params.detection)
    chi = holevo_bound(tau, nbar, params.mu, params.detection)
    return params.beta * i_xy - chi


def pe_confidence_factor(eps_pe: float, tail: str = "gaussian") -> float:
    """Confidence multiplier w for the worst-case thermal-photon estimate."""
    if tail == "gaussian":
        return math.sqrt(2.0) * erfcinv(eps_pe)
    if tail == "hoeffding":
        return math.sqrt(2.0 * math.log(1.0 / eps_pe))
    raise ValueError("tail must be 'gaussian' or 'hoeffding'")


def worst_case_nbar(
    nbar: float, m: int, nu_add: float, eps_pe: float, tail: str = "gaussian"
) -> float:
    """Upper confidence bound on the thermal photons from m pilot pulses."""
    if m < 1:
        raise ValueError("need at least one pilot")
    w = pe_confidence_factor(eps_pe, tail)
    return nbar + w * (2.0 * nbar + nu_add) / math.sqrt(2.0 * nu_add * m)


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


class KeyRate(NamedTuple):
    rate: float        # bits per use, clamped at zero
    unclamped: float   # raw value, may be negative
    eps_prime: float | None = None  # general-attack epsilon, when applicable


def _log2_binom_ceil(k):
    """ceil(log2 C(kk+4, 4)) for kk = floor(k); k may reach 1e8."""
    m = mathof(k)
    kk = m.floor(k)
    return m.ceil(m.log2((kk + 1.0) * (kk + 2.0) * (kk + 3.0) * (kk + 4.0) / 24.0))


def _sigma_n(n_eff, f_et: float, eps: float):
    """Energy-test concentration factor for the general-attack reduction."""
    l = math.log(8.0 / eps)
    m = mathof(n_eff)
    denom = 1.0 - 2.0 * m.sqrt(l / (2.0 * f_et * n_eff))
    if any_(denom <= 0.0):
        raise NumericalError("energy-test block too small for the epsilon budget")
    return (1.0 + 2.0 * m.sqrt(l / (2.0 * n_eff)) + l / n_eff) / denom


def _k_n(n_eff, params: ProtocolParams):
    k = 2.0 * n_eff * params.nbar_t * _sigma_n(n_eff, params.energy_test_fraction, params.eps_total)
    return where(k > 1.0, k, 1.0)


def _finite_size_rate(r_m, n_eff, params: ProtocolParams, attacks: str, kept=True) -> KeyRate:
    """Composable rate of n_eff key pulses at asymptotic rate r_m, 0 where not kept.

    General attacks are reduced to collective ones by energy tests, which
    need heterodyne detection and cost a binomial term per block.
    """
    extra = params.theta_term
    eps_prime = None
    if attacks == "general":
        if params.detection != "het":
            raise ValueError("general-attack reduction applies to heterodyne detection only")
        if params.energy_test_fraction <= 0:
            raise ValueError("general attacks need a positive energy-test fraction")
        k_n = _k_n(n_eff, params)
        extra = extra - 2.0 * _log2_binom_ceil(k_n)
        eps_prime = where(kept, mathof(k_n).pow(k_n, 4) * params.eps_total / 50.0, math.nan)
    elif attacks != "collective":
        raise ValueError("attacks must be 'collective' or 'general'")
    raw = (n_eff * params.p_ec / params.block_size) * (
        r_m - params.delta_aep / mathof(n_eff).sqrt(n_eff) + extra / n_eff
    )
    raw = where(kept, raw, 0.0)
    return KeyRate(where(raw > 0.0, raw, 0.0), raw, eps_prime)


def composable_rate(
    tau, nbar_prime: float, params: ProtocolParams, attacks: str = "collective"
) -> KeyRate:
    """Composable finite-size rate against collective or general attacks."""
    return _finite_size_rate(asymptotic_rate(tau, nbar_prime, params), params.key_pulses, params, attacks)


def postselected_rate(
    model: FadingModel,
    nbar_prime: float,
    params: ProtocolParams,
    attacks: str = "collective",
) -> KeyRate:
    """Finite-size rate over the fading channel with threshold post-selection.

    Data are kept only when the pilot-measured transmissivity exceeds
    eta_th = phi_thr * eta and are processed at that worst-case value.  The
    model is one geometry or a sweep; the rate is 0 (eps_prime nan) at the
    points where no data survive the threshold.
    """
    eta_th = params.phi_thr * model.eta
    p_th = p_threshold(eta_th, model)
    n = params.key_pulses
    n_eff = n * p_th
    kept = n_eff > 0.0
    if not any_(kept):
        return KeyRate(0.0 * n_eff, 0.0 * n_eff)
    n_eff = where(kept, n_eff, n)
    r_m = asymptotic_rate(eta_th, nbar_prime, params)
    return _finite_size_rate(r_m, n_eff, params, attacks, kept)


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
