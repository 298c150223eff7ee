"""Composable finite-size key rates for a pilot-guided coherent-state protocol.

Gaussian-modulated coherent states with homodyne or heterodyne detection in
reverse reconciliation.  Eavesdropping is modeled as a collective
entangling-cloner attack: the eavesdropper's Holevo information is computed
from first principles via the two-mode Gaussian covariance matrix, its
symplectic eigenvalues nu+- = sqrt((D +- sqrt(D^2 - 4 det V)) / 2), and the
homodyne/heterodyne measurement update of the conditional state.  Bright
pilot pulses interleaved with the signal estimate the instantaneous
transmissivity and the thermal photon number; the worst-case thermal
estimate enters the rate.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from ._special import erfcinv
from .bounds import entropy_h
from .domain import CLOSED_UNIT, OPEN_UNIT, POSITIVE, UNIT, Domain, Record, at_least, one_of, param
from .errors import FieldError, NumericalError
from .fading import FadingModel, p_threshold

EPS_DEFAULT = 2.0**-33  # shared default for the smoothing/hash/PE/correctness epsilons


class ProtocolParams(Record):
    """Block structure, epsilon budget and modulation of the key protocol."""

    block_size: int = param(100_000_000, at_least(2))  # N, pulses per block
    pilots: int = param(15_000_000, at_least(1))       # m, pulses sacrificed for estimation
    energy_test_fraction: float = param(0.0, CLOSED_UNIT)  # f_et; > 0 only for general attacks
    beta: float = param(0.96, UNIT)                   # reconciliation efficiency
    p_ec: float = param(0.9, UNIT)                    # error-correction success probability
    eps_s: float = param(EPS_DEFAULT, OPEN_UNIT)
    eps_h: float = param(EPS_DEFAULT, OPEN_UNIT)
    eps_pe: float = param(EPS_DEFAULT, OPEN_UNIT)
    eps_cor: float = param(EPS_DEFAULT, OPEN_UNIT)
    alphabet: int = param(32, at_least(2))            # d, post-ADC alphabet size
    mu: float = param(9.28, Domain("a quantity above 1", lambda x: x > 1))  # modulation variance
    phi_thr: float = param(0.73, OPEN_UNIT)           # post-selection threshold fraction
    clock_hz: float = param(5e6, POSITIVE)
    detection: str = param("het", one_of("hom", "het"))
    tail: str = param("gaussian", one_of("gaussian", "hoeffding"))  # PE confidence model

    def __post_init__(self):
        super().__post_init__()
        if self.pilots >= self.block_size:
            raise FieldError("ProtocolParams.pilots must be below ProtocolParams.block_size,"
                             f" got {self.pilots} and {self.block_size}")

    def check_attacks(self, attacks: str) -> None:
        """FieldError unless energy tests can reduce `attacks` to collective ones."""
        if attacks == "general" and (self.detection != "het" or self.energy_test_fraction <= 0.0):
            raise FieldError(
                "attacks 'general' need ProtocolParams.detection 'het' and ProtocolParams.energy_test_fraction"
                f" > 0, got {self.detection!r} and {self.energy_test_fraction!r}")

    @property
    def sigma_x2(self) -> float:
        return self.mu - 1.0

    @property
    def nbar_t(self) -> float:
        """Mean photons of the average transmitted thermal state."""
        return (self.mu - 1.0) / 2.0

    @property
    def nu_add(self) -> float:
        """Vacuum units the detection adds: homodyne measures one quadrature, heterodyne two."""
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
        """AEP penalty Delta_AEP, to be divided by sqrt(n); log2(18 / (p_ec^2 eps_s^4))
        is a sum of logs, finite where the product p_ec^2 eps_s^4 underflows."""
        return 4.0 * math.log2(2.0 * math.sqrt(self.alphabet) + 1.0) * math.sqrt(
            math.log2(18.0) - 2.0 * math.log2(self.p_ec) - 4.0 * math.log2(self.eps_s)
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


def mutual_information(tau: float, nbar: float, sigma_x2: float, nu_add: float) -> float:
    """Transmitter-receiver mutual information, bits per use; nu_add is ProtocolParams.nu_add."""
    if not 0.0 < tau <= 1.0:
        raise NumericalError("transmissivity must lie in (0, 1]")
    snr = 1.0 + tau * sigma_x2 / (2.0 * nbar + nu_add)
    return nu_add / 2.0 * math.log2(snr)


def _entropy_from_nu(nu: float) -> float:
    if nu < 1.0 - 1e-9:
        raise NumericalError(f"non-physical symplectic eigenvalue {nu}")
    return entropy_h((nu - 1.0) / 2.0)


def holevo_bound(tau: float, nbar: float, mu: float, detection: str) -> float:
    """Eavesdropper Holevo information chi(E:y) in reverse reconciliation.

    The transmitter-receiver state is the two-mode Gaussian with quadrature
    blocks A = mu*I, B = (tau*mu + 1 - tau + 2*nbar)*I and C = c*Z,
    c = sqrt(tau (mu^2 - 1)).  Eve purifies it, so chi = S(AB) - S(A|y)
    with the conditional entropy taken after the receiver's measurement.
    """
    if not 0.0 < tau <= 1.0:
        raise NumericalError("transmissivity must lie in (0, 1]")
    a = mu
    b = tau * mu + 1.0 - tau + 2.0 * nbar
    c2 = tau * (mu * mu - 1.0)

    delta = a * a + b * b - 2.0 * c2
    det_v = math.pow(a * b - c2, 2)
    disc = delta * delta - 4.0 * det_v
    # rounding takes disc a little below 0, which counts as 0; far below,
    # the spectrum is complex
    if disc < -1e-9 and disc < -1e-9 * delta * delta:
        raise NumericalError("covariance matrix has complex symplectic spectrum")
    # multiplying by the comparison clamps at (-)0 and keeps a nan
    root = math.sqrt(disc * (disc > 0.0))
    nu_plus = math.sqrt((delta + root) / 2.0)
    nu_minus2 = (delta - root) / 2.0
    nu_minus = math.sqrt(nu_minus2 * (nu_minus2 > 0.0))
    s_ab = _entropy_from_nu(nu_plus) + _entropy_from_nu(nu_minus)

    if detection == "hom":
        nu_cond = math.sqrt(a * (a - c2 / b))
    else:
        nu_cond = a - c2 / (b + 1.0)
    return s_ab - _entropy_from_nu(nu_cond)


def asymptotic_rate(tau: float, nbar: float, params: ProtocolParams) -> float:
    """Asymptotic collective-attack rate beta*I - chi (not clamped)."""
    i_xy = mutual_information(tau, nbar, params.sigma_x2, params.nu_add)
    chi = holevo_bound(tau, nbar, params.mu, params.detection)
    return params.beta * i_xy - chi


def pe_confidence_factor(eps_pe: float, tail: str) -> float:
    """Confidence multiplier w for the worst-case thermal-photon estimate."""
    if tail == "gaussian":
        return math.sqrt(2.0) * erfcinv(eps_pe)
    return math.sqrt(2.0 * math.log(1.0 / eps_pe))


def worst_case_nbar(nbar: float, m: int, nu_add: float, eps_pe: float, tail: str) -> float:
    """Upper confidence bound on the thermal photons from m pilot pulses."""
    w = pe_confidence_factor(eps_pe, tail)
    return nbar + w * (2.0 * nbar + nu_add) / math.sqrt(2.0 * nu_add * m)


class KeyRate(NamedTuple):
    rate: float        # bits per use, clamped at zero
    unclamped: float   # raw value, may be negative
    eps_prime: float | None = None  # general-attack epsilon, when applicable


def _log2_binom_ceil(k: float) -> int:
    """ceil(log2 C(kk+4, 4)) for kk = floor(k); k may reach 1e8."""
    kk = math.floor(k)
    return math.ceil(math.log2((kk + 1.0) * (kk + 2.0) * (kk + 3.0) * (kk + 4.0) / 24.0))


def _sigma_n(n_eff: float, f_et: float, eps: float) -> float:
    """Energy-test concentration factor for the general-attack reduction."""
    l = math.log(8.0 / eps)
    denom = 1.0 - 2.0 * math.sqrt(l / (2.0 * f_et * n_eff))
    if denom <= 0.0:
        raise NumericalError("energy-test block too small for the epsilon budget")
    return (1.0 + 2.0 * math.sqrt(l / (2.0 * n_eff)) + l / n_eff) / denom


def _k_n(n_eff: float, params: ProtocolParams) -> float:
    k = 2.0 * n_eff * params.nbar_t * _sigma_n(n_eff, params.energy_test_fraction, params.eps_total)
    return k if k > 1.0 else 1.0


def _finite_size_rate(r_m: float, n_eff: float, params: ProtocolParams, attacks: str) -> KeyRate:
    """Composable rate of n_eff key pulses at asymptotic rate r_m.

    General attacks are reduced to collective ones by energy tests, which
    need heterodyne detection and cost a binomial term per block.
    """
    extra = params.theta_term
    eps_prime = None
    if attacks == "general":
        k_n = _k_n(n_eff, params)
        extra = extra - 2.0 * _log2_binom_ceil(k_n)
        eps_prime = math.pow(k_n, 4) * params.eps_total / 50.0
    raw = (n_eff * params.p_ec / params.block_size) * (
        r_m - params.delta_aep / math.sqrt(n_eff) + extra / n_eff
    )
    return KeyRate(raw if raw > 0.0 else 0.0, raw, eps_prime)


def postselected_rate(model: FadingModel, nbar_prime: float, params: ProtocolParams, attacks: str) -> KeyRate:
    """Finite-size rate over the fading channel with threshold post-selection.

    Data are kept only when the pilot-measured transmissivity exceeds
    eta_th = phi_thr * eta and are processed at that worst-case value.  The
    rate is 0 (and eps_prime None) where no data survive the threshold.
    """
    eta_th = params.phi_thr * model.eta
    n_eff = params.key_pulses * p_threshold(eta_th, model)
    if not n_eff > 0.0:
        return KeyRate(0.0 * n_eff, 0.0 * n_eff)  # nan where the threshold probability is
    r_m = asymptotic_rate(eta_th, nbar_prime, params)
    return _finite_size_rate(r_m, n_eff, params, attacks)
