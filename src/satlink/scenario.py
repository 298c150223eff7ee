"""Scenario assembly: one object wiring geometry, turbulence, noise and protocol.

A Scenario fixes the link direction, the time of day / sky condition, the
hardware setup and the protocol parameters, and exposes the derived
channel states and key rates that the CLI and the experiment scripts
consume.  Bounds and rates are evaluated at one geometry, given as floats,
or over every point of a sweep, given as arrays, in one array call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import bounds, cvqkd, fading, noise, orbit
from .atmosphere import ExtinctionModel
from .beam import BeamParams, ReceiverParams, diffraction_bound, eta_diffraction, plob
from .cvqkd import KeyRate, ProtocolParams
from .errors import ConfigError, NumericalError
from .fading import FadingModel
from .geometry import slant_range
from .noise import NoiseEnvironment
from .turbulence import PROFILES, TurbulenceProfile

# hardware presets: (beam waist w0, receiver aperture a_R, spectral filter)
SETUPS: dict[int, tuple[float, float, float]] = {
    1: (0.2, 0.4, 1e-9),
    2: (0.4, 1.0, 1e-9),
    3: (0.4, 2.0, 1e-9),
    4: (0.4, 2.0, 1e-13),
}


def setup_preset(setup: int) -> tuple[float, float, float]:
    """The (w0, a_R, filter) preset of a hardware setup."""
    if setup not in SETUPS:
        raise ConfigError(f"setup must be one of {sorted(SETUPS)}")
    return SETUPS[setup]


def _pointwise(evaluate: Callable, h, theta):
    """evaluate(h, theta) at one point, or at the broadcast points in one call.

    When any point fails, the array call fails.  The points are then
    evaluated alone, in order, so that the error raised is the one of the
    first failing point and the validity warnings are the ones of the points
    up to it, as from a loop over the points.  Results have the points' shape.
    """
    if not isinstance(h, np.ndarray) and not isinstance(theta, np.ndarray):
        return evaluate(h, theta)
    h, theta = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(theta, dtype=float))
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = evaluate(h.ravel(), theta.ravel())
        except (ValueError, ArithmeticError, NumericalError, Warning) as exc:
            failure = exc
        else:
            failure = None
    if failure is not None:
        for point in zip(h.ravel().tolist(), theta.ravel().tolist()):
            evaluate(*point)
        raise failure
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    shape = h.shape

    def shaped(value):
        return value.reshape(shape) if isinstance(value, np.ndarray) else value

    if isinstance(result, dict):
        return {key: shaped(value) for key, value in result.items()}
    return type(result)(*map(shaped, result))


@dataclass(frozen=True)
class Scenario:
    link: str = "down"                  # "up" | "down"
    period: str = "night"               # "day" | "night"
    sky: str = "clear"                  # "clear" | "cloudy"
    setup: int = 1
    beam: BeamParams = field(default_factory=BeamParams)
    receiver: ReceiverParams = field(default_factory=ReceiverParams)
    profile: TurbulenceProfile | None = None   # default: resolved from period
    extinction: ExtinctionModel = field(default_factory=ExtinctionModel)
    pointing_error: float = 1e-6
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    h_sky_override: float | None = None
    kappa_override: float | None = None

    def __post_init__(self):
        if self.link not in ("up", "down"):
            raise ConfigError("link must be 'up' or 'down'")
        if self.period not in ("day", "night"):
            raise ConfigError("period must be 'day' or 'night'")
        if self.sky not in ("clear", "cloudy"):
            raise ConfigError("sky must be 'clear' or 'cloudy'")
        setup_preset(self.setup)  # raises ConfigError for an unknown setup

    @classmethod
    def build(
        cls,
        link: str = "down",
        period: str = "night",
        sky: str = "clear",
        setup: int = 1,
        **overrides,
    ) -> "Scenario":
        """Assemble a scenario applying the hardware preset for `setup`.

        Keyword overrides are applied on top of the preset, e.g.
        build(..., receiver=ReceiverParams(...)) replaces the whole receiver.
        """
        w0, a_r, filt = setup_preset(setup)
        if "beam" not in overrides:
            overrides["beam"] = BeamParams(waist=w0)
        if "receiver" not in overrides:
            overrides["receiver"] = ReceiverParams(aperture=a_r, filter_width=filt)
        return cls(link=link, period=period, sky=sky, setup=setup, **overrides)

    # the scenario is frozen, so its derived state is computed once

    @cached_property
    def resolved_profile(self) -> TurbulenceProfile:
        if self.profile is not None:
            return self.profile
        return PROFILES[f"hv-{self.period}"]

    @cached_property
    def noise_env(self) -> NoiseEnvironment:
        return NoiseEnvironment(
            direction=self.link,
            period=self.period,
            sky=self.sky,
            h_sky=self.h_sky_override,
            kappa=self.kappa_override,
        )

    @cached_property
    def nbar(self) -> float:
        """Thermal photons at the channel output for this scenario's receiver."""
        return noise.nbar_total(self.noise_env, self.receiver)

    @cached_property
    def nbar_prime(self) -> float:
        """Worst-case thermal photons after single-block pilot estimation."""
        return cvqkd.worst_case_nbar(
            self.nbar,
            self.protocol.pilots,
            self.protocol.nu_add,
            self.protocol.eps_pe,
            self.protocol.tail,
        )

    def fading_model(self, h: float, theta: float) -> FadingModel:
        return fading.fading_model(
            h,
            theta,
            self.beam,
            self.receiver,
            self.resolved_profile,
            self.link,
            self.extinction,
            self.pointing_error,
        )

    # -- bounds ------------------------------------------------------------

    def bounds_at(self, h, theta) -> dict:
        """Upper/lower bounds, keyed for the CLI sweep.

        h and theta are floats, or arrays that broadcast to the points of a
        sweep; every value but nbar then has the points' shape.
        """
        return _pointwise(self._bounds, h, theta)

    def _bounds(self, h, theta) -> dict:
        z = slant_range(h, theta)
        model = self.fading_model(h, theta)
        nbar = self.nbar
        b = bounds.bound_b_model(model)
        lower = bounds.thermal_lower(nbar, model, b)
        aperture = self.receiver.aperture
        # V's fixed loss reuses the extinction the fading model computed
        eta_fixed = self.receiver.efficiency * model.eta_atm * eta_diffraction(z, self.beam, aperture)
        return {
            "U": diffraction_bound(z, self.beam, aperture),
            "V": plob(eta_fixed),
            "B": b,
            "upper": bounds.thermal_upper(nbar, model, b),
            "lower": lower.simple,
            "lower_middle": lower.middle,
            "eta": model.eta,
            "nbar": nbar,
        }

    def max_range(self, mode: str = "tight") -> bounds.MaxRangeResult:
        """Maximum secure slant range for a zenith-overflight geometry.

        mode "tight" solves for the zero of the thermal-loss upper bound;
        mode "simple" takes the Fresnel-number range of the background photons.
        """
        if mode == "tight":
            return bounds.max_range(lambda z: self.fading_model(z, 0.0), self.nbar)
        if mode != "simple":
            raise ValueError("mode must be 'simple' or 'tight'")
        if self.nbar >= 1.0:
            return bounds.MaxRangeResult(0.0, "simple", False)
        n_b = noise.nbar_background(self.noise_env, self.receiver)
        z = bounds.fresnel_range(self.beam.waist, self.beam.wavelength, self.receiver.aperture, n_b)
        return bounds.MaxRangeResult(z, "simple", True)

    # -- key rates ----------------------------------------------------------

    def rate_at(self, h, theta, attacks: str = "collective") -> KeyRate:
        """Post-selected composable key rate at a fixed geometry.

        h and theta are floats, or arrays that broadcast to the points of a
        sweep; the rates then have the points' shape.
        """

        def rate(h, theta):
            model = self.fading_model(h, abs(theta))
            return cvqkd.postselected_rate(model, self.nbar_prime, self.protocol, attacks)

        return _pointwise(rate, h, theta)

    def pass_report(
        self, h: float, n_blocks: int, attacks: str = "collective"
    ) -> dict:
        """Full zenith-crossing pass: slices, per-slice rates, daily yield."""
        slices = orbit.slice_orbit(
            h, n_blocks, self.protocol.clock_hz, self.protocol.block_size
        )
        t_q, t_t = orbit.transit_times(h)
        if not slices:
            return {
                "h_km": h / 1e3,
                "t_Q_s": t_q,
                "t_T_s": t_t,
                "slices": [],
                "per_slice_rate": [],
                "R_orb": 0.0,
                "bits_per_pass": 0.0,
                "bits_per_day": 0.0,
                "diagnostic": "no block fits in the quantum transit time",
            }
        rate_fn = lambda theta: self.rate_at(h, theta, attacks).rate
        r_orb, per_slice = orbit.orbital_rate(rate_fn, slices)
        bits_pass = r_orb * self.protocol.clock_hz * t_q
        period = orbit.orbital_period(h)
        report = {
            "h_km": h / 1e3,
            "t_Q_s": t_q,
            "t_T_s": t_t,
            "slices": [[lo, hi] for lo, hi in slices],
            "per_slice_rate": per_slice,
            "R_orb": r_orb,
            "bits_per_pass": bits_pass,
            # one zenith-crossing pass per day is credited
            "bits_per_day": bits_pass,
            "orbital_period_s": period,
            "orbits_per_day": int(orbit.SECONDS_PER_DAY // period),
            "processing_window_s": (t_t - t_q) / 2.0,
        }
        if h <= orbit.SUN_SYNC_MAX_ALT_M:
            report["sun_sync_inclination_deg"] = orbit.sun_sync_inclination(h)
        return report
