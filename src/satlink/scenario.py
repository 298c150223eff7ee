"""Scenario assembly: one object wiring geometry, turbulence, noise and protocol.

A Scenario fixes the link direction, the time of day / sky condition, the
hardware setup and the protocol parameters, and exposes the derived
channel states and key rates that the CLI and the experiment scripts
consume.  Bounds and rates are evaluated at one geometry, given as floats,
or at each point of a sweep, given as arrays; a sweep batches only the
integrals of its points.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import atmosphere, bounds, cvqkd, fading, noise, orbit
from ._integrate import MEMO_SIZE
from .atmosphere import ExtinctionModel
from .beam import BeamParams, ReceiverParams, diffraction_bound, eta_diffraction, plob
from .cvqkd import KeyRate, ProtocolParams
from .domain import NON_NEGATIVE, Checked, one_of, param
from .errors import ConfigError, NumericalError
from .fading import FadingModel
from .geometry import slant_range
from .turbulence import PROFILES, TurbulenceProfile

# hardware presets: (beam waist w0, receiver aperture a_R, spectral filter);
# preset 1 is the parameter dataclasses' defaults
SETUPS: dict[int, tuple[float, float, float]] = {
    1: (BeamParams.waist, ReceiverParams.aperture, ReceiverParams.filter_width),
    2: (0.4, 1.0, 1e-9),
    3: (0.4, 2.0, 1e-9),
    4: (0.4, 2.0, 1e-13),
}


# points per chunk of a sweep: a bounds point holds up to two wander integrals
CHUNK = MEMO_SIZE // 2


# the columns of the CLI bounds sweep at a point
Bounds = namedtuple("Bounds", "U V B upper lower eta nbar")


def _pointwise(evaluate: Callable, prefetch: Callable, h, theta, result: type):
    """evaluate(h, theta) at one point, or at each of the broadcast points in turn.

    A sweep runs CHUNK points at a time: prefetch(points) fills the memos of
    their integrals, in batches, before they are evaluated, so a sweep raises
    the first failing point's error and each point's warnings in order.
    evaluate returns the namedtuple `result`; a sweep returns its fields as
    arrays of the points' shape, nan where a value is None at some points
    and None where it is None at all of them.
    """
    if not isinstance(h, np.ndarray) and not isinstance(theta, np.ndarray):
        return evaluate(h, theta)
    h, theta = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(theta, dtype=float))
    points = list(zip(h.ravel().tolist(), theta.ravel().tolist()))
    results = []
    for lo in range(0, len(points), CHUNK):
        chunk = points[lo:lo + CHUNK]
        prefetch(chunk)
        results += [evaluate(*point) for point in chunk]

    def shaped(values):
        if values and all(value is None for value in values):
            return None
        return np.array([math.nan if value is None else value for value in values]).reshape(h.shape)

    return result(*map(shaped, list(zip(*results)) or [()] * len(result._fields)))


@dataclass(frozen=True)
class Scenario(Checked):
    link: str = param("down", one_of("up", "down"))
    period: str = param("night", one_of("day", "night"))
    sky: str = param("clear", one_of("clear", "cloudy"))
    setup: int = param(1, one_of(*SETUPS))
    beam: BeamParams = field(default_factory=BeamParams)
    receiver: ReceiverParams = field(default_factory=ReceiverParams)
    profile: str | None = param(None, one_of(*PROFILES))  # unset: hv-<period>
    extinction: ExtinctionModel = field(default_factory=ExtinctionModel)
    pointing_error: float = param(1e-6, NON_NEGATIVE)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    h_sky_override: float | None = param(None, NON_NEGATIVE)
    kappa_override: float | None = param(None, NON_NEGATIVE)

    @classmethod
    def build(cls, *fields, setup: int = 1, beam: dict | None = None, receiver: dict | None = None,
              **overrides) -> "Scenario":
        """Assemble a scenario applying the hardware preset for `setup`.

        fields are the leading Scenario fields (link, period, sky), overrides
        set the others; beam and receiver map field names to values that
        override the preset's, e.g. build(..., receiver={"filter_width": 1e-13}).
        """
        # an unknown setup takes preset 1 here, and fails the Scenario's own check
        w0, a_r, filt = SETUPS.get(setup, SETUPS[1])
        beam = BeamParams(**{"waist": w0, **(beam or {})})
        receiver = ReceiverParams(**{"aperture": a_r, "filter_width": filt, **(receiver or {})})
        return cls(*fields, setup=setup, beam=beam, receiver=receiver, **overrides)

    # the scenario is frozen, so its derived state is computed once

    @property
    def profile_name(self) -> str:
        """scenario.profile, or unset the Hufnagel-Valley profile of the period."""
        return self.profile or f"hv-{self.period}"

    @cached_property
    def resolved_profile(self) -> TurbulenceProfile:
        return PROFILES[self.profile_name]

    @cached_property
    def nbar_background(self) -> float:
        """Background photons per detected mode, before the setup efficiency."""
        return noise.nbar_background(
            self.link, self.period, self.sky, self.receiver, self.h_sky_override, self.kappa_override
        )

    @cached_property
    def nbar(self) -> float:
        """Thermal photons at the channel output for this scenario's receiver."""
        return noise.nbar_total(self.nbar_background, self.receiver)

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

    def fading_model(self, h: float, theta: float, warn: Callable[..., None] = warnings.warn) -> FadingModel:
        return fading.fading_model(
            h,
            theta,
            self.beam,
            self.receiver,
            self.resolved_profile,
            self.link,
            self.extinction,
            self.pointing_error,
            warn,
        )

    # -- bounds ------------------------------------------------------------

    def bounds_at(self, h, theta) -> dict:
        """The columns of the CLI bounds sweep, keyed by name.

        U, V and B, the thermal-loss upper and lower bounds, eta and nbar.

        h and theta are floats, or arrays that broadcast to the points of a
        sweep; every value then has the points' shape.
        """
        return _pointwise(self._bounds, self._prefetch_bounds, h, theta, Bounds)._asdict()

    def _prefetch_bounds(self, points) -> None:
        """Fill the memos of the points' integrals from their fading models,
        built without a warning; a point whose model fails is left out, for
        its evaluation to raise."""
        atmosphere.prefetch(points, self.extinction)
        models = []
        for point in points:
            try:
                models.append(self.fading_model(*point, warn=lambda *args, **kwargs: None))
            except (ValueError, ArithmeticError, NumericalError):
                pass
        bounds.prefetch(models, self.nbar)

    def _bounds(self, h: float, theta: float) -> Bounds:
        z = slant_range(h, theta)
        model = self.fading_model(h, theta)
        nbar = self.nbar
        b = bounds.bound_b_model(model)
        aperture = self.receiver.aperture
        # V's fixed loss reuses the extinction the fading model computed
        eta_fixed = self.receiver.efficiency * model.eta_atm * eta_diffraction(z, self.beam, aperture)
        return Bounds(
            U=diffraction_bound(z, self.beam, aperture),
            V=plob(eta_fixed),
            B=b,
            upper=bounds.thermal_upper(nbar, model, b),
            lower=bounds.thermal_lower(nbar, model, b),
            eta=model.eta,
            nbar=nbar,
        )

    def max_range(self, mode: str = "tight") -> bounds.MaxRangeResult:
        """Maximum secure slant range for a zenith-overflight geometry.

        mode "tight" solves for the zero of the thermal-loss upper bound;
        mode "simple" takes the Fresnel-number range of the background photons.
        """
        if mode == "tight":
            return bounds.max_range(lambda z: self.fading_model(z, 0.0), self.nbar)
        if self.nbar >= 1.0:
            return bounds.MaxRangeResult(0.0)
        # the override that applies to the link leaves no background photons at 0;
        # one above 0 whose n_B rounds to 0 fails numerically, in fresnel_range
        override = self.kappa_override if self.link == "up" else self.h_sky_override
        if override == 0.0:
            raise ConfigError("the Fresnel range needs background photons, and n_B is 0")
        n_b = self.nbar_background
        z = bounds.fresnel_range(self.beam.waist, self.beam.wavelength, self.receiver.aperture, n_b)
        return bounds.MaxRangeResult(z)

    # -- key rates ----------------------------------------------------------

    def rate_at(self, h, theta, attacks: str = "collective") -> KeyRate:
        """Post-selected composable key rate at a fixed geometry.

        h and theta are floats, or arrays that broadcast to the points of a
        sweep; the rates then have the points' shape.
        """
        self.protocol.check_attacks(attacks)

        def rate(h, theta):
            model = self.fading_model(h, abs(theta))
            return cvqkd.postselected_rate(model, self.nbar_prime, self.protocol, attacks)

        return _pointwise(rate, lambda points: atmosphere.prefetch(points, self.extinction), h, theta, KeyRate)

    def pass_report(
        self, h: float, n_blocks: int, attacks: str = "collective"
    ) -> dict:
        """Full zenith-crossing pass: slices, per-slice rates, daily yield."""
        slices = orbit.slice_orbit(
            h, n_blocks, self.protocol.clock_hz, self.protocol.block_size
        )
        t_q, t_t = orbit.transit_times(h)
        r_orb, per_slice = 0.0, []
        if slices:
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
        if not slices:
            report["diagnostic"] = "no block fits in the quantum transit time"
        if h <= orbit.SUN_SYNC_MAX_ALT_M:
            report["sun_sync_inclination_deg"] = orbit.sun_sync_inclination(h)
        return report
