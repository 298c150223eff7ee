"""Scenario assembly: one object wiring geometry, turbulence, noise and protocol.

A Scenario fixes the link direction, the time of day / sky condition, the
hardware setup and the protocol parameters, and exposes the derived
channel states and key rates that the CLI and the experiment scripts
consume.  Bounds and rates are evaluated at one geometry (bounds_at,
rate_at) or at each point of a sweep in turn (bounds_sweep, rate_sweep).
A bounds sweep builds each point's fading model once and takes the
beam-wandering integrals of each chunk of its points in one batch; a point
is a sweep of one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

from . import bounds, cvqkd, fading, noise, orbit
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


# points per chunk of a bounds sweep: it bounds the memory of its batch, of
# up to CHUNK models of two rows each (B at eta and at nbar), every row
# evaluated at each level of the quadrature until all are accepted
CHUNK = 64


# the columns of the CLI bounds sweep at a point
Bounds = namedtuple("Bounds", "U V B upper lower eta nbar")


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

    def bounds_at(self, h: float, theta: float) -> Bounds:
        """The columns of the CLI bounds sweep at one point.

        U, V and B, the thermal-loss upper and lower bounds, eta and nbar.
        """
        return self.bounds_sweep([(h, theta)])[0]

    def bounds_sweep(self, points: list[tuple[float, float]]) -> list[Bounds]:
        """bounds_at at each point (h, theta) in turn.

        The points run CHUNK at a time.  A chunk's fading models are built
        once, in point order and with their warnings, up to the first that
        fails.  The beam-wandering integrals of their bounds are taken in one
        batch (bounds.loss_bounds) and handed to the points, which are
        evaluated; then the failing point's error is raised.  So a sweep
        gives the numbers, warnings and error of its points run alone, up to
        its first failing point.
        """
        # the batch needs numpy, whose import resets the registry of warnings
        # already shown: loaded at the first batch, it would let the first
        # chunk's warnings print again for the next chunk
        import numpy  # noqa: F401

        results = []
        for lo in range(0, len(points), CHUNK):
            built, failure = [], None
            for h, theta in points[lo:lo + CHUNK]:
                try:
                    built.append((h, theta, self.fading_model(h, theta)))
                except (ValueError, ArithmeticError, NumericalError) as exc:
                    failure = exc
                    break
            pairs = bounds.loss_bounds([model for _, _, model in built], self.nbar)
            results += [self._bounds(*point, *pair) for point, pair in zip(built, pairs)]
            if failure is not None:
                raise failure
        return results

    def _bounds(self, h: float, theta: float, model: FadingModel, b: float, b_nbar: float) -> Bounds:
        """The columns at (h, theta), from its model's B at eta and at nbar."""
        z = slant_range(h, theta)
        nbar = self.nbar
        aperture = self.receiver.aperture
        # V's fixed loss reuses the extinction the fading model computed
        eta_fixed = self.receiver.efficiency * model.eta_atm * eta_diffraction(z, self.beam, aperture)
        return Bounds(
            U=diffraction_bound(z, self.beam, aperture),
            V=plob(eta_fixed),
            B=b,
            upper=bounds.thermal_upper(nbar, model, b, b_nbar),
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

    def rate_at(self, h: float, theta: float, attacks: str = "collective") -> KeyRate:
        """Post-selected composable key rate at a fixed geometry."""
        self.protocol.check_attacks(attacks)
        model = self.fading_model(h, abs(theta))
        return cvqkd.postselected_rate(model, self.nbar_prime, self.protocol, attacks)

    def rate_sweep(self, h: float, thetas: list[float], attacks: str) -> list[KeyRate]:
        """rate_at at altitude h and each angle of thetas in turn."""
        self.protocol.check_attacks(attacks)
        return [self.rate_at(h, theta, attacks) for theta in thetas]

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
