"""Background thermal photons collected by the receiver.

Uplink noise is sunlight scattered from the Earth (day) or moonlight relayed
via the Earth (night); downlink noise is sky radiance.  Shipped irradiance
constants are the 800 nm values; other wavelengths require caller-supplied
irradiances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beam import ReceiverParams

H_SUN_800NM = 4.61e18  # solar spectral irradiance, photons / (m^2 s nm sr)

# sky spectral irradiance at 800 nm, photons / (m^2 s nm sr)
H_SKY_800NM = {
    ("night", "clear"): 1.9e13,   # full-Moon clear night
    ("night", "cloudy"): 1.9e13,  # no separate cloudy night figure is modeled
    ("day", "clear"): 1.9e16,
    ("day", "cloudy"): 1.9e18,
}

ALBEDO_EARTH = 0.3
ALBEDO_MOON = 0.12
RADIUS_MOON_M = 1.737e6
DIST_EARTH_MOON_M = 3.84e8

PLANCK_H = 6.62607015e-34
SPEED_OF_LIGHT = 299792458.0
BOLTZMANN_K = 1.380649e-23


def kappa_night() -> float:
    """Albedo-geometry factor for moonlit night uplink (Lambertian disks)."""
    return ALBEDO_EARTH * ALBEDO_MOON * RADIUS_MOON_M**2 / DIST_EARTH_MOON_M**2


def kappa_day() -> float:
    """Day uplink factor: the Earth albedo."""
    return ALBEDO_EARTH


@dataclass(frozen=True)
class NoiseEnvironment:
    """Operational background-noise setting for one link direction."""

    direction: str               # "up" | "down"
    period: str = "night"        # "day" | "night"
    sky: str = "clear"           # "clear" | "cloudy" (downlink only)
    h_sun: float = H_SUN_800NM
    h_sky: float | None = None   # override; default resolved from period/sky
    kappa: float | None = None   # override; default resolved from period

    def __post_init__(self):
        if self.direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")
        if self.period not in ("day", "night"):
            raise ValueError("period must be 'day' or 'night'")
        if self.sky not in ("clear", "cloudy"):
            raise ValueError("sky must be 'clear' or 'cloudy'")

    @classmethod
    def from_name(cls, name: str) -> "NoiseEnvironment":
        """Build from a scenario name like 'day-down-clear' or 'night-up'."""
        parts = name.split("-")
        if len(parts) not in (2, 3):
            raise ValueError(f"unknown noise scenario {name!r}")
        period, direction = parts[0], parts[1]
        sky = parts[2] if len(parts) == 3 else "clear"
        return cls(direction=direction, period=period, sky=sky)

    @property
    def name(self) -> str:
        base = f"{self.period}-{self.direction}"
        if self.direction == "down" and self.period == "day":
            return f"{base}-{self.sky}"
        return base


def nbar_background(env: NoiseEnvironment, receiver: ReceiverParams) -> float:
    """Mean background photons per detected mode, before setup efficiency."""
    if env.direction == "up":
        kappa = env.kappa
        if kappa is None:
            kappa = kappa_day() if env.period == "day" else kappa_night()
        return kappa * env.h_sun * receiver.gamma_r
    h_sky = env.h_sky if env.h_sky is not None else H_SKY_800NM[(env.period, env.sky)]
    return h_sky * receiver.gamma_r


def nbar_total(env: NoiseEnvironment, receiver: ReceiverParams) -> float:
    """Thermal photons referred to the channel output: eta_eff*n_B + n_ex."""
    return receiver.efficiency * nbar_background(env, receiver) + receiver.excess_photons


def nbar_env(nbar: float, tau: float) -> float:
    """Environment photon number n_e = n / (1 - tau) of the equivalent channel."""
    if not 0.0 <= tau < 1.0:
        raise ValueError("transmissivity must lie in [0, 1)")
    return nbar / (1.0 - tau)


def blackbody_radiance(wavelength: float, temperature: float) -> float:
    """Black-body spectral photon radiance, photons / (m^2 s nm sr)."""
    if wavelength <= 0 or temperature <= 0:
        raise ValueError("wavelength and temperature must be positive")
    x = PLANCK_H * SPEED_OF_LIGHT / (wavelength * BOLTZMANN_K * temperature)
    if x > 700.0:  # deep Wien tail; exp(x) overflows and the radiance is ~0
        return 0.0
    per_meter = 2.0 * SPEED_OF_LIGHT * wavelength**-4 / math.expm1(x)
    return per_meter * 1e-9


def nbar_body(
    receiver: ReceiverParams, wavelength: float = 800e-9, temperature: float = 288.0
) -> float:
    """Mean photons from planetary black-body emission; negligible vs albedo noise."""
    return blackbody_radiance(wavelength, temperature) * receiver.gamma_r
