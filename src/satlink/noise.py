"""Background thermal photons collected by the receiver.

Uplink noise is sunlight scattered from the Earth (day) or moonlight relayed
via the Earth (night); downlink noise is sky radiance.  Shipped irradiance
constants are the 800 nm values; other wavelengths require caller-supplied
irradiances.
"""

from __future__ import annotations

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

# albedo-geometry factor for moonlit night uplink (Lambertian disks)
KAPPA_NIGHT = ALBEDO_EARTH * ALBEDO_MOON * RADIUS_MOON_M**2 / DIST_EARTH_MOON_M**2
# day uplink factor: the Earth albedo
KAPPA_DAY = ALBEDO_EARTH


def nbar_background(
    link: str,
    period: str,
    sky: str,
    receiver: ReceiverParams,
    h_sky: float | None = None,
    kappa: float | None = None,
) -> float:
    """Mean background photons per detected mode, before setup efficiency.

    link is "up" or "down", period "day" or "night", sky "clear" or "cloudy"
    (downlink only), as a Scenario checks them.  h_sky overrides the sky
    irradiance of a downlink, kappa the albedo factor of an uplink.
    """
    if link == "up":
        if kappa is None:
            kappa = KAPPA_DAY if period == "day" else KAPPA_NIGHT
        return kappa * H_SUN_800NM * receiver.gamma_r
    if h_sky is None:
        h_sky = H_SKY_800NM[(period, sky)]
    return h_sky * receiver.gamma_r


def nbar_total(n_background: float, receiver: ReceiverParams) -> float:
    """Thermal photons referred to the channel output: eta_eff*n_B + n_ex."""
    return receiver.efficiency * n_background + receiver.excess_photons
