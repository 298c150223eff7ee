"""Zenith-crossing circular-orbit pass dynamics and ground-network comparison.

Time is measured from the zenith crossing (t = 0); the zenith angle carries
the sign of t, so a pass runs from -t_T/2 (front horizon) to +t_T/2.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Sequence

from .beam import LN2, plob
from .errors import NumericalError, guard
from .geometry import MU_EARTH, R_EARTH, slant_orbital, slant_range

SECONDS_PER_DAY = 86400.0
SUN_SYNC_MAX_ALT_M = 5.98e6
ALPHA_FIBER_DB_PER_KM = 0.2  # fiber attenuation of the ground comparison
LN10 = math.log(10.0)


def orbital_period(h: float) -> float:
    """Orbital period (s) of a circular orbit at altitude h."""
    r_s = R_EARTH + h
    return 2.0 * math.pi * math.sqrt(r_s**3 / MU_EARTH)


def sun_sync_inclination(h: float) -> float:
    """Sun-synchronous inclination (degrees) for a circular orbit at altitude h.

    The constant 12352 applies with lengths expressed in km; orbits above
    5980 km cannot precess fast enough to stay sun-synchronous.
    """
    if h > SUN_SYNC_MAX_ALT_M:
        raise ValueError("no sun-synchronous solution above 5980 km")
    ratio = ((R_EARTH + h) / 1e3) / 12352.0
    return math.degrees(math.acos(-(ratio**3.5)))


def _angular_rate(h: float) -> float:
    return math.sqrt(MU_EARTH / (R_EARTH + h) ** 3)


def horizon_orbital_angle(h: float) -> float:
    """Orbital angle at which the satellite reaches the local horizon."""
    return math.acos(R_EARTH / (R_EARTH + h))


def zenith_angle_at(t: float, h: float) -> float:
    """Signed zenith angle at time t (s from the zenith crossing)."""
    r_s = R_EARTH + h
    alpha = _angular_rate(h) * t
    if abs(alpha) > horizon_orbital_angle(h) + 1e-12:
        raise ValueError(f"satellite below the horizon at t={t} s")
    z = slant_orbital(r_s, alpha)
    s = r_s * math.sin(abs(alpha)) / z
    return math.copysign(math.asin(min(1.0, s)), t)


def time_of_zenith(theta: float, h: float) -> float:
    """Time after the zenith crossing at which |zenith angle| reaches theta."""
    t = abs(theta)
    r_s = R_EARTH + h
    z = slant_range(h, t)  # rejects |theta| > pi/2
    cos_alpha = (R_EARTH + z * math.cos(t)) / r_s
    alpha = math.acos(min(1.0, max(-1.0, cos_alpha)))
    return math.copysign(alpha / _angular_rate(h), theta)


def transit_times(h: float) -> tuple[float, float]:
    """(quantum transit time within 1 rad, total horizon-to-horizon time), s."""
    return 2.0 * time_of_zenith(1.0, h), 2.0 * time_of_zenith(math.pi / 2, h)


def slice_orbit(
    h: float, n_blocks: int, clock_hz: float, block_size: float
) -> list[tuple[float, float]]:
    """Partition the 1-radiant window into equal-duration angular slices.

    Each slice carries one data block; blocks that do not fit in the quantum
    transit time are dropped, and the guard orbit.blocks_reduced fires.
    Returns signed (theta_i, theta_i+1) pairs running from -1 to +1.
    """
    t_q, _ = transit_times(h)
    fit = int(min(n_blocks, t_q * clock_hz // block_size))  # min skips the nan of an infinite clock
    if fit < 1:
        return []
    if n_blocks > fit:
        guard("orbit.blocks_reduced", f"only {fit} blocks of {block_size:g} pulses fit in t_Q={t_q:.1f} s;"
              f" reducing from {n_blocks}")
        n_blocks = fit
    dt = t_q / n_blocks
    times = [-t_q / 2.0 + i * dt for i in range(n_blocks + 1)]
    angles = [zenith_angle_at(t, h) for t in times]
    # the window boundary is exactly 1 radiant by construction
    angles[0], angles[-1] = -1.0, 1.0
    return list(zip(angles[:-1], angles[1:]))


def orbital_rate(
    rate_fn: Callable[[float], float], slices: Sequence[tuple[float, float]]
) -> tuple[float, list[float]]:
    """Average orbital rate (1/n) sum_i max(0, R_i) and the per-slice minima R_i.

    R_i is the smaller edge rate, as the rate does not rise with |theta|: a
    slice's midpoint rate below it raises NumericalError.  The rate depends on
    |theta| only, and each distinct |theta| is evaluated once."""
    if not slices:
        raise ValueError("empty slice list")
    rate = functools.cache(rate_fn)
    per_slice = []
    for lo, hi in slices:
        per_slice.append(min(rate(abs(lo)), rate(abs(hi))))
        if rate(abs(0.5 * (lo + hi))) < per_slice[-1]:
            raise NumericalError(
                f"the rate in the middle of the slice [{lo:.6g}, {hi:.6g}] lies below the rates at its ends"
            )
    avg = sum(max(0.0, r) for r in per_slice) / len(per_slice)
    return avg, per_slice


def repeater_rate(d_station: float, n_repeaters: int = 0) -> float:
    """Key capacity (bits/use) of the fiber between the stations, split into
    equal hops by n ideal repeaters; n = 0 is the repeaterless fiber.

    A hop that transmits more than half takes its loss 1 - eta as
    -expm1(ln eta): with many repeaters eta rounds to 1, where plob's
    1 - eta would be 0 and the capacity infinite.  Where that loss falls
    below the smallest normal double (and hop_db with it), -log2 takes its
    logarithm, ln(hop_db ln 10 / 10), a sum of logs that does not underflow.
    """
    hop_db = ALPHA_FIBER_DB_PER_KM * (d_station / 1e3) / (n_repeaters + 1)
    loss = -math.expm1(-hop_db / 10.0 * LN10)
    if d_station > 0.0 and loss < sys.float_info.min:
        log_db = math.log(ALPHA_FIBER_DB_PER_KM) + math.log(d_station) - math.log(1e3) - math.log(n_repeaters + 1)
        return -(log_db + math.log(LN10 / 10.0)) / LN2
    if 0.0 < loss < 0.5:  # a lossless hop (d = 0) takes plob's infinity
        return -math.log2(loss)
    return plob(10.0 ** (-hop_db / 10.0))


def bits_per_day(rate: float, clock_hz: float) -> float:
    """Secret bits per day at the given clock for a continuously used link."""
    return rate * clock_hz * SECONDS_PER_DAY
