"""Zenith-crossing circular-orbit pass dynamics and ground-network comparison.

Time is measured from the zenith crossing (t = 0); the zenith angle carries
the sign of t, so a pass runs from -t_T/2 (front horizon) to +t_T/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .beam import plob
from .geometry import EARTH, R_EARTH, slant_orbital, slant_range

SECONDS_PER_DAY = 86400.0
SUN_SYNC_MAX_ALT_M = 5.98e6


def orbital_period(h: float) -> float:
    """Orbital period (s) of a circular orbit at altitude h."""
    if h <= 0:
        raise ValueError("orbital altitude must be positive")
    r_s = R_EARTH + h
    return 2.0 * math.pi * math.sqrt(r_s**3 / EARTH.mu_g)


def sun_sync_inclination(h: float) -> float:
    """Sun-synchronous inclination (degrees) for a circular orbit at altitude h.

    The constant 12352 applies with lengths expressed in km; orbits above
    5980 km cannot precess fast enough to stay sun-synchronous.
    """
    if h <= 0:
        raise ValueError("orbital altitude must be positive")
    if h > SUN_SYNC_MAX_ALT_M:
        raise ValueError("no sun-synchronous solution above 5980 km")
    ratio = ((R_EARTH + h) / 1e3) / 12352.0
    return math.degrees(math.acos(-(ratio**3.5)))


def _angular_rate(h: float) -> float:
    return math.sqrt(EARTH.mu_g / (R_EARTH + h) ** 3)


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
    if t > math.pi / 2 + 1e-12:
        raise ValueError("zenith angle outside [-pi/2, pi/2]")
    r_s = R_EARTH + h
    z = slant_range(h, t)
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

    Each slice carries one data block; if the requested blocks do not fit in
    the quantum transit time the count is reduced with a warning.  Returns
    signed (theta_i, theta_i+1) pairs running from -1 to +1.
    """
    if n_blocks < 1:
        raise ValueError("need at least one block")
    t_q, _ = transit_times(h)
    fit = int(t_q * clock_hz // block_size)
    if fit < 1:
        return []
    if n_blocks > fit:
        warnings.warn(
            f"only {fit} blocks of {block_size:g} pulses fit in t_Q={t_q:.1f} s;"
            f" reducing from {n_blocks}",
            stacklevel=2,
        )
        n_blocks = fit
    dt = t_q / n_blocks
    times = [-t_q / 2.0 + i * dt for i in range(n_blocks + 1)]
    angles = [zenith_angle_at(t, h) for t in times]
    # the window boundary is exactly 1 radiant by construction
    angles[0], angles[-1] = -1.0, 1.0
    return list(zip(angles[:-1], angles[1:]))


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


def slice_min_rate(rate_fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Worst-case rate within one slice.

    For a circular orbit the minimum sits at the endpoint of larger |theta|;
    a golden-section probe of the interior guards against that assumption.
    """
    endpoint = min(rate_fn(lo), rate_fn(hi))
    _, interior = golden_section(rate_fn, lo, hi, 1e-4)
    return min(endpoint, interior)


def orbital_rate(
    rate_fn: Callable[[float], float], slices: Sequence[tuple[float, float]]
) -> tuple[float, list[float]]:
    """Average orbital rate (1/n) sum_i max(0, R_i) and the per-slice minima."""
    if not slices:
        raise ValueError("empty slice list")
    per_slice = [slice_min_rate(rate_fn, lo, hi) for lo, hi in slices]
    avg = sum(max(0.0, r) for r in per_slice) / len(per_slice)
    return avg, per_slice


@dataclass(frozen=True)
class GroundComparison:
    """Fiber/repeater baseline between two ground stations."""

    alpha_fib_db_per_km: float = 0.2
    clock_hz: float = 5e6

    def eta_fiber(self, d_station: float) -> float:
        return 10.0 ** (-self.alpha_fib_db_per_km * (d_station / 1e3) / 10.0)


def station_distance(delta_t: float, h: float) -> float:
    """Great-circle distance between two stations Delta_t apart along the orbit."""
    t_s = orbital_period(h)
    if not 0.0 <= delta_t <= t_s / 2.0:
        raise ValueError("station transit time must lie in [0, T_S/2]")
    return 2.0 * math.pi * delta_t * R_EARTH / t_s


def fiber_rate(d_station: float, comparison: GroundComparison = GroundComparison()) -> float:
    """Repeaterless fiber key capacity (bits/use) between the stations."""
    return plob(comparison.eta_fiber(d_station))


def repeater_rate(
    d_station: float,
    n_repeaters: int,
    comparison: GroundComparison = GroundComparison(),
) -> float:
    """Capacity with n ideal repeaters splitting the fiber into equal hops."""
    if n_repeaters < 0:
        raise ValueError("repeater count must be non-negative")
    eta = comparison.eta_fiber(d_station) ** (1.0 / (n_repeaters + 1))
    return plob(eta)


def bits_per_day(rate: float, clock_hz: float) -> float:
    """Secret bits per day at the given clock for a continuously used link."""
    return rate * clock_hz * SECONDS_PER_DAY
