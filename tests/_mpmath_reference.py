"""The slant range, the extinction line of sight, the turbulence columns and the wander integral in mpmath at 40 digits.

Written from the model's formulas, independently of satlink's code: a
spherical Earth of radius R, a path cut where it reaches 200 km, and the
C_n^2 profiles term by term.  The slant range is the law of cosines
unrationalised: at 40 digits its cancellation costs at most 7 of them.
Each other value is a quadrature by mp.quad, so it shares no cancellation
and no rounding with the closed forms and the double-precision rules it
checks.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

from _reference import HUFNAGEL_STANLEY, HUFNAGEL_VALLEY

DIGITS = 40
R = mp.mpf(6.371e6)
PATH_TOP = mp.mpf(200e3)


def _slant(top, cos_theta):
    """Slant range to altitude top at zenith angle theta."""
    return mp.sqrt((R + top) ** 2 - R * R * (1 - cos_theta * cos_theta)) - R * cos_theta


def slant_range(h: float, theta: float):
    """Slant range to altitude h at zenith angle theta, from the doubles h and theta."""
    with mp.workdps(DIGITS):
        return _slant(mp.mpf(h), mp.cos(mp.mpf(abs(theta))))


@lru_cache(maxsize=None)
def line_of_sight(h: float, theta: float, h_scale: float):
    """Integral of exp(-h(y) / h_scale) over the slant range y to (h, theta), cut at PATH_TOP."""
    with mp.workdps(DIGITS):
        cos_theta = mp.cos(mp.mpf(abs(theta)))
        h_scale = mp.mpf(h_scale)
        top = min(mp.mpf(h), PATH_TOP)

        def integrand(y):
            # h(y) = sqrt(R^2 + y^2 + 2 y R cos) - R, rationalised
            rise = y * y + 2 * y * R * cos_theta
            return mp.exp(-rise / (mp.sqrt(R * R + rise) + R) / h_scale)

        # panels at 1, 3, 10 and 30 scale heights: the integrand's own scales
        edges = [mp.mpf(0)] + [_slant(k * h_scale, cos_theta) for k in (1, 3, 10, 30) if k * h_scale < top]
        return mp.quad(integrand, edges + [_slant(top, cos_theta)])


def eta_atm(h: float, theta: float, alpha0: float, h_scale: float):
    with mp.workdps(DIGITS):
        return mp.exp(-mp.mpf(alpha0) * line_of_sight(h, theta, h_scale))


def cn2(h, profile: str):
    """The named Hufnagel-Valley or Hufnagel-Stanley C_n^2 at altitude h > 0, from the
    parameters of the oracles' table."""
    if profile in HUFNAGEL_STANLEY:
        hs_c1, hs_c2 = HUFNAGEL_STANLEY[profile]
        return mp.mpf(hs_c1) * h ** (-mp.mpf(1) / 3) * mp.exp(-h / mp.mpf(hs_c2))
    a_ground, windspeed = HUFNAGEL_VALLEY[profile]
    v = mp.mpf(windspeed)
    return (
        mp.mpf("5.94e-53") * (v / 27) ** 2 * h**10 * mp.exp(-h / 1000)
        + mp.mpf("2.7e-16") * mp.exp(-h / 1500)
        + mp.mpf(a_ground) * mp.exp(-h / 100)
    )


@lru_cache(maxsize=None)
def column(p: str, profile: str):
    """Integral over h in [0, inf) of h^p C_n^2(h) of the named profile, for p given as a fraction such as "5/6"."""
    with mp.workdps(DIGITS):
        power = mp.mpf(mp.fraction(*map(int, p.split("/")))) if "/" in p else mp.mpf(p)
        edges = [0, 100, 1000, 3000, 1e4, 3e4, 1e5, mp.inf]
        return mp.quad(lambda h: h**power * cn2(h, profile), edges)


@lru_cache(maxsize=None)
def wander_integral(eta: float, s: float, gamma: float):
    """The integral I of the beam-wandering factor Delta = 1 + (eta / ln(1 - eta)) I:
    over x in [0, inf) of exp(-s x^(2 / gamma)) / (e^x - eta), s the spread r0^2 / 2 sigma^2."""
    with mp.workdps(DIGITS):
        s = mp.mpf(s)
        power = 2 / mp.mpf(gamma)
        return mp.quad(lambda x: mp.exp(-s * x**power) / (mp.exp(x) - mp.mpf(eta)), [0, 1, mp.inf])
