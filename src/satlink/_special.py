"""In-repo replacements for the scipy.special functions satlink uses.

i0e and i1e evaluate the Chebyshev expansions of the Cephes library
(S. L. Moshier; numpy.i0 uses the same I0 tables) with Clenshaw's
recurrence, in the same order as Cephes, so they return the same doubles
as scipy.special.i0e and i1e.  That matters for more than accuracy: in the
far field fading.bessel_f0 takes 1 - i0e(2x), which cancels, and the
Weibull shape gamma built from it turns a one-ulp change in i0e into a
relative change of order 1e-16 / x^2.
"""

from __future__ import annotations

import math


# Chebyshev coefficients, highest order first: exp(-y) I0(y) and
# exp(-y) I1(y) / y on [0, 8] in the variable y/2 - 2, and
# sqrt(y) exp(-y) I_n(y) on (8, inf) in the variable 32/y - 2
_I0_SMALL = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0_LARGE = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)
_I1_SMALL = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16,
    -1.1055969477353862e-15, 7.600684294735408e-15, -5.042185504727912e-14,
    3.223793365945575e-13, -1.9839743977649436e-12, 1.1736186298890901e-11,
    -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07,
    -8.568720264695455e-07, 3.4702513081376785e-06, -1.3273163656039436e-05,
    4.781565107550054e-05, -0.00016176081582589674, 0.0005122859561685758,
    -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471,
    -0.17641651835783406, 0.25258718644363365,
)
_I1_LARGE = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17,
    -3.209525921993424e-17, 2.96262899764595e-16, 3.3082023109209285e-16,
    -1.8803547755107825e-15, -3.8144030724370075e-15, 1.0420276984128802e-14,
    4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11,
    3.2526035830154884e-11, -1.8974958123505413e-11, -5.589743462196584e-10,
    -3.835380385964237e-09, -2.6314688468895196e-08, -2.512236237870209e-07,
    -3.882564808877691e-06, -0.00011058893876262371, -0.009761097491361469,
    0.7785762350182801,
)


def _chbevl(x: float, coefficients: tuple[float, ...]) -> float:
    """Sum of a Chebyshev series at x in [-2, 2] (Cephes' half-sum form)."""
    b0, b1, b2 = coefficients[0], 0.0, 0.0
    for c in coefficients[1:]:
        b2 = b1
        b1 = b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _scaled_bessel(y: float, small: tuple[float, ...], large: tuple[float, ...], times_y: bool) -> float:
    """Cephes' exp(-y) I_n(y): the small table's sum in y/2 - 2 on [0, 8]
    (times y when times_y), the large one's in 32/y - 2 over sqrt(y) beyond.
    """
    if y > 8.0:
        return _chbevl(32.0 / y - 2.0, large) / math.sqrt(y)
    value = _chbevl(y / 2.0 - 2.0, small)
    return value * y if times_y else value


def i0e(y: float) -> float:
    """Exponentially scaled modified Bessel function exp(-y) I0(y), y >= 0."""
    return _scaled_bessel(y, _I0_SMALL, _I0_LARGE, False)


def i1e(y: float) -> float:
    """Exponentially scaled modified Bessel function exp(-y) I1(y), y >= 0."""
    return _scaled_bessel(y, _I1_SMALL, _I1_LARGE, True)


# Wichura's AS241 (Applied Statistics 37, 477, 1988) as the standard library
# spells it for NormalDist.inv_cdf, whose doubles erfcinv returns: numerator and
# denominator, highest order first, in q = p - 1/2 for |q| <= 0.425 (the
# numerator times q), beyond in r = sqrt(-ln(min(p, 1 - p))) - 1.6 for r <= 5, r - 5 above
_AS241 = (
    ((2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987, 13731.69376550946,
      1971.5909503065513, 133.14166789178438, 3.3871328727963665),
     (5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597, 5394.196021424751,
      687.1870074920579, 42.31333070160091, 1.0)),
    ((0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684, 3.6478483247632045,
      5.769497221460691, 4.630337846156546, 1.4234371107496835),
     (1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457, 0.14810397642748008,
      0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0)),
    ((2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784, 0.026532189526576124,
      0.29656057182850487, 1.7848265399172913, 5.463784911164114, 6.657904643501103),
     (2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05, 0.0007868691311456133,
      0.014875361290850615, 0.1369298809227358, 0.599832206555888, 1.0)),
)


def _ratio(r: float, rational, times: float = 1.0) -> float:
    """A rational approximation at r, each polynomial by Horner's rule, its numerator times `times`."""
    (num, *num_rest), (den, *den_rest) = rational
    for a, b in zip(num_rest, den_rest):
        num, den = num * r + a, den * r + b
    return num * times / den


def erfcinv(x: float) -> float:
    """Inverse complementary error function for x in (0, 2): erfc(y) = 2 Phi(-sqrt(2) y),
    so the standard normal quantile z of p = x / 2 inverts it."""
    # x / 2 rounds to 0 for the smallest subnormal x: take the nearest positive p
    p = max(x / 2.0, 5e-324)
    q = p - 0.5
    if abs(q) <= 0.425:
        z = _ratio(0.180625 - q * q, _AS241[0], q)
    else:
        r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
        z = _ratio(r - 1.6, _AS241[1]) if r <= 5.0 else _ratio(r - 5.0, _AS241[2])
        z = -z if q < 0.0 else z
    return -z / math.sqrt(2.0)
