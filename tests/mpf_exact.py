"""The exact value of an mpmath float, for test oracles that run on mpmath."""

from fractions import Fraction

import mpmath


def mpf_exact(x: mpmath.mpf) -> Fraction:
    """The binary value an mpf stores, as an exact rational.

    ``man_exp`` gives the magnitude's mantissa and exponent, so the sign is
    taken separately.
    """
    man, exp = x.man_exp
    return Fraction(int(mpmath.sign(x)) * int(man)) * Fraction(2) ** int(exp)
