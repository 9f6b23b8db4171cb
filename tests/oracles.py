"""The paper's numbers, computed independently of the package's numerics.

Everything here is ``mpmath`` at 50 digits.  A ratio or gap is given as an
int, a ``Fraction`` (read exactly) or a float (read as its binary value),
so an oracle is the exact number of the system the package holds.
"""

from fractions import Fraction

import mpmath

DIGITS = 50


def _mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def dimension(ratios):
    """The similarity dimension: the root s of sum_r r^s = 1."""
    with mpmath.workdps(DIGITS):
        rs = [_mpf(r) for r in ratios]
        return mpmath.findroot(lambda s: sum(r**s for r in rs) - 1, 0.5)


def residue_over_d(ratios, first_gaps):
    """R/d, the Dixmier trace of |D|^-d on the gap model of a stationary
    system (Connes' residue formula).  Each first-level gap g gives two
    entries, so zeta(s) = 2 sum_g g^s / (1 - sum_r r^s), whose residue at
    d is R = 2 sum_g g^d / sum_r r^d log(1/r)."""
    with mpmath.workdps(DIGITS):
        d = dimension(ratios)
        rs = [_mpf(r) for r in ratios]
        return 2 * sum(_mpf(g)**d for g in first_gaps) \
            / (d * sum(r**d * mpmath.log(1 / r) for r in rs))
