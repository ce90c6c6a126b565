"""Exact rational scalars used by every geometric module.

All geometry in this package is done over Q, the stdlib Fraction.  The
hot predicates of ``plgeom`` lift their inputs to integers over one
common denominator and build rationals only for the points they return.
"""

from fractions import Fraction as Q


def qstr(x):
    """Canonical string form of a rational."""
    x = Q(x)
    n, d = x.numerator, x.denominator
    if d == 1:
        return str(n)
    return "%d/%d" % (n, d)


def sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0
