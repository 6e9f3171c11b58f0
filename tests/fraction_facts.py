"""Fraction facts used by the bound proofs, checked by the property and
acceptance tests: the mediant sandwich and the ratio-series lower bound."""

from fractions import Fraction
from typing import Sequence

from vattol import BadParameter


def _positive_fraction(x, name: str) -> Fraction:
    f = Fraction(x)
    if f <= 0:
        raise BadParameter(f"{name} must be positive, got {x}")
    return f


def mediant_between(a, x, b, y) -> Fraction:
    """The mediant (a+b)/(x+y) of the fractions a/x and b/y.

    For positive inputs with a/x < b/y the mediant lies strictly between
    the two; that sandwich is what the property tests pin down.
    """
    a, x, b, y = (
        _positive_fraction(a, "a"),
        _positive_fraction(x, "x"),
        _positive_fraction(b, "b"),
        _positive_fraction(y, "y"),
    )
    return (a + b) / (x + y)


def series_lower_bound(pairs: Sequence[tuple], c) -> bool:
    """Exact test of c <= (sum of numerators) / (sum of denominators).

    Whenever c is at most every individual ratio a_i/b_i, this is
    guaranteed true (summing preserves a common lower bound); the
    property tests exercise exactly that implication.
    """
    if not pairs:
        raise BadParameter("need at least one (numerator, denominator) pair")
    nums = []
    dens = []
    for a, b in pairs:
        nums.append(_positive_fraction(a, "numerator"))
        dens.append(_positive_fraction(b, "denominator"))
    return Fraction(c) <= sum(nums) / sum(dens)
