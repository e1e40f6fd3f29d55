"""Exact rational scalars.

Every coefficient in this package is a fractions.Fraction. Fraction already
guarantees the invariants we rely on (lowest terms, positive denominator,
arbitrary precision integers), so this module only pins down the one string
spelling that crosses file and CLI boundaries, the one check that an input
is a numbers.Rational, and the one way the exact checks clear denominators.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from numbers import Rational

# accepted wire format: optional sign, integer, optional /denominator with no
# sign and no leading zero; no whitespace, no decimals
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'n/d' in the strict wire grammar."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(text)


def as_rational(value, what, of=None) -> Fraction:
    """value as a Fraction, or TypeError naming what (of which variable) it
    is. A float in particular is refused: Fraction(0.1) is its binary value,
    3602879701896397/36028797018963968, not 1/10."""
    if type(value) is Fraction:
        return value
    if not isinstance(value, Rational):
        where = "" if of is None else f" of {of!r}"
        raise TypeError(f"{what} {value!r}{where} is not a rational number")
    return Fraction(value)


def format_rational(value: Fraction) -> str:
    """Canonical spelling: 'n/d', or plain 'n' when the denominator is 1."""
    return str(value)


def clear_denominators(values) -> tuple:
    """(unit, ints): unit > 0 the lcm of the denominators of the rationals
    in values, ints the values times unit as ints, in order. values must
    be iterable twice (a list, tuple or dict view)."""
    # list comprehensions, not generators: on CPython 3.11 generators here
    # raised the peak RSS of a process that verifies many freshly built
    # systems by about 0.9 MB
    unit = lcm(*[v.denominator for v in values])
    return unit, [v.numerator * (unit // v.denominator) for v in values]
