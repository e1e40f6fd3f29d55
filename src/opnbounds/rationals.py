"""Exact rational scalars.

Every coefficient in this package is a fractions.Fraction. Fraction already
guarantees the invariants we rely on (lowest terms, positive denominator,
arbitrary precision integers), so this module only pins down the one string
spelling that crosses file and CLI boundaries.
"""
from __future__ import annotations

import re
from fractions import Fraction

# accepted wire format: optional sign, integer, optional /denominator with no
# sign and no leading zero; no whitespace, no decimals
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'n/d' in the strict wire grammar."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Canonical spelling: 'n/d', or plain 'n' when the denominator is 1."""
    return str(value)
