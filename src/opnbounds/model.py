"""Linear constraint systems over the factorization shape of an odd perfect
number N = q^e * m^2 with special prime q.

Variable glossary (nonnegative; the LP relaxation allows rationals, the
integer scan uses integers):

    e      exponent of the special prime
    s      count of primes dividing m, other than 3, with exponent exactly 1
           in m (so their square contributes sigma(p^2) = p^2+p+1 to N)
    t      count of primes dividing m, other than 3, with larger exponent
    s1     those of the s primes whose p^2+p+1 is prime
    s2     ... a product of exactly two primes
    s3     ... a product of three or more primes
    s21    the s2 primes with p = 1 mod 3 (then 3 divides p^2+p+1)
    s22    the s2 primes with p = 2 mod 3
    s31    the s3 primes with p = 1 mod 3
    s32    the s3 primes with p = 2 mod 3
    f3     exponent of 3 in N (zero when 3 does not divide N)
    f4     total prime multiplicity contributed by the t large-exponent primes
    Omega  number of prime factors of N counted with multiplicity
    omega  number of distinct prime factors of N

The two cases split on whether 3 divides N: three_coprime (it does not,
forcing f3 = s21 = s31 = 0) and three_divides (it does, adding one distinct
prime to omega; optionally also the sharpening f3 >= 2).
"""
from __future__ import annotations

from enum import Enum, IntEnum
from fractions import Fraction
from typing import Mapping, NamedTuple

from .linexpr import LinExpr
from .rationals import as_rational, clear_denominators, format_rational


class Var(IntEnum):
    """Model variables; the declaration order is the pivot and tie-break
    order everywhere (simplex columns, witness comparisons, reports)."""

    e = 0
    s = 1
    t = 2
    s1 = 3
    s2 = 4
    s3 = 5
    s21 = 6
    s22 = 7
    s31 = 8
    s32 = 9
    f3 = 10
    f4 = 11
    Omega = 12
    omega = 13


# display names; only the two totals get non-ascii glyphs
_PRETTY = {Var.Omega: "Ω", Var.omega: "ω"}


def var_display(var: Var) -> str:
    return _PRETTY.get(var, var.name)


class Case(Enum):
    THREE_COPRIME = "three_coprime"
    THREE_DIVIDES = "three_divides"


class Relation(Enum):
    GE = "≥ 0"
    EQ = "= 0"


class Constraint(NamedTuple):
    name: str        # stable snake_case id, the key certificates use
    label: str       # table equation label, e.g. "Eq. 9"; "case" for the split extras
    relation: Relation
    body: LinExpr    # relation applies to the body: body >= 0 or body = 0


class ConstraintSystem(NamedTuple):
    case: Case
    include_f3_min2: bool
    constraints: tuple

    def mapping(self) -> dict:
        return {c.name: c for c in self.constraints}

    def first_violated(self, point: Mapping) -> Constraint | None:
        """The first constraint that does not hold exactly at the point, or
        None when all hold; the point assigns every variable a body reads.

        Every coordinate must be a numbers.Rational; anything else, a float
        in particular, raises TypeError naming its variable. Each body is
        checked as the sign of its integer form over the point's numerators,
        with the point's denominators cleared once."""
        for var, value in point.items():
            as_rational(value, "coordinate", var)
        unit, ints = clear_denominators(point.values())
        scaled = dict(zip(point, ints))
        for c in self.constraints:
            _, terms, constant = c.body.integer_form()
            body = constant * unit
            for var, coeff in terms:
                body += coeff * scaled[var]
            if body < 0 or (body and c.relation is Relation.EQ):
                return c
        return None


def _ge(name, label, terms, constant=0):
    return Constraint(name, label, Relation.GE, LinExpr(terms, constant))


def _eq(name, label, terms, constant=0):
    return Constraint(name, label, Relation.EQ, LinExpr(terms, constant))


def _shared_constraints():
    # term insertion order mirrors the table rendering
    return [
        _ge("special_exists", "Eq. 5", {Var.e: 1}, -1),
        _eq("s_breakdown", "Eq. 6", {Var.s1: 1, Var.s2: 1, Var.s3: 1, Var.s: -1}),
        _eq("s2_breakdown", "Eq. 7", {Var.s21: 1, Var.s22: 1, Var.s2: -1}),
        _eq("s3_breakdown", "Eq. 8", {Var.s31: 1, Var.s32: 1, Var.s3: -1}),
        _ge("omega_lower", "Eq. 9",
            {Var.Omega: 1, Var.e: -1, Var.f3: -1, Var.s: -2, Var.f4: -1}),
        _ge("s1_s22_upper", "Eq. 10",
            {Var.t: 1, Var.s21: 1, Var.s31: 1, Var.s1: -1, Var.s22: -1}, 1),
        _ge("s1_upper", "Eq. 11", {Var.t: 1, Var.s31: 1, Var.s1: -1}, 1),
        _ge("f3_lower", "Eq. 12", {Var.f3: 1, Var.s21: -1, Var.s31: -1}),
        _ge("mod3_count", "Eq. 13",
            {Var.f4: 1, Var.e: 1, Var.s21: 1, Var.s1: -1, Var.s22: -2, Var.s32: -3}),
        _ge("t_f4", "Eq. 14", {Var.f4: 1, Var.t: -4}),
    ]


def build_system(case: Case, include_f3_min2: bool = False) -> ConstraintSystem:
    """The named constraint list for one case of the 3 | N split.

    include_f3_min2 adds the optional sharpening f3 >= 2 and only applies to
    three_divides; it is ignored (normalized to False) for three_coprime.
    """
    constraints = _shared_constraints()
    if case is Case.THREE_COPRIME:
        include_f3_min2 = False
        constraints.append(
            _eq("omega_no3", "Eq. 15", {Var.s: 1, Var.t: 1, Var.omega: -1}, 1))
        constraints.append(_eq("f3_zero", "case", {Var.f3: 1}))
        constraints.append(_eq("s21_zero", "case", {Var.s21: 1}))
        constraints.append(_eq("s31_zero", "case", {Var.s31: 1}))
    else:
        constraints.append(
            _eq("omega_with3", "Eq. 16", {Var.s: 1, Var.t: 1, Var.omega: -1}, 2))
        if include_f3_min2:
            constraints.append(_ge("f3_min2", "case", {Var.f3: 1}, -2))
    return ConstraintSystem(case, include_f3_min2, tuple(constraints))


def render_linexpr(expr: LinExpr) -> str:
    """Human form of a linear expression, e.g. 'Ω - e - f3 - 2s - f4'.

    Terms follow the expression's own stored order; the constant comes last.
    """
    pieces = []
    for var, coeff in expr.terms.items():
        mag = abs(coeff)
        if mag == 1:
            body = var_display(var)
        elif mag.denominator == 1:
            body = f"{mag}{var_display(var)}"
        else:
            body = f"{format_rational(mag)}·{var_display(var)}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    if expr.constant or not pieces:
        mag = abs(expr.constant)
        if not pieces:
            pieces.append(format_rational(expr.constant))
        else:
            pieces.append(f"+ {format_rational(mag)}" if expr.constant > 0
                          else f"- {format_rational(mag)}")
    return " ".join(pieces)


def render_bound(slope: Fraction, constant: Fraction) -> str:
    """The claimed inequality as text: 'Ω ≥ 8/3·ω - 7/3'."""
    return f"Ω ≥ {render_linexpr(LinExpr({Var.omega: slope}, constant))}"


def describe_system(system: ConstraintSystem) -> str:
    """One line per constraint: 'name | label | body relation'."""
    lines = []
    for c in system.constraints:
        lines.append(f"{c.name} | {c.label} | {render_linexpr(c.body)} {c.relation.value}")
    return "\n".join(lines)
