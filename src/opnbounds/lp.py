"""Model-level LP interface: exact minimization over a constraint system,
slope frontiers, and the best provable constant for one slope.

frontier(system, slopes) gives one SlopeBound per slope. Its constant b* is
min(Omega - a*omega) over the LP relaxation, so Omega >= a*omega + b* holds
at every feasible point, and the optimal dual multipliers form a Certificate
proving exactly that bound. A slope whose objective has no finite minimum
gets the row SlopeBound(slope, None, None, None). best_constant(system, a)
is the one-slope frontier, and raises UnboundedSlopeError for that row.

Each call builds the system's simplex rows and passes them once to
simplex.feasible, which checks them and runs phase 1: minimize for its one
objective, frontier for all its slopes. minimize then makes one
simplex.solve from that tableau, and frontier one simplex.sweep over
Omega + slope*(-omega) for all its slopes, after it has refused any slope
that is not a numbers.Rational. Nothing is kept between calls, so a fresh
system and a solved one take the same path.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

# absolute: "from . import simplex" would reach the package __getattr__,
# which loads the whole API while this module is half-initialised
import opnbounds.simplex as simplex

from .certificates import Certificate, verify_certificate
from .linexpr import LinExpr
from .model import ConstraintSystem, Relation, Var
from .rationals import as_rational, format_rational


_VARS = tuple(Var)
# Omega - slope*omega is _BASE + slope*_STEP, as simplex costs
_BASE = [1 if v is Var.Omega else 0 for v in _VARS]
_STEP = [-1 if v is Var.omega else 0 for v in _VARS]


class UnboundedSlopeError(ValueError):
    """The objective Omega - slope*omega has no finite minimum."""


class LPSolution(NamedTuple):
    status: simplex.Status
    value: Fraction | None = None
    primal: dict | None = None        # Var -> Fraction, optimal only
    multipliers: dict | None = None   # constraint name -> Fraction, optimal only

    @property
    def optimal(self) -> bool:
        return self.status is simplex.Status.OPTIMAL


class SlopeBound(NamedTuple):
    slope: Fraction
    # the other three are None when the slope is unbounded
    constant: Fraction | None
    certificate: Certificate | None
    witness: dict | None  # Var -> Fraction, a feasible point attaining the constant


def _standard_form(system: ConstraintSystem):
    """The phase-1 tableau of the system's simplex rows, which every
    objective over the system starts from, or None when it is infeasible."""
    rows = [[c.body.coeff(v) for v in _VARS] for c in system.constraints]
    relations = [simplex.GE if c.relation is Relation.GE else simplex.EQ
                 for c in system.constraints]
    rhs = [-c.body.constant for c in system.constraints]
    return simplex.feasible(rows, relations, rhs)


def minimize(system: ConstraintSystem, objective: LinExpr) -> LPSolution:
    """Exact minimum of the objective over the system; duals come back as a
    complete per-constraint multiplier map."""
    start = _standard_form(system)
    if start is None:
        return LPSolution(simplex.Status.INFEASIBLE)
    return _checked(system, simplex.solve(start, [objective.coeff(v) for v in _VARS]),
                    objective)


def _checked(system: ConstraintSystem, result, objective: LinExpr) -> LPSolution:
    """The LPSolution of a simplex result for the objective, after checking
    that an optimal witness meets the system and attains the value."""
    if result.status is not simplex.Status.OPTIMAL:
        return LPSolution(result.status)
    primal = dict(zip(_VARS, result.x))
    broken = system.first_violated(primal)  # the witness must satisfy the system
    if broken is not None:
        raise RuntimeError(f"simplex witness violates constraint {broken.name}: "
                           f"{broken.body.evaluate(primal)}")
    value = result.value + objective.constant
    if objective.evaluate(primal) != value:
        raise RuntimeError(f"objective at the simplex witness is not the optimum {value}")
    multipliers = {c.name: y for c, y in zip(system.constraints, result.duals)}
    return LPSolution(simplex.Status.OPTIMAL, value, primal, multipliers)


def best_constant(system: ConstraintSystem, slope: Fraction) -> SlopeBound:
    """frontier's row for the one slope, or UnboundedSlopeError when the
    slope is unbounded. The slope must be a numbers.Rational, else
    TypeError before phase 1: a float would be solved as its binary value."""
    bound = frontier(system, [slope])[0]
    if bound.constant is None:
        raise UnboundedSlopeError(f"slope {format_rational(bound.slope)} not supported by system")
    return bound


def frontier(system: ConstraintSystem, slopes) -> list:
    """One SlopeBound per requested slope, in the given order: the largest b
    with Omega >= slope*omega + b across the system, the dual certificate
    (re-verified) and an attaining witness. An unbounded slope gets a row
    with None in place of the three, instead of failing the sweep. Every
    slope must be a numbers.Rational, else TypeError before phase 1."""
    slopes = [as_rational(slope, "slope") for slope in slopes]
    start = _standard_form(system)
    if start is None:
        results = [simplex.SimplexResult(simplex.Status.INFEASIBLE)] * len(slopes)
    else:
        results = simplex.sweep(start, _BASE, _STEP, slopes)
    rows = []
    for slope, result in zip(slopes, results):
        solution = _checked(system, result, LinExpr({Var.Omega: 1, Var.omega: -slope}))
        if solution.status is simplex.Status.UNBOUNDED:
            rows.append(SlopeBound(slope, None, None, None))
            continue
        if not solution.optimal:
            raise RuntimeError(f"system unexpectedly {solution.status.value}")
        cert = Certificate(
            case=system.case,
            include_f3_min2=system.include_f3_min2,
            multipliers={name: m for name, m in solution.multipliers.items() if m},
            claimed_slope=slope,
            claimed_constant=solution.value,
        )
        report = verify_certificate(system, cert)
        if not report.passed:
            raise RuntimeError(f"dual certificate failed: {report.failure_reason}")
        if report.derived_constant != solution.value:
            raise RuntimeError(f"certificate gives {report.derived_constant}, LP {solution.value}")
        rows.append(SlopeBound(slope, solution.value, cert, solution.primal))
    return rows
