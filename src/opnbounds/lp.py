"""Model-level LP interface: exact minimization over a constraint system,
best provable constants for a given slope, and slope frontiers.

best_constant(system, a) computes b* = min(Omega - a*omega) over the LP
relaxation, so Omega >= a*omega + b* holds at every feasible point and the
optimal dual multipliers form a Certificate proving exactly that bound.

Each call builds the system's simplex rows and passes them once to
simplex.feasible, which checks them and runs phase 1: minimize and
best_constant for their one objective, frontier for all its slopes. Each
objective is then one simplex.solve from that tableau. Nothing is kept
between calls, so a fresh system and a solved one take the same path.
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
    constant: Fraction
    certificate: Certificate
    witness: dict  # Var -> Fraction, a feasible point attaining the constant


def _standard_form(system: ConstraintSystem):
    """The phase-1 tableau of the system's simplex rows, which every
    objective over the system starts from, or None when it is infeasible."""
    rows = [[c.body.coeff(v) for v in Var] for c in system.constraints]
    relations = [simplex.GE if c.relation is Relation.GE else simplex.EQ
                 for c in system.constraints]
    rhs = [-c.body.constant for c in system.constraints]
    return simplex.feasible(rows, relations, rhs)


def minimize(system: ConstraintSystem, objective: LinExpr) -> LPSolution:
    """Exact minimum of the objective over the system; duals come back as a
    complete per-constraint multiplier map."""
    return _minimize(system, _standard_form(system), objective)


def _minimize(system: ConstraintSystem, start, objective: LinExpr) -> LPSolution:
    if start is None:
        return LPSolution(simplex.Status.INFEASIBLE)
    cost = [objective.coeff(v) for v in Var]
    result = simplex.solve(start, cost)
    if result.status is not simplex.Status.OPTIMAL:
        return LPSolution(result.status)

    primal = {v: result.x[v.value] for v in Var}
    broken = system.first_violated(primal)  # the witness must satisfy the system
    if broken is not None:
        raise RuntimeError(f"simplex witness violates constraint {broken.name}: "
                           f"{broken.body.evaluate(primal)}")
    value = result.value + objective.constant
    if objective.evaluate(primal) != value:
        raise RuntimeError(f"objective at the simplex witness is not the optimum {value}")
    multipliers = {c.name: result.duals[i]
                   for i, c in enumerate(system.constraints)}
    return LPSolution(simplex.Status.OPTIMAL, value, primal, multipliers)


def best_constant(system: ConstraintSystem, slope: Fraction) -> SlopeBound:
    """Largest b with Omega >= slope*omega + b across the system, plus the
    dual certificate (re-verified) and an attaining witness. The slope must
    be a numbers.Rational: a float would be solved as its binary value."""
    slope = as_rational(slope, "slope")
    return _best_constant(system, _standard_form(system), slope)


def _best_constant(system: ConstraintSystem, start, slope: Fraction) -> SlopeBound:
    objective = LinExpr({Var.Omega: 1, Var.omega: -slope})
    solution = _minimize(system, start, objective)
    if solution.status is simplex.Status.UNBOUNDED:
        raise UnboundedSlopeError(
            f"slope {format_rational(slope)} not supported by system")
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
    return SlopeBound(slope, solution.value, cert, solution.primal)


class FrontierRow(NamedTuple):
    slope: Fraction
    constant: Fraction | None          # None when the slope is unbounded
    certificate: Certificate | None


def frontier(system: ConstraintSystem, slopes) -> list:
    """best_constant per requested slope, in the given order; unbounded
    slopes produce a row with no constant instead of failing the sweep."""
    start = _standard_form(system)
    rows = []
    for slope in slopes:
        slope = as_rational(slope, "slope")
        try:
            bound = _best_constant(system, start, slope)
        except UnboundedSlopeError:
            rows.append(FrontierRow(slope, None, None))
        else:
            rows.append(FrontierRow(bound.slope, bound.constant, bound.certificate))
    return rows
