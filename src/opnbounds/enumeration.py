"""Brute-force integer enumeration over the constraint systems.

The scan walks the nine free variables (e, s1, s21, s22, s31, s32, t, f3,
f4) over [0, box_max], substitutes the breakdown equalities for s2, s3, s
and omega, and sets Omega to its Eq. 9 floor e + f3 + 2s + f4, which is
exact for any objective that increases in Omega since nothing else bounds
Omega. Loop bounds below encode the remaining inequalities directly, so
only feasible points are visited; that is pure pruning, not a relaxation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model import Case, ConstraintSystem, Relation, Var
from .workers import effective_jobs, run_chunks

# witness tuples follow the variable declaration order
_TUPLE_ORDER = tuple(Var)


def is_feasible(system: ConstraintSystem, point: Mapping) -> bool:
    """Every constraint of the system holds exactly at the point. The sum is
    recomputed here term by term rather than through LinExpr.evaluate; tests
    cross-audit the two paths."""
    for c in system.constraints:
        total = c.body.constant
        for var, coeff in c.body.terms.items():
            total += coeff * point[var]
        if c.relation is Relation.EQ:
            if total != 0:
                return False
        elif total < 0:
            return False
    return True


@dataclass
class ScanResult:
    minimum: Fraction | None     # None when the box holds no feasible point
    witness: dict | None         # Var -> int, lexicographically least minimizer


def _scan_chunk(args):
    no3, f3_min2, num, den, box, e_values = args
    omega_extra = 1 if no3 else 2
    if no3:
        f3_range = (0,)
    elif f3_min2:
        f3_range = range(2, box + 1)
    else:
        f3_range = range(0, box + 1)
    best = None
    for e in e_values:
        for t in range(0, box // 4 + 1):              # Eq. 14 with f4 <= box
            for f4 in range(4 * t, box + 1):
                for f3 in f3_range:
                    s21_top = 0 if no3 else min(box, f3)          # Eq. 12
                    for s21 in range(0, s21_top + 1):
                        s31_top = 0 if no3 else min(box, f3 - s21)
                        for s31 in range(0, s31_top + 1):
                            for s1 in range(0, min(box, t + s31 + 1) + 1):      # Eq. 11
                                s22_top = min(box, t + s21 + s31 + 1 - s1)      # Eq. 10
                                for s22 in range(0, s22_top + 1):
                                    budget = f4 + e + s21 - s1 - 2 * s22        # Eq. 13
                                    if budget < 0:
                                        break  # shrinks as s22 grows
                                    for s32 in range(0, min(box, budget // 3) + 1):
                                        s2 = s21 + s22
                                        s3 = s31 + s32
                                        s = s1 + s2 + s3
                                        omega = s + t + omega_extra
                                        big = e + f3 + 2 * s + f4
                                        key = den * big - num * omega
                                        if best is None or key < best[0]:
                                            best = (key, (e, s, t, s1, s2, s3, s21,
                                                          s22, s31, s32, f3, f4, big, omega))
                                        elif key == best[0]:
                                            witness = (e, s, t, s1, s2, s3, s21,
                                                       s22, s31, s32, f3, f4, big, omega)
                                            if witness < best[1]:
                                                best = (key, witness)
    return best


def integer_scan(system: ConstraintSystem, slope, box_max: int,
                 jobs: int | None = 1) -> ScanResult:
    """Exact minimum of Omega - slope*omega over feasible integer points
    whose free variables lie in [0, box_max]; ties on the value resolve to
    the lexicographically least witness in declaration order."""
    if box_max < 0:
        raise ValueError("box_max must be nonnegative")
    slope = Fraction(slope)
    no3 = system.case is Case.THREE_COPRIME
    e_values = list(range(1, box_max + 1))  # Eq. 5 rules out e = 0
    parts = max(1, min(effective_jobs(jobs), len(e_values))) if e_values else 1
    chunks = [(no3, system.include_f3_min2, slope.numerator, slope.denominator,
               box_max, e_values[k::parts]) for k in range(parts)]
    best = None
    for found in run_chunks(_scan_chunk, chunks, jobs):
        if found is not None and (best is None or found < best):
            best = found
    if best is None:
        return ScanResult(None, None)
    witness = {var: value for var, value in zip(_TUPLE_ORDER, best[1])}
    if not is_feasible(system, witness):
        raise RuntimeError(f"scan produced an infeasible witness: {best[1]}")
    return ScanResult(Fraction(best[0], slope.denominator), witness)
