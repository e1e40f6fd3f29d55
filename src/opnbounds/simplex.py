"""Exact two-phase simplex on an integer tableau.

Dense tableau, Bland's smallest-index rule for both entering and leaving
choices (no cycling, fully deterministic pivot sequence), no floating point
anywhere. Sized for small systems, tens of rows and columns.

Problem form: minimize c . x subject to rows[i] . x >= rhs[i] or == rhs[i],
x >= 0, solved as solve(feasible(rows, relations, rhs), c). Every
coefficient, right-hand side and cost must be a numbers.Rational (an int or
a Fraction); anything else, a float in particular, raises TypeError naming
it. The result carries one dual multiplier per input row in the original
row orientation: nonnegative on inequalities, signed on equalities, with
sum(y_i * rhs_i) equal to the optimal objective (checked exactly).

The tableau holds Python ints over one positive common denominator D, and
pivots fraction-free (Edmonds 1967, Bareiss 1968):
- Input row i and its rhs are multiplied by s_i, the lcm of their
  denominators. Its surplus entry stays -1 and its artificial entry +1, so
  they stand for s_i times the input row's surplus and artificial, the
  starting basis is the identity and D = 1. Phase 1 gives artificial i the
  cost M/s_i, M the lcm of those s_i, so it minimises M times the sum of
  the input rows' artificials.
- The tableau is T = D * B^-1 [A | b], where A is the integer matrix above,
  b its rhs and B its basic columns. Row i is one list [A_i | b_i], so its
  rhs is its last column T[i][-1]. A pivot on (r, c) with p = T[r][c]
  keeps row r and replaces every other row i, rhs included, by
  (p*T[i][j] - T[i][c]*T[r][j]) / D; then D = p, after row r is negated
  when p < 0 (the artificial drive-out may pivot on a negative entry).
- Every division is exact. Swapping column c into the basis multiplies
  det B by (B^-1 a_c)[r] = p/D, so by induction from det I = 1, D = |det B|
  after each pivot. Then D * B^-1 = +-adj(B), an integer matrix by Cramer's
  rule, and the new rows are D' * B'^-1 [A | b], so they are integers.
- The objective row is the tableau's last row. It holds L*D times the
  reduced costs, L the lcm of the cost denominators, and minus L*D times
  the objective's value in its last column; it is L*(c | 0)*D - (L*c_B) * T,
  integral for the same reason. A pivot updates it like any other row
  but r, and one pricing step, price(), sets it in either phase.
- The pivots are the Fraction tableau's. Scaling a row, or a column by a
  positive factor, keeps the sign of every reduced cost and the order of
  every ratio b_i / a_i, ties included; the ratio test compares
  b_i * a_k with b_k * a_i, both a positive.
- Results become Fractions once, at the end: x_j = T[i][-1] / D where
  column j is basic in row i, and the dual of input row i is s_i times the
  reduced cost of its surplus (inequality) or artificial (equality)
  column, z / (L*D). That holds for every input row, also when phase 1
  dropped a redundant one.

There is one solve path, in two calls, and feasible() is the only place a
problem enters. It checks the shapes (as many relations and rhs as rows,
every row as long as the first, every relation GE or EQ) and that every
coefficient and rhs is rational, once, then runs phase 1, which reads no
objective. The feasible tableau it returns owns its rows and keeps the
input rhs for the duality check. solve(start, objective) runs phase 2 on a
copy of it, so a caller minimising many objectives over the same rows (lp's
frontier does, one per slope) runs phase 1 once. That changes no answer:
phase 2 reads only the constraint rows, since price() replaces phase 1's
objective row, and Bland's rule picks the same pivots from the same
tableau, so each solve ends at the same basis, x and duals as a solve that
ran phase 1 for it alone.
"""
from __future__ import annotations

import copy
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .rationals import as_rational, clear_denominators

_ZERO = Fraction(0)
# run() gives up after this many pivots per row and column of the tableau
_PIVOTS_PER_SIZE = 2000

GE = ">="
EQ = "=="


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class SimplexResult(NamedTuple):
    status: Status
    value: Fraction | None = None   # c . x at the optimum
    x: list | None = None           # structural variable values
    duals: list | None = None       # per input row, original orientation


def _check_rational(values, name) -> None:
    for k, v in enumerate(values):
        as_rational(v, f"{name}[{k}]")


class _Tableau:
    def __init__(self, rows, relations, rhs, n):
        self.n = n
        self.rhs = tuple(rhs)       # the input rhs, for solve's duality check
        self.sigma = [-1 if v < 0 else 1 for v in rhs]  # flips that make rhs >= 0
        # column layout: structural 0..n-1, then one surplus per GE row,
        # then artificials; Bland therefore prefers structural columns in
        # their declaration order. The start basis is the surplus column
        # where the flip made it +1, an artificial everywhere else
        ge = [i for i, rel in enumerate(relations) if rel == GE]
        self.surplus_col = {i: n + k for k, i in enumerate(ge)}
        self.first_art = n + len(ge)
        art = [i for i, sign in enumerate(self.sigma)
               if sign == 1 or i not in self.surplus_col]
        self.art_col = {i: self.first_art + k for k, i in enumerate(art)}
        self.total = self.first_art + len(art)
        self.scale = []             # s_i: input row i times s_i is integral
        self.rows = []              # [A_i | b_i]: the rhs is the last entry
        self.basis = []
        for i, sign in enumerate(self.sigma):
            s, ints = clear_denominators([*rows[i], rhs[i]])
            self.scale.append(s)
            row = [sign * v for v in ints[:n]] + [0] * (self.total - n) + [sign * ints[n]]
            if i in self.surplus_col:
                row[self.surplus_col[i]] = -sign
            if i in self.art_col:
                row[self.art_col[i]] = 1
            self.basis.append(self.art_col.get(i, self.surplus_col.get(i)))
            self.rows.append(row)
        self.rows.append([0] * (self.total + 1))  # the objective row, set by price()
        self.d = 1                  # the common denominator D

    def copy(self) -> _Tableau:
        """A twin whose pivots leave this tableau as it is."""
        twin = copy.copy(self)
        twin.rows = [row[:] for row in self.rows]
        twin.basis = self.basis[:]
        return twin

    def price(self, cost):
        """Make the objective row minimise sum(cost[j] * x_j), one int cost
        per column: D times the reduced costs, and minus D times the
        objective's value as its last entry."""
        z = [self.d * v for v in cost] + [0]
        for row, col in zip(self.rows, self.basis):
            cb = cost[col]
            if cb:
                z = [zj - cb * v for zj, v in zip(z, row)]
        self.rows[-1] = z

    def pivot(self, r, c):
        """Fraction-free pivot on (r, c); every other row, the objective row
        included, takes the same update."""
        rows, d = self.rows, self.d
        prow = rows[r]
        p = prow[c]
        if p < 0:  # negating row r first keeps D positive
            prow = rows[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
            elif p != d:
                rows[i] = [p * v // d for v in row]
        self.d = p
        self.basis[r] = c

    def run(self, entering_limit):
        """Bland iterations until "optimal" or "unbounded". entering_limit
        bounds the candidate columns (artificials are barred in phase 2)."""
        rows, basis = self.rows, self.basis
        limit = _PIVOTS_PER_SIZE * (len(basis) + self.total + 1)
        for _ in range(limit):
            z = rows[-1]
            for enter in range(entering_limit):
                if z[enter] < 0:
                    break
            else:
                return "optimal"
            # least ratio b_i / a_i over a_i > 0, ties to the least basic column
            leave = -1
            for i in range(len(basis)):
                a = rows[i][enter]
                if a <= 0:
                    continue
                if leave >= 0:
                    # b_i / a against b_leave / a_leave, both a positive
                    diff = rows[i][-1] * rows[leave][enter] - rows[leave][-1] * a
                    if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                        continue
                leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)
        # Bland's rule makes this unreachable
        raise RuntimeError(f"pivot limit of {limit} exceeded: Bland's rule cycled")


def feasible(rows, relations, rhs) -> _Tableau | None:
    """Phase 1: a feasible tableau for the rows, or None when they have no
    nonnegative solution. It depends on no objective, so one result serves
    any number of solve calls over the same rows. A malformed shape raises
    ValueError and a coefficient or rhs that is not rational TypeError,
    each naming the index."""
    m, n = len(rows), len(rows[0]) if rows else 0
    if not m == len(relations) == len(rhs):
        raise ValueError(f"index {min(m, len(relations), len(rhs))} is not in all of rows, "
                         f"relations and rhs ({m}, {len(relations)} and {len(rhs)} entries)")
    for i, (row, relation) in enumerate(zip(rows, relations)):
        if len(row) != n:
            raise ValueError(f"rows[{i}] has {len(row)} coefficients, rows[0] {n}")
        if relation not in (GE, EQ):
            raise ValueError(f"relations[{i}] is {relation!r}, not {GE!r} or {EQ!r}")
        _check_rational(row, f"rows[{i}]")
    _check_rational(rhs, "rhs")
    tb = _Tableau(rows, relations, rhs, n)
    if tb.art_col:
        # minimize the artificial sum; artificial i stands for s_i times the
        # input row's, so it costs unit / s_i (unit is the docstring's M)
        unit = lcm(*(tb.scale[i] for i in tb.art_col))
        cost = [0] * tb.total
        for i, col in tb.art_col.items():
            cost[col] = unit // tb.scale[i]
        tb.price(cost)
        if tb.run(tb.total) != "optimal":
            raise RuntimeError("phase 1 unbounded, though its objective is at least 0")
        if tb.rows[-1][-1]:
            return None
        _drive_out_artificials(tb)
    return tb


def solve(start: _Tableau, objective) -> SimplexResult:
    """Phase 2: minimize objective . x over the rows of start, a tableau
    from feasible(); see the module docstring for the problem form. It runs
    on a copy, so start itself is left unchanged."""
    _check_rational(objective, "objective")
    n = len(objective)
    if start.n != n:
        raise ValueError(f"objective has {n} coefficients, the rows {start.n} columns")
    tb = start.copy()
    unit, c = clear_denominators(objective)

    # phase 2: the real objective over the feasible tableau, as unit*D times
    # the reduced costs
    tb.price(c + [0] * (tb.total - n))
    if tb.run(tb.first_art) == "unbounded":
        return SimplexResult(Status.UNBOUNDED)

    # back to Fractions; zeros add nothing to either side of the duality check
    x = [_ZERO] * n
    value = _ZERO
    for row, col in zip(tb.rows, tb.basis):
        if col < n and row[-1]:
            x[col] = Fraction(row[-1], tb.d)
            value += objective[col] * x[col]

    z = tb.rows[-1]
    duals = [_ZERO] * len(tb.rhs)
    paid = _ZERO
    per_dual = unit * tb.d
    for i, b in enumerate(tb.rhs):
        if i in tb.surplus_col:
            reduced = z[tb.surplus_col[i]]
            if reduced < 0:
                raise RuntimeError(f"dual of inequality row {i} is negative: "
                                   f"{Fraction(tb.scale[i] * reduced, per_dual)}")
        else:
            reduced = -tb.sigma[i] * z[tb.art_col[i]]
        if reduced:
            duals[i] = Fraction(tb.scale[i] * reduced, per_dual)
            paid += duals[i] * b
    if paid != value:
        raise RuntimeError(f"strong duality fails: dual value {paid}, primal value {value}")
    return SimplexResult(Status.OPTIMAL, value, x, duals)


def _drive_out_artificials(tb: _Tableau) -> None:
    """After a zero-value phase 1, pivot basic artificials out (or drop the
    row as redundant when its structural part vanished). A dropped row is 0
    in every column a later pivot can enter, so the kept rows and the
    objective row stay exactly what they would be with it. Its basic
    artificial, whichever input row that belongs to, keeps reduced cost 0,
    so solve() reads a dual of 0 for that input row."""
    r = 0
    while r < len(tb.basis):
        if tb.basis[r] >= tb.first_art:
            pivot_col = -1
            for j in range(tb.first_art):
                if tb.rows[r][j]:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                # rhs of a basic-artificial row is 0 here, so feasibility
                # survives pivoting on either sign
                tb.pivot(r, pivot_col)
            else:
                del tb.rows[r]
                del tb.basis[r]
                continue
        r += 1
