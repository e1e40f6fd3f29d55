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
- The objective row follows the constraint rows: phase 1 has one, phase 2
  the two of sweep's pencil below. It holds L*D times the reduced costs,
  L the lcm of the cost denominators, and minus L*D times the objective's
  value in its last column; it is L*(c | 0)*D - (L*c_B) * T, integral for
  the same reason. A pivot updates it like any other row but r, and one
  pricing step, priced(), makes it in either phase.
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
input rhs for the duality check. Phase 2 never changes it, so a caller
minimising many objectives over the same rows runs phase 1 once. That
changes no answer: phase 2 reads only the constraint rows, since pricing
replaces phase 1's objective row, and Bland's rule picks the same pivots
from the same tableau, so each objective ends at the same basis, x and
duals as a solve that ran phase 1 for it alone.

sweep(start, base, step, params) runs phase 2 for every objective
base + t*step, t in params, in one walk (a parametric objective, as in
Gass and Saaty 1955); solve(start, objective) is its one-objective case.
- The objective row is kept as a pencil of two rows, the priced rows of
  base and of step over the integer costs B = ub*base and S = us*step, and
  every pivot updates both like any other row. Pricing is linear in the
  cost, so for t = p/q (q > 0) the row q*us*(base row) + p*ub*(step row)
  is the priced row of the integer cost q*ub*us times the objective. A
  solve of that objective alone prices L times it, L the lcm of its
  denominators, which is the same row up to a positive factor (exactly
  it for Omega - a*omega, where ub = us = 1 and L = q), so Bland reads the
  same signs and enters the same column, and the x and duals are equal.
- The leaving row is the ratio test's, which reads the constraint rows and
  the entering column only, never the objective. So the tableau after a
  pivot depends only on the tableau before it and the entering column: the
  walks form a tree, keyed by the entering columns from the root, whose
  child for (node, column) is pivoted once and shared by every t whose
  walk passes through it. Each walk keeps a Bland run's pivot limit.
- A walk ends at an optimal node or at an unbounded column. The value and
  the duality check are integer sums over q*ub*us*D, and Fractions are
  formed only for the nonzero x, the nonzero duals and the value.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .rationals import as_rational, clear_denominators

_ZERO = Fraction(0)
# a Bland walk gives up after this many pivots per row and column of the tableau
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
        self.rows.append([0] * (self.total + 1))  # the objective row, set by priced()
        self.d = 1                  # the common denominator D

    def copy(self) -> _Tableau:
        """A twin whose pivots leave this tableau as it is. A pivot replaces
        rows and never edits one, so the twin shares the row lists."""
        twin = object.__new__(_Tableau)
        twin.__dict__.update(self.__dict__)
        twin.rows = self.rows[:]
        twin.basis = self.basis[:]
        return twin

    def priced(self, cost) -> list:
        """The objective row that minimises sum(cost[j] * x_j), one int cost
        per column: D times the reduced costs, and minus D times the
        objective's value as its last entry."""
        z = [self.d * v for v in cost] + [0]
        for row, col in zip(self.rows, self.basis):
            cb = cost[col]
            if cb:
                z = [zj - cb * v for zj, v in zip(z, row)]
        return z

    def pivot(self, r, c):
        """Fraction-free pivot on (r, c); every other row, the objective rows
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

    def pivot_limit(self) -> int:
        """The pivots a Bland walk from this tableau may make."""
        return _PIVOTS_PER_SIZE * (len(self.basis) + self.total + 1)

    def leaving(self, enter) -> int:
        """The row of the least ratio b_i / a_i over a_i > 0 in the entering
        column, ties to the least basic column, or -1 when there is none
        (the objective is unbounded). It reads no objective row."""
        rows, basis = self.rows, self.basis
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
        return leave

    def run(self):
        """Phase 1's Bland iterations on the last row, every column a
        candidate, until "optimal" or "unbounded"."""
        limit = self.pivot_limit()
        for _ in range(limit):
            z = self.rows[-1]
            for enter in range(self.total):
                if z[enter] < 0:
                    break
            else:
                return "optimal"
            leave = self.leaving(enter)
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)
        # Bland's rule makes this unreachable
        raise RuntimeError(f"pivot limit of {limit} exceeded: Bland's rule cycled")


def feasible(rows, relations, rhs) -> _Tableau | None:
    """Phase 1: a feasible tableau for the rows, or None when they have no
    nonnegative solution. It depends on no objective, so one result serves
    any number of solve and sweep calls over the same rows. A malformed
    shape raises ValueError and a coefficient or rhs that is not rational
    TypeError, each naming the index."""
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
        tb.rows[-1] = tb.priced(cost)
        if tb.run() != "optimal":
            raise RuntimeError("phase 1 unbounded, though its objective is at least 0")
        if tb.rows[-1][-1]:
            return None
        _drive_out_artificials(tb)
    return tb


def solve(start: _Tableau, objective) -> SimplexResult:
    """Phase 2: minimize objective . x over the rows of start, a tableau
    from feasible(); see the module docstring for the problem form. It is
    sweep's one-objective case, so start itself is left unchanged."""
    return sweep(start, objective, [0] * len(objective), (0,))[0]


def sweep(start: _Tableau, base, step, params) -> list:
    """[solve(start, base + t*step) for t in params], from one walk over a
    tree of tableaus that the objectives share; see the module docstring.
    A cost that is not rational, or not one per column, is refused naming
    base "objective" and step "step"; every t must be a numbers.Rational."""
    pencil = []
    for name, cost in (("objective", base), ("step", step)):
        _check_rational(cost, name)
        if len(cost) != start.n:
            raise ValueError(f"{name} has {len(cost)} coefficients, the rows {start.n} columns")
        pencil.append(clear_denominators(cost))
    ts = [as_rational(t, f"params[{k}]") for k, t in enumerate(params)]
    (ub, b), (us, s) = pencil
    n, first_art = start.n, start.first_art
    pad = [0] * (start.total - n)
    root = start.copy()
    # the pencil: base's and step's priced rows replace phase 1's objective row
    root.rows[-1:] = [root.priced(b + pad), root.priced(s + pad)]
    limit = root.pivot_limit()
    rhs_unit, rhs = clear_denominators(start.rhs)
    # per input row: the column its dual reads off, that column's sign, and
    # whether the row is an inequality
    dual_cols = [(start.surplus_col[i], 1, True) if i in start.surplus_col
                 else (start.art_col[i], -start.sigma[i], False) for i in range(len(rhs))]
    tree = {(): root}   # tableau per path of entering columns; None past an unbounded one

    def optimum(node, wb, ws, unit) -> SimplexResult:
        """The result at an optimal node for the integer cost wb*b + ws*s,
        which is unit times the objective."""
        d = node.d
        x = [_ZERO] * n
        value = 0           # the objective at x, times unit*D
        for row, col in zip(node.rows, node.basis):
            if col < n and row[-1]:
                x[col] = Fraction(row[-1], d)
                value += (wb * b[col] + ws * s[col]) * row[-1]
        zb, zs = node.rows[-2], node.rows[-1]
        per_dual = unit * d
        duals = [_ZERO] * len(rhs)
        paid = 0            # sum(y_i * rhs_i), times unit*D*rhs_unit
        for i, (col, sign, ge) in enumerate(dual_cols):
            reduced = sign * (wb * zb[col] + ws * zs[col])
            if ge and reduced < 0:
                raise RuntimeError(f"dual of inequality row {i} is negative: "
                                   f"{Fraction(start.scale[i] * reduced, per_dual)}")
            if reduced:
                duals[i] = Fraction(start.scale[i] * reduced, per_dual)
                paid += start.scale[i] * reduced * rhs[i]
        if paid != value * rhs_unit:
            raise RuntimeError(f"strong duality fails: dual value "
                               f"{Fraction(paid, per_dual * rhs_unit)}, primal value "
                               f"{Fraction(value, per_dual)}")
        return SimplexResult(Status.OPTIMAL, Fraction(value, per_dual), x, duals)

    results = []
    for t in ts:
        # t = p/q: q*us*b + p*ub*s is unit = q*ub*us times base + t*step
        wb, ws = t.denominator * us, t.numerator * ub
        unit = t.denominator * ub * us
        path, node = (), root
        for _ in range(limit):
            zb, zs = node.rows[-2], node.rows[-1]
            for enter in range(first_art):
                if wb * zb[enter] + ws * zs[enter] < 0:
                    break
            else:
                results.append(optimum(node, wb, ws, unit))
                break
            path += (enter,)
            if path not in tree:
                leave = node.leaving(enter)
                if leave >= 0:
                    tree[path] = node.copy()
                    tree[path].pivot(leave, enter)
                else:
                    tree[path] = None
            node = tree[path]
            if node is None:
                results.append(SimplexResult(Status.UNBOUNDED))
                break
        else:
            # Bland's rule makes this unreachable
            raise RuntimeError(f"pivot limit of {limit} exceeded: Bland's rule cycled")
    return results


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
