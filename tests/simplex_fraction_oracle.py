"""The Fraction simplex that opnbounds.simplex replaced, kept as a test
oracle: the same dense tableau, Bland's rule and two-phase layout, with every
entry a Fraction. The integer tableau must reproduce its pivots, so its
status, value, x, duals and final basis must match this code's exactly.
It is the replaced code verbatim but for one fix, made in both: the dual of
every input row is read off the objective row, also when phase 1 dropped a
row as redundant. Setting the dropped row's own dual to 0 instead was wrong
when the artificial basic in that row belonged to another input row.

Problem form matches opnbounds.simplex. The API is the replaced code's:
feasible(rows, relations, rhs), and solve(rows, relations, rhs, objective,
start=None), which runs phase 1 itself when start is None. The simplex
package's solve(feasible(rows, relations, rhs), objective) is its
counterpart.
"""
from __future__ import annotations

import copy
from fractions import Fraction

from opnbounds.simplex import GE, SimplexResult, Status

_ZERO = Fraction(0)
_ONE = Fraction(1)
# run() gives up after this many pivots per row and column of the tableau
_PIVOTS_PER_SIZE = 2000


class _Tableau:
    def __init__(self, rows, relations, rhs, n):
        m = len(rows)
        self.n = n
        self.relations = list(relations)
        # column layout: structural 0..n-1, then one surplus per GE row,
        # then artificials; Bland therefore prefers structural columns in
        # their declaration order
        self.surplus_col = {}
        col = n
        for i, rel in enumerate(relations):
            if rel == GE:
                self.surplus_col[i] = col
                col += 1
        self.sigma = [1] * m        # row flips applied to make rhs nonnegative
        body = []
        b = []
        for i in range(m):
            row = [Fraction(v) for v in rows[i]] + [_ZERO] * (col - n)
            if i in self.surplus_col:
                row[self.surplus_col[i]] = -_ONE
            bi = Fraction(rhs[i])
            if bi < 0:
                row = [-v for v in row]
                bi = -bi
                self.sigma[i] = -1
            body.append(row)
            b.append(bi)
        # initial basis: the surplus column where the flip made it +1,
        # an artificial everywhere else
        self.art_col = {}
        basis = []
        for i in range(m):
            if self.sigma[i] == -1 and i in self.surplus_col:
                basis.append(self.surplus_col[i])
            else:
                self.art_col[i] = col
                basis.append(col)
                col += 1
        self.total = col
        for i in range(m):
            body[i].extend([_ZERO] * (col - len(body[i])))
            if i in self.art_col:
                body[i][self.art_col[i]] = _ONE
        self.rows = body
        self.b = b
        self.basis = basis
        self.orig = list(range(m))  # original row index per live tableau row
        self.first_art = min(self.art_col.values()) if self.art_col else col

    def copy(self) -> _Tableau:
        """A twin whose pivots leave this tableau as it is."""
        twin = copy.copy(self)
        twin.rows = [row[:] for row in self.rows]
        twin.b = self.b[:]
        twin.basis = self.basis[:]
        twin.orig = self.orig[:]
        return twin

    def pivot(self, r, c, z, zrhs):
        p = self.rows[r][c]
        row = self.rows[r]
        if p != 1:
            inv = _ONE / p
            self.rows[r] = row = [v * inv for v in row]
            self.b[r] *= inv
        br = self.b[r]
        for i in range(len(self.rows)):
            if i == r:
                continue
            f = self.rows[i][c]
            if f:
                other = self.rows[i]
                self.rows[i] = [ov - f * rv for ov, rv in zip(other, row)]
                self.b[i] -= f * br
        f = z[c]
        if f:
            for j in range(self.total):
                z[j] -= f * row[j]
            zrhs -= f * br
        self.basis[r] = c
        return zrhs

    def run(self, z, zrhs, entering_limit):
        """Bland iterations until optimal or unbounded. entering_limit bounds
        the candidate columns (artificials are barred in phase 2)."""
        guard = 0
        limit = _PIVOTS_PER_SIZE * (len(self.rows) + self.total + 1)
        while True:
            guard += 1
            if guard > limit:  # Bland's rule makes this unreachable
                raise RuntimeError(f"pivot limit of {limit} exceeded: Bland's rule cycled")
            enter = -1
            for j in range(entering_limit):
                if z[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", zrhs
            leave = -1
            best_ratio = None
            best_var = None
            for i in range(len(self.rows)):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.b[i] / a
                    if (leave < 0 or ratio < best_ratio
                            or (ratio == best_ratio and self.basis[i] < best_var)):
                        leave, best_ratio, best_var = i, ratio, self.basis[i]
            if leave < 0:
                return "unbounded", zrhs
            zrhs = self.pivot(leave, enter, z, zrhs)


def feasible(rows, relations, rhs) -> _Tableau | None:
    """Phase 1: a feasible tableau for the rows, or None when they have no
    nonnegative solution. It depends on no objective, so one result serves
    any number of solve calls over the same rows."""
    m = len(rows)
    tb = _Tableau(rows, relations, rhs, len(rows[0]) if rows else 0)
    if tb.art_col:
        # minimize the artificial sum
        z = [_ZERO] * tb.total
        for col in tb.art_col.values():
            z[col] = _ONE
        zrhs = _ZERO
        for i in range(m):
            if tb.basis[i] in tb.art_col.values():
                row = tb.rows[i]
                for j in range(tb.total):
                    z[j] -= row[j]
                zrhs -= tb.b[i]
        state, zrhs = tb.run(z, zrhs, tb.total)
        if state != "optimal":
            raise RuntimeError("phase 1 unbounded, though its objective is at least 0")
        if -zrhs != 0:
            return None
        _drive_out_artificials(tb, z)
    return tb


def solve(rows, relations, rhs, objective, start: _Tableau | None = None) -> SimplexResult:
    """Two-phase exact simplex; see the module docstring for the problem form.
    start, when given, is feasible(rows, relations, rhs) for these same rows:
    phase 2 then runs on a copy of it and start itself is left unchanged."""
    m = len(rows)
    n = len(objective)
    if start is None:
        start = feasible(rows, relations, rhs)
        if start is None:
            return SimplexResult(Status.INFEASIBLE)
    if start.n != n:
        raise ValueError(f"objective has {n} coefficients, the rows {start.n} columns")
    tb = start.copy()
    c = [Fraction(v) for v in objective]

    # phase 2: the real objective over the feasible tableau
    z = list(c) + [_ZERO] * (tb.total - n)
    zrhs = _ZERO
    for i in range(len(tb.rows)):
        cb = c[tb.basis[i]] if tb.basis[i] < n else _ZERO
        if cb:
            row = tb.rows[i]
            for j in range(tb.total):
                z[j] -= cb * row[j]
            zrhs -= cb * tb.b[i]
    state, zrhs = tb.run(z, zrhs, tb.first_art)
    if state == "unbounded":
        return SimplexResult(Status.UNBOUNDED)

    x = [_ZERO] * n
    for i, col in enumerate(tb.basis):
        if col < n:
            x[col] = tb.b[i]
    value = sum((cj * xj for cj, xj in zip(c, x)), _ZERO)

    duals = [_ZERO] * m
    for i in range(m):
        # also a row phase 1 dropped; see the module docstring
        if relations[i] == GE:
            duals[i] = z[tb.surplus_col[i]]
            if duals[i] < 0:
                raise RuntimeError(f"dual of inequality row {i} is negative: {duals[i]}")
        else:
            duals[i] = -tb.sigma[i] * z[tb.art_col[i]]
    paid = sum((duals[i] * Fraction(rhs[i]) for i in range(m)), _ZERO)
    if paid != value:
        raise RuntimeError(f"strong duality fails: dual value {paid}, primal value {value}")
    return SimplexResult(Status.OPTIMAL, value, x, duals)


def _drive_out_artificials(tb: _Tableau, z) -> None:
    """After a zero-value phase 1, pivot basic artificials out (or drop the
    row as redundant when its structural part vanished)."""
    art_cols = set(tb.art_col.values())
    r = 0
    while r < len(tb.rows):
        if tb.basis[r] in art_cols:
            pivot_col = -1
            for j in range(tb.first_art):
                if tb.rows[r][j]:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                # rhs of a basic-artificial row is 0 here, so feasibility
                # survives pivoting on either sign
                tb.pivot(r, pivot_col, z, _ZERO)
            else:
                del tb.rows[r]
                del tb.b[r]
                del tb.basis[r]
                del tb.orig[r]
                continue
        r += 1
