"""Exact integer minimum of Omega - slope*omega over the constraint systems.

The scan covers the nine free variables (e, s1, s21, s22, s31, s32, t, f3,
f4) over [0, box_max], substitutes the breakdown equalities for s2, s3, s
and omega, and sets Omega to its Eq. 9 floor e + f3 + 2s + f4, which is
exact for any objective that increases in Omega since nothing else bounds
Omega. With slope = num/den in lowest terms (den > 0) it minimises the
integer key

    den*Omega - num*omega = den*(e + f3 + f4) - num*(t + extra) + c*s,
    c = 2*den - num,

where extra is 1 for three_coprime and 2 for three_divides.

Three free variables are walked: t, s21 and s31, beside the sum u = e + f4.
f3, the split of u and the inner block s1, s22, s32 are solved:

- f3 enters the key only as den*f3 with den > 0, and only Eq. 12
  (f3 >= s21 + s31), the f3 >= 2 row and the box bound it; nothing else
  reads it. So among points that agree on every other free variable the
  least key, and with it the least (key, witness) pair, has the least
  feasible f3 = max(s21 + s31, 2 under f3 >= 2, else 0). That f3 is in the
  box exactly when s21 + s31 <= box and, under f3 >= 2, box >= 2; so s21
  walks [0, box] and s31 walks [0, box - s21]. three_coprime fixes
  f3 = s21 = s31 = 0.
- e and f4 enter the key, Eq. 13 and the inner block only through
  u = e + f4; only e >= 1 (Eq. 5), f4 >= 4t (Eq. 14) and the box split
  them. So all splits of one u give the same key, and e, which comes first
  in the witness order, picks the least witness: e = max(1, u - box) and
  f4 = u - e. Some split is feasible exactly when t <= box // 4 and
  4t + 1 <= u <= 2*box.

The inner block enters the key only through s = s21 + s31 + S with
S = s1 + s22 + s32, with weight c, and only Eq. 10, 11 and 13 and the box
bound it. Those read the outer values only through (t, s21, s31, u), and
s1 = s22 = s32 = 0 always satisfies them. So for one outer point:

- c >= 0 (slope <= 2): S = 0 gives the least key (c > 0) or ties every
  other point (c = 0).
- c < 0: the least key needs the largest feasible S.

Ties resolve to the lexicographically least witness tuple in declaration
order (e, s, t, s1, s2, s3, s21, s22, s31, s32, f3, f4, Omega, omega).
Within one outer point e, t, s21, s31, f3 and f4 are fixed, so among its
points of least key the order is decided by s, then s1, then s2 = s21 + s22;
s3, Omega and omega follow from those. For c >= 0 the least s is S = 0, a
single point. For c < 0 every point of least key has the largest S, hence
the same s, and the least of them has the least s1, then the least s22.
Each outer point thus yields its least (key, witness) pair, and the least
pair over all outer points is the least over the whole box, which is what
visiting every point returns. tests/scan_bruteforce.py keeps that visit as
the test oracle.

The block is solved in closed form, in O(1) per outer point. With
R = u + s21 and Q = t + s21 + s31 + 1 its rows are

    s1 <= t + s31 + 1                  (Eq. 11)
    s1 + s22 <= Q                      (Eq. 10)
    s1 + 2*s22 + 3*s32 <= R            (Eq. 13)
    0 <= s1, s22, s32 <= box.

- Largest S: fill greedily, cheapest Eq. 13 cost first. s1 = P with
  P = min(box, t + s31 + 1, R), then s22 = b0 = min(box, Q - P,
  (R - P) // 2), then s32 = min(box, (R - P - 2*b0) // 3). No block has a
  larger S, by exchange. Take any feasible block. While s1 < P, raise s1 by
  one and lower s22 if it is positive, else s32 if it is positive: S stays
  or grows, and Eq. 13 frees budget. Q >= t + s31 + 1 >= P, so Eq. 10
  never blocks this step: lowering s22 keeps s1 + s22, and with s22 = 0,
  s1 + 1 <= P <= Q.
  Then, at s1 = P, while s22 < b0, raise s22 and lower s32 if it is
  positive: S stays or grows, Eq. 13 frees budget, and b0 keeps Eq. 10 and
  the box. Last, s32 is at most min(box, (R - P - 2*b0) // 3).
- Least s1 for that S: put s32 = S - s1 - s22. An s1 in
  [0, min(box, t + s31 + 1)] is feasible exactly when some s22 has
  max(0, S - s1 - box, 3S - 2*s1 - R) <= s22 <= min(box, Q - s1, S - s1).
  Pairing each lower bound with each upper bound, the pairs that read s1
  give s1 >= S - 2*box, s1 >= ceil((3S - R - box) / 2), s1 >= 3S - R - Q,
  s1 >= 2S - R, s1 <= Q and s1 <= S; the pairs that do not read s1 hold,
  because the greedy block is feasible. That block has s1 = P, so P meets
  every upper bound, and the feasible s1 are the integers from the largest
  of the lower bounds and 0 up to P.
- Least s22: the lower end max(0, S - s1 - box, 3S - 2*s1 - R) of the
  interval above at that s1, and s32 = S - s1 - s22.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .model import Case, ConstraintSystem, Var
from .rationals import as_rational

# Largest box integer_scan accepts per case. The walk visits about box^4
# outer points for three_divides and box^2 for three_coprime and solves each
# block in O(1), so the time grows like box^4 and box^2; at these caps a scan
# takes about 6-8 s (2-core host, CPython 3.11.7) at the slowest
# slopes, past 2.
MAX_BOX = {Case.THREE_COPRIME: 2000, Case.THREE_DIVIDES: 60}


def is_feasible(system: ConstraintSystem, point: Mapping) -> bool:
    """Every constraint of the system holds exactly at the point."""
    return system.first_violated(point) is None


class ScanResult(NamedTuple):
    minimum: Fraction | None     # None when the box holds no feasible point
    witness: dict | None         # Var -> int, lexicographically least minimizer


def _largest_block(box, t, s21, s31, u):
    """(s1, s22, s32) with the largest s1 + s22 + s32 under Eq. 10, 11 and 13
    and the box, then the least s1, then the least s22; u is e + f4. The
    closed form and its proof are in the module docstring."""
    room, pair = u + s21, t + s21 + s31 + 1                         # R, Q
    s1 = min(box, t + s31 + 1, room)                                # P
    s22 = min(box, pair - s1, (room - s1) // 2)
    total = s1 + s22 + min(box, (room - s1 - 2 * s22) // 3)
    s1 = max(0, total - 2 * box, -((room + box - 3 * total) // 2),
             3 * total - room - pair, 2 * total - room)
    s22 = max(0, total - s1 - box, 3 * total - 2 * s1 - room)
    return s1, s22, total - s1 - s22


def _scan_chunk(no3, f3_min2, num, den, box):
    """The least (key, witness) pair over the box, or None when f3 >= 2
    leaves the box no feasible point; no3 is three_coprime, f3_min2 whether
    f3 >= 2 holds, num/den the slope in lowest terms."""
    omega_extra = 1 if no3 else 2
    f3_least = 2 if f3_min2 else 0
    if f3_least > box:
        return None
    s_top = 0 if no3 else box     # three_coprime fixes f3 = s21 = s31 = 0
    fill = 2 * den - num < 0      # the key falls as s grows
    pairs = ((t, u) for t in range(0, box // 4 + 1)        # Eq. 14 with f4 <= box
             for u in range(4 * t + 1, 2 * box + 1))        # Eq. 5 and 14
    best = None
    for t, u in pairs:
        e, f4 = max(1, u - box), min(u - 1, box)    # the least e of the split u = e + f4
        for s21 in range(0, s_top + 1):
            for s31 in range(0, s_top - s21 + 1):
                f3 = max(s21 + s31, f3_least)                     # Eq. 12
                s1, s22, s32 = _largest_block(box, t, s21, s31, u) if fill else (0, 0, 0)
                s2, s3 = s21 + s22, s31 + s32
                s = s1 + s2 + s3
                omega = s + t + omega_extra
                big = e + f3 + 2 * s + f4
                found = (den * big - num * omega,
                         (e, s, t, s1, s2, s3, s21, s22, s31, s32, f3, f4, big, omega))
                if best is None or found < best:
                    best = found
    return best


def integer_scan(system: ConstraintSystem, slope, box_max: int) -> ScanResult:
    """Exact minimum of Omega - slope*omega over feasible integer points
    whose free variables lie in [0, box_max]; ties on the value resolve to
    the lexicographically least witness in declaration order. The slope
    must be a numbers.Rational and box_max an int, else TypeError; a box
    past MAX_BOX for the system's case raises ValueError before any work."""
    slope = as_rational(slope, "slope")
    if not isinstance(box_max, int):
        raise TypeError(f"box_max {box_max!r} is not an int")
    if box_max < 0:
        raise ValueError("box_max must be nonnegative")
    cap = MAX_BOX[system.case]
    if box_max > cap:
        raise ValueError(f"box {box_max} is larger than {cap}, the largest "
                         f"scan box for {system.case.value}")
    best = _scan_chunk(system.case is Case.THREE_COPRIME, system.include_f3_min2,
                       slope.numerator, slope.denominator, box_max)
    if best is None:
        return ScanResult(None, None)
    witness = dict(zip(Var, best[1]))  # witness tuples follow declaration order
    if not is_feasible(system, witness):
        raise RuntimeError(f"scan produced an infeasible witness: {best[1]}")
    return ScanResult(Fraction(best[0], slope.denominator), witness)
