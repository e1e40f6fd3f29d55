"""Reference integer scan for cross-checking opnbounds.enumeration: the
pruned loop that walked every feasible point of the box, s1, s22 and s32
included, before the scan solved that inner block. Slow past small boxes,
which is the point: it shares no inner-block logic with the code under test.

largest_block_loop is the O(box) search for the inner block that the scan
used before the closed form; tests compare the two point by point.
"""
from fractions import Fraction

from opnbounds.enumeration import ScanResult
from opnbounds.model import Case, Var


def largest_block_loop(box, t, s21, s31, u):
    """(s1, s22, s32) with the largest s1 + s22 + s32 under Eq. 10, 11 and 13
    and the box, then the least s1, then the least s22; u is e + f4.

    s32 = min(box, budget // 3) where budget = u + s21 - s1 - 2*s22 is the
    Eq. 13 slack at s32 = 0. One more s22 lowers budget // 3 by at most one,
    so for each s1 the sum is largest at the top feasible s22."""
    room = u + s21

    def size(s1, s22):
        return s1 + s22 + min(box, (room - s1 - 2 * s22) // 3)

    best = None
    for s1 in range(0, min(box, t + s31 + 1, room) + 1):                # Eq. 11, 13
        top = min(box, t + s21 + s31 + 1 - s1, (room - s1) // 2)       # Eq. 10, 13
        total = size(s1, top)
        if best is None or total > best[0]:
            best = (total, s1, top)
    total, s1, top = best
    s22 = next(s22 for s22 in range(top + 1) if size(s1, s22) == total)
    return s1, s22, total - s1 - s22


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


def bruteforce_scan(system, slope, box_max):
    """integer_scan at jobs=1 by visiting every feasible point of the box."""
    slope = Fraction(slope)
    best = _scan_chunk((system.case is Case.THREE_COPRIME, system.include_f3_min2,
                        slope.numerator, slope.denominator, box_max,
                        range(1, box_max + 1)))
    if best is None:
        return ScanResult(None, None)
    return ScanResult(Fraction(best[0], slope.denominator), dict(zip(Var, best[1])))
