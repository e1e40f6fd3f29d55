import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnbounds import enumeration
from opnbounds.enumeration import ScanResult, integer_scan, is_feasible
from opnbounds.lp import best_constant
from opnbounds.model import Case, Relation, Var, build_system
from scan_bruteforce import bruteforce_scan, largest_block_loop

NO3 = build_system(Case.THREE_COPRIME)
WITH3 = build_system(Case.THREE_DIVIDES)
WITH3_SHARP = build_system(Case.THREE_DIVIDES, True)

FREE = (Var.e, Var.s1, Var.s21, Var.s22, Var.s31, Var.s32, Var.t, Var.f3, Var.f4)


def _closed_form_feasible(case: Case, include_f3_min2: bool, point) -> bool:
    """Hand-written evaluation of the same constraints, one comparison per
    table row; the independent second route for auditing is_feasible."""
    e, s, t = point[Var.e], point[Var.s], point[Var.t]
    s1, s2, s3 = point[Var.s1], point[Var.s2], point[Var.s3]
    s21, s22 = point[Var.s21], point[Var.s22]
    s31, s32 = point[Var.s31], point[Var.s32]
    f3, f4 = point[Var.f3], point[Var.f4]
    big, small = point[Var.Omega], point[Var.omega]
    if e < 1:
        return False
    if s1 + s2 + s3 != s or s21 + s22 != s2 or s31 + s32 != s3:
        return False
    if big < e + f3 + 2 * s + f4:
        return False
    if s1 + s22 > t + s21 + s31 + 1:
        return False
    if s1 > t + s31 + 1:
        return False
    if s21 + s31 > f3:
        return False
    if s1 + 2 * s22 + 3 * s32 > f4 + e + s21:
        return False
    if 4 * t > f4:
        return False
    if case is Case.THREE_COPRIME:
        if small != s + t + 1:
            return False
        if f3 or s21 or s31:
            return False
    else:
        if small != s + t + 2:
            return False
        if include_f3_min2 and f3 < 2:
            return False
    return True


def _complete(case, free):
    """Fill the derived variables from the free ones the same way the scan
    does: equalities solved, Omega at its envelope."""
    point = dict(free)
    point[Var.s2] = point[Var.s21] + point[Var.s22]
    point[Var.s3] = point[Var.s31] + point[Var.s32]
    point[Var.s] = point[Var.s1] + point[Var.s2] + point[Var.s3]
    bump = 1 if case is Case.THREE_COPRIME else 2
    point[Var.omega] = point[Var.s] + point[Var.t] + bump
    point[Var.Omega] = point[Var.e] + point[Var.f3] + 2 * point[Var.s] + point[Var.f4]
    return point


def _naive_scan(system, slope, box):
    """Reference minimum: full cartesian product over the free box, no
    pruning, feasibility by the hand-written per-row checker."""
    num, den = Fraction(slope).numerator, Fraction(slope).denominator
    best = None
    for values in product(range(box + 1), repeat=len(FREE)):
        point = _complete(system.case, dict(zip(FREE, values)))
        if not _closed_form_feasible(system.case, system.include_f3_min2, point):
            continue
        key = den * point[Var.Omega] - num * point[Var.omega]
        entry = (key, tuple(point[v] for v in Var))
        if best is None or entry < best:
            best = entry
    if best is None:
        return ScanResult(None, None)
    return ScanResult(Fraction(best[0], den), dict(zip(Var, best[1])))


def test_handpicked_points():
    good = {v: 0 for v in Var}
    good.update({Var.e: 1, Var.s1: 1, Var.s: 1, Var.Omega: 3, Var.omega: 2})
    assert is_feasible(NO3, good)

    assert not is_feasible(NO3, {v: 0 for v in Var})  # violates e >= 1

    tiny = {v: 0 for v in Var}
    tiny.update({Var.e: 1, Var.Omega: 1, Var.omega: 1})
    assert is_feasible(NO3, tiny)

    # s=2 with a single s1 prime breaks the s breakdown equality
    bad = {v: 0 for v in Var}
    bad.update({Var.e: 1, Var.s1: 2, Var.s: 2, Var.Omega: 6, Var.omega: 3})
    assert not is_feasible(NO3, bad)


def _leaning_free(rng, case, sharp):
    """Random free assignment drawn inside the coupled upper bounds, so a
    decent share of the samples lands in the feasible region (uniform draws
    almost never survive f4 >= 4t plus the case equalities)."""
    e = rng.randint(1, 3)
    t = rng.randint(0, 1)
    f4 = 4 * t + rng.randint(0, 2)
    if case is Case.THREE_COPRIME:
        f3 = s21 = s31 = 0
    else:
        f3 = rng.randint(2 if sharp else 0, 4)
        s21 = rng.randint(0, f3)
        s31 = rng.randint(0, f3 - s21)
    s1 = rng.randint(0, t + s31 + 1)
    s22 = rng.randint(0, t + s21 + s31 + 1 - s1)
    budget = f4 + e + s21 - s1 - 2 * s22
    s32 = rng.randint(0, budget // 3) if budget >= 0 else rng.randint(0, 2)
    return dict(zip(FREE, (e, s1, s21, s22, s31, s32, t, f3, f4)))


def test_three_feasibility_paths_agree():
    """is_feasible (term loop), the closed-form checker, and LinExpr
    evaluation must be the same predicate."""
    rng = random.Random(31337)
    systems = [NO3, WITH3, WITH3_SHARP]
    hits = 0
    for i in range(400):
        system = rng.choice(systems)
        if i % 2:
            free = {v: rng.randint(0, 3) for v in FREE}
        else:
            free = _leaning_free(rng, system.case, system.include_f3_min2)
        point = _complete(system.case, free)
        if rng.random() < 0.4:
            # perturb a derived variable so equality rows get exercised
            point[rng.choice((Var.s, Var.s2, Var.s3, Var.omega, Var.Omega))] += \
                rng.choice((-1, 1))
        via_terms = is_feasible(system, point)
        via_closed = _closed_form_feasible(system.case, system.include_f3_min2, point)
        via_linexpr = all(
            (c.body.evaluate(point) == 0) if c.relation is Relation.EQ
            else c.body.evaluate(point) >= 0
            for c in system.constraints)
        assert via_terms == via_closed == via_linexpr, point
        hits += via_terms
    assert hits > 30  # the sample is not vacuous


@pytest.mark.parametrize("system", [NO3, WITH3, WITH3_SHARP])
@pytest.mark.parametrize("slope", [Fraction(0), Fraction(2), Fraction(9, 4), Fraction(8, 3),
                                   Fraction(21, 8), Fraction(3), Fraction(7, 2)])
def test_pruned_scan_equals_naive_scan(system, slope):
    for box in (1, 2):
        got = integer_scan(system, slope, box)
        want = _naive_scan(system, slope, box)
        assert got == want, (system.case, slope, box)


ORACLE_SLOPES = [Fraction(x) for x in ("0", "1", "2", "41/20", "7/3", "5/2", "21/8",
                                         "8/3", "11/4", "3", "4", "-1")]


@pytest.mark.parametrize("system", [NO3, WITH3, WITH3_SHARP])
@pytest.mark.parametrize("slope", ORACLE_SLOPES)
def test_scan_equals_pruned_loop_oracle(system, slope):
    # both sides of slope 2, where the solved s1/s22/s32 block switches from
    # empty to largest, and past both tips; boxes 0 and 5 are left to the
    # drawn cases below to keep the point-by-point loop cheap
    for box in (1, 2, 3, 4, 6):
        assert integer_scan(system, slope, box) == bruteforce_scan(system, slope, box), \
            (system.case, system.include_f3_min2, slope, box)


def test_scan_equals_pruned_loop_oracle_at_benchmark_sizes():
    want = bruteforce_scan(WITH3, Fraction(21, 8), 9)
    assert want.minimum == Fraction(-39, 8)
    assert integer_scan(WITH3, Fraction(21, 8), 9) == want
    want = bruteforce_scan(NO3, Fraction(8, 3), 40)
    assert want.minimum == Fraction(-7, 3)
    assert integer_scan(NO3, Fraction(8, 3), 40) == want


# k/d in [-1, 4] with d <= 48
SLOPES = st.integers(1, 48).flatmap(
    lambda den: st.integers(-den, 4 * den).map(lambda num: Fraction(num, den)))


@settings(deadline=None, max_examples=60)
@given(case=st.sampled_from(list(Case)), f3_min2=st.booleans(), slope=SLOPES,
       box=st.integers(0, 5))
def test_scan_equals_pruned_loop_oracle_on_drawn_cases(case, f3_min2, slope, box):
    system = build_system(case, f3_min2)
    assert integer_scan(system, slope, box) == bruteforce_scan(system, slope, box)


def _block_points(box):
    """Every outer point (t, s21, s31, u) the three_divides walk visits at
    this box; the three_coprime points are those with s21 = s31 = 0."""
    for t in range(0, box // 4 + 1):
        for u in range(4 * t + 1, 2 * box + 1):
            for s21 in range(0, box + 1):
                for s31 in range(0, box - s21 + 1):
                    yield t, s21, s31, u


def test_closed_form_block_equals_loop_at_every_small_point():
    count = 0
    for box in range(0, 13):
        for t, s21, s31, u in _block_points(box):
            assert enumeration._largest_block(box, t, s21, s31, u) == \
                largest_block_loop(box, t, s21, s31, u), (box, t, s21, s31, u)
            count += 1
    assert count == 19892


@st.composite
def _block_point(draw):
    box = draw(st.integers(1, 600))
    t = draw(st.integers(0, box // 4))
    u = draw(st.integers(4 * t + 1, 2 * box))
    s21 = draw(st.integers(0, box))
    s31 = draw(st.integers(0, box - s21))
    return box, t, s21, s31, u


@settings(deadline=None, max_examples=300)
@given(point=_block_point())
def test_closed_form_block_equals_loop_on_drawn_points(point):
    assert enumeration._largest_block(*point) == largest_block_loop(*point)


def test_box_four_reproduces_theorem_minima():
    no3 = integer_scan(NO3, Fraction(8, 3), 4)
    assert no3.minimum == Fraction(-7, 3)
    assert no3.witness[Var.e] == 1 and no3.witness[Var.s1] == 1
    with3 = integer_scan(WITH3, Fraction(21, 8), 4)
    assert with3.minimum == Fraction(-39, 8)


def test_scan_dominates_lp_value():
    for system, slope in ((NO3, Fraction(8, 3)), (NO3, Fraction(2)),
                          (WITH3, Fraction(21, 8)), (WITH3_SHARP, Fraction(21, 8))):
        lp_value = best_constant(system, slope).constant
        scan = integer_scan(system, slope, 3)
        assert scan.minimum >= lp_value, (system.case, slope)


def test_empty_boxes():
    assert integer_scan(NO3, Fraction(2), 0) == ScanResult(None, None)
    # f3 >= 2 cannot fit in a box of 1
    assert integer_scan(WITH3_SHARP, Fraction(2), 1) == ScanResult(None, None)
    with pytest.raises(ValueError):
        integer_scan(NO3, Fraction(2), -1)


def _no_scan(*args, **kwargs):
    raise AssertionError("the scan started")


def test_box_caps(monkeypatch):
    # at these caps a scan takes about 6-8 s past slope 2, and its time grows
    # like box^2 for three_coprime and box^4 for three_divides (box^2 and
    # box^4 outer points, each solving its block in O(1)); the benchmark's
    # boxes 12, 40 and 5, 9 fit
    assert enumeration.MAX_BOX == {Case.THREE_COPRIME: 2000, Case.THREE_DIVIDES: 60}
    monkeypatch.setattr(enumeration, "_scan_chunk", _no_scan)
    for system, cap in ((NO3, 2000), (WITH3, 60), (WITH3_SHARP, 60)):
        with pytest.raises(ValueError, match=f"^box {cap + 1} is larger than {cap}, "
                           f"the largest scan box for {system.case.value}$"):
            integer_scan(system, Fraction(21, 8), cap + 1)
        with pytest.raises(AssertionError, match="the scan started"):
            integer_scan(system, Fraction(21, 8), cap)


def test_scan_rejects_inputs_of_the_wrong_type(monkeypatch):
    # a float slope would be scanned as its binary value (0.1 gave the
    # minimum 32425917317067571/36028797018963968), a str or Decimal one as
    # whatever Fraction makes of it
    monkeypatch.setattr(enumeration, "_scan_chunk", _no_scan)
    for slope in (0.1, 2.0, "8/3", Decimal("2.5"), 1j):
        with pytest.raises(TypeError, match=r"^slope .* is not a rational number$"):
            integer_scan(NO3, slope, 3)
    for box in (3.0, Fraction(3), "3", Decimal(3), None):
        with pytest.raises(TypeError, match=r"^box_max .* is not an int$"):
            integer_scan(WITH3, Fraction(21, 8), box)


def test_tie_break_is_lexicographic():
    # at slope 2 the minimum -1 is attained for every s in the box (f4=t=0,
    # e=1, Omega=1+2s, omega=1+s), so the witness is a genuine tie and the
    # smallest tuple in declaration order must win: s = 0
    result = integer_scan(NO3, Fraction(2), 2)
    assert result.minimum == -1
    expected = {v: 0 for v in Var}
    expected.update({Var.e: 1, Var.Omega: 1, Var.omega: 1})
    assert result.witness == expected
