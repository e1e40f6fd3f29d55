"""The constraint tables are the ground truth everything else leans on, so
they are pinned here against an independently hard-coded copy, not rebuilt
through any shared helper."""
from fractions import Fraction

import pytest

from opnbounds.enumeration import is_feasible
from opnbounds.model import (Case, Relation, Var, build_system,
                             describe_system, render_bound, render_linexpr)

GE = Relation.GE
EQ = Relation.EQ

# name: (relation, {var: coeff}, constant) with the body compared to 0
SHARED_TABLE = {
    "special_exists": (GE, {Var.e: 1}, -1),
    "s_breakdown": (EQ, {Var.s1: 1, Var.s2: 1, Var.s3: 1, Var.s: -1}, 0),
    "s2_breakdown": (EQ, {Var.s21: 1, Var.s22: 1, Var.s2: -1}, 0),
    "s3_breakdown": (EQ, {Var.s31: 1, Var.s32: 1, Var.s3: -1}, 0),
    "omega_lower": (GE, {Var.Omega: 1, Var.e: -1, Var.f3: -1, Var.s: -2, Var.f4: -1}, 0),
    "s1_s22_upper": (GE, {Var.t: 1, Var.s21: 1, Var.s31: 1, Var.s1: -1, Var.s22: -1}, 1),
    "s1_upper": (GE, {Var.t: 1, Var.s31: 1, Var.s1: -1}, 1),
    "f3_lower": (GE, {Var.f3: 1, Var.s21: -1, Var.s31: -1}, 0),
    "mod3_count": (GE, {Var.f4: 1, Var.e: 1, Var.s21: 1, Var.s1: -1, Var.s22: -2, Var.s32: -3}, 0),
    "t_f4": (GE, {Var.f4: 1, Var.t: -4}, 0),
}

NO3_TABLE = dict(SHARED_TABLE)
NO3_TABLE.update({
    "omega_no3": (EQ, {Var.s: 1, Var.t: 1, Var.omega: -1}, 1),
    "f3_zero": (EQ, {Var.f3: 1}, 0),
    "s21_zero": (EQ, {Var.s21: 1}, 0),
    "s31_zero": (EQ, {Var.s31: 1}, 0),
})

WITH3_TABLE = dict(SHARED_TABLE)
WITH3_TABLE.update({
    "omega_with3": (EQ, {Var.s: 1, Var.t: 1, Var.omega: -1}, 2),
})

LABELS = {
    "special_exists": "Eq. 5", "s_breakdown": "Eq. 6", "s2_breakdown": "Eq. 7",
    "s3_breakdown": "Eq. 8", "omega_lower": "Eq. 9", "s1_s22_upper": "Eq. 10",
    "s1_upper": "Eq. 11", "f3_lower": "Eq. 12", "mod3_count": "Eq. 13",
    "t_f4": "Eq. 14", "omega_no3": "Eq. 15", "omega_with3": "Eq. 16",
    "f3_zero": "case", "s21_zero": "case", "s31_zero": "case", "f3_min2": "case",
}


def _check_against(system, table):
    assert {c.name for c in system.constraints} == set(table)
    for c in system.constraints:
        relation, coeffs, constant = table[c.name]
        assert c.relation is relation, c.name
        assert c.body.terms == {v: Fraction(k) for v, k in coeffs.items()}, c.name
        assert c.body.constant == constant, c.name
        assert c.label == LABELS[c.name], c.name


def test_three_coprime_golden_table():
    system = build_system(Case.THREE_COPRIME)
    assert len(system.constraints) == 14
    assert system.include_f3_min2 is False
    _check_against(system, NO3_TABLE)


def test_three_divides_golden_table():
    system = build_system(Case.THREE_DIVIDES, False)
    assert len(system.constraints) == 11
    _check_against(system, WITH3_TABLE)


def test_f3_min2_flag():
    system = build_system(Case.THREE_DIVIDES, True)
    assert len(system.constraints) == 12
    table = dict(WITH3_TABLE)
    table["f3_min2"] = (GE, {Var.f3: 1}, -2)
    _check_against(system, table)
    # without the flag: identical minus that one row
    bare = build_system(Case.THREE_DIVIDES, False)
    assert system.constraints[:-1] == bare.constraints
    # the flag means nothing to the other case
    assert build_system(Case.THREE_COPRIME, True) == build_system(Case.THREE_COPRIME)


def test_variable_enum_is_closed_and_ordered():
    assert [v.name for v in Var] == [
        "e", "s", "t", "s1", "s2", "s3", "s21", "s22",
        "s31", "s32", "f3", "f4", "Omega", "omega"]
    for case in Case:
        for c in build_system(case, True).constraints:
            assert all(isinstance(v, Var) for v in c.body.terms)


def test_names_unique_and_ordered_by_label():
    for case in Case:
        system = build_system(case, True)
        names = [c.name for c in system.constraints]
        assert len(set(names)) == len(names)
        numbered = [int(c.label.split()[1]) for c in system.constraints
                    if c.label.startswith("Eq.")]
        assert numbered == sorted(numbered)


def test_trivial_witness_satisfies_three_coprime():
    zero = {v: Fraction(0) for v in Var}
    zero.update({Var.e: Fraction(1), Var.Omega: Fraction(1), Var.omega: Fraction(1)})
    for c in build_system(Case.THREE_COPRIME).constraints:
        value = c.body.evaluate(zero)
        assert value == 0 if c.relation is EQ else value >= 0, c.name


def test_first_violated_rejects_float_coordinates():
    """A feasible point where s1 + s2 + s3 = s = 2^53 + 2 exactly; as
    floats, 1.0 + 2^53 + 1.0 rounds to 2^53, so a float check would report
    s_breakdown broken from rounding alone."""
    big = 2 ** 53
    point = {v: 0 for v in Var}
    point.update({Var.e: 1, Var.s: big + 2, Var.s1: 1, Var.s2: big, Var.s3: 1,
                  Var.s21: big, Var.s32: 1, Var.f3: big,
                  Var.Omega: 3 * big + 5, Var.omega: big + 4})
    system = build_system(Case.THREE_DIVIDES)
    assert system.first_violated(point) is None
    assert system.first_violated({**point, Var.s1: Fraction(1)}) is None
    floats = {**point, Var.s1: 1.0, Var.s2: float(big), Var.s3: 1.0}
    with pytest.raises(TypeError, match=r"^coordinate 1\.0 of <Var\.s1: 3> is not a rational"):
        system.first_violated(floats)
    with pytest.raises(TypeError, match=r"coordinate .* of <Var\.s2: 4>"):
        is_feasible(system, {**point, Var.s2: float(big)})


def test_describe_rows():
    text = describe_system(build_system(Case.THREE_COPRIME))
    lines = text.splitlines()
    assert len(lines) == 14
    assert "omega_lower | Eq. 9 | Ω - e - f3 - 2s - f4 ≥ 0" in lines
    with3 = describe_system(build_system(Case.THREE_DIVIDES)).splitlines()
    assert len(with3) == 11
    assert "f3_lower | Eq. 12 | f3 - s21 - s31 ≥ 0" in with3
    assert "omega_with3 | Eq. 16 | s + t - ω + 2 = 0" in with3


def test_render_bound_spellings():
    assert render_bound(Fraction(8, 3), Fraction(-7, 3)) == "Ω ≥ 8/3·ω - 7/3"
    assert render_bound(Fraction(21, 8), Fraction(-39, 8)) == "Ω ≥ 21/8·ω - 39/8"
    assert render_bound(Fraction(2), Fraction(-1)) == "Ω ≥ 2ω - 1"
    assert render_bound(Fraction(1), Fraction(0)) == "Ω ≥ ω"
    assert render_bound(Fraction(0), Fraction(1)) == "Ω ≥ 1"
    assert render_bound(Fraction(3), Fraction(1, 2)) == "Ω ≥ 3ω + 1/2"


def test_render_linexpr_shapes():
    from opnbounds.linexpr import LinExpr
    assert render_linexpr(LinExpr({Var.e: 1}, -1)) == "e - 1"
    assert render_linexpr(LinExpr({Var.omega: Fraction(-8, 3)})) == "-8/3·ω"
    assert render_linexpr(LinExpr({}, 0)) == "0"
    assert render_linexpr(LinExpr({Var.s: -2, Var.t: 1})) == "-2s + t"
