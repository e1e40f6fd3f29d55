import random
from fractions import Fraction

import pytest

from opnbounds import lp, simplex
from opnbounds.certificates import verify_certificate
from opnbounds.enumeration import is_feasible
from opnbounds.linexpr import LinExpr
from opnbounds.lp import UnboundedSlopeError, best_constant, frontier, minimize
from opnbounds.model import Case, Constraint, Relation, Var, build_system
from opnbounds.simplex import Status

import simplex_fraction_oracle as oracle

NO3 = build_system(Case.THREE_COPRIME)
WITH3 = build_system(Case.THREE_DIVIDES)
WITH3_SHARP = build_system(Case.THREE_DIVIDES, True)


def test_theorem_slope_no3():
    bound = best_constant(NO3, Fraction(8, 3))
    assert bound.constant == Fraction(-7, 3)
    # the known-good integral witness: e=1, s1=1, s=1, Omega=3, omega=2
    attained = (bound.witness[Var.Omega]
                - Fraction(8, 3) * bound.witness[Var.omega])
    assert attained == Fraction(-7, 3)
    assert is_feasible(NO3, bound.witness)
    report = verify_certificate(NO3, bound.certificate)
    assert report.passed and report.derived_constant == Fraction(-7, 3)


def test_theorem_slope_with3():
    bound = best_constant(WITH3, Fraction(21, 8))
    assert bound.constant == Fraction(-39, 8)
    assert is_feasible(WITH3, bound.witness)
    report = verify_certificate(WITH3, bound.certificate)
    assert report.passed and report.derived_constant == Fraction(-39, 8)


def test_slope_two_frozen_value():
    bound = best_constant(NO3, Fraction(2))
    assert bound.constant == Fraction(-1)
    assert verify_certificate(NO3, bound.certificate).passed


def test_slope_zero_bounded_below_by_one():
    # Omega >= e >= 1 forces the constant up to at least 1
    bound = best_constant(NO3, Fraction(0))
    assert bound.constant >= 1


def test_f3_min2_does_not_move_the_theorem_slope():
    """Frozen answer to the system's own open question: adding f3 >= 2
    leaves the optimum at 21/8 exactly where it was."""
    sharp = best_constant(WITH3_SHARP, Fraction(21, 8))
    assert sharp.constant == Fraction(-39, 8)
    assert is_feasible(WITH3_SHARP, sharp.witness)
    assert verify_certificate(WITH3_SHARP, sharp.certificate).passed


def test_f3_min2_monotone_across_slopes():
    for slope in (Fraction(0), Fraction(2), Fraction(21, 8), Fraction(5, 2)):
        plain = best_constant(WITH3, slope).constant
        sharp = best_constant(WITH3_SHARP, slope).constant
        assert sharp >= plain, slope


def test_unsupported_slope_raises():
    with pytest.raises(UnboundedSlopeError, match="slope 100 not supported"):
        best_constant(NO3, Fraction(100))
    # the scaling ray: t grows, f4 = 4t, Omega = 5t + const, omega = t + const
    with pytest.raises(UnboundedSlopeError):
        best_constant(NO3, Fraction(6))


def test_three_divides_tips_over_at_21_8():
    # 21/8 is the largest supported slope for the 3 | N system: the ray
    # t=1, s1=4, s31=3, s3=3, s=7, f3=3, f4=4, Omega=21, omega=8 satisfies
    # every homogeneous constraint with Omega/omega ratio exactly 21/8, so
    # any steeper slope is unbounded while 21/8 itself is attained (-39/8).
    with pytest.raises(UnboundedSlopeError, match="not supported"):
        best_constant(WITH3, Fraction(8, 3))
    with pytest.raises(UnboundedSlopeError):
        best_constant(WITH3_SHARP, Fraction(8, 3))
    assert best_constant(WITH3, Fraction(21, 8)).constant == Fraction(-39, 8)

    ray = {var: Fraction(0) for var in Var}
    ray.update({Var.t: Fraction(1), Var.s1: Fraction(4), Var.s31: Fraction(3),
                Var.s3: Fraction(3), Var.s: Fraction(7), Var.f3: Fraction(3),
                Var.f4: Fraction(4), Var.Omega: Fraction(21),
                Var.omega: Fraction(8)})
    for con in WITH3.constraints:
        moved = sum(coeff * ray[var] for var, coeff in con.body.terms.items())
        if con.relation is Relation.EQ:
            assert moved == 0, con.name
        else:
            assert moved >= 0, con.name


def test_three_coprime_tips_over_at_8_3():
    # 8/3 is the steepest supported slope when 3 does not divide N: it is
    # attained (-7/3, the paper's bound) and anything steeper is unbounded
    assert best_constant(NO3, Fraction(8, 3)).constant == Fraction(-7, 3)
    with pytest.raises(UnboundedSlopeError, match="not supported"):
        best_constant(NO3, Fraction(8, 3) + Fraction(1, 1000))


def test_minimize_statuses():
    zero = minimize(NO3, LinExpr({}))
    assert zero.status is Status.OPTIMAL and zero.value == 0
    down = minimize(NO3, LinExpr({Var.e: -1}))
    assert down.status is Status.UNBOUNDED
    assert down.value is None and down.primal is None


def test_minimize_primal_is_exactly_feasible():
    objective = LinExpr({Var.Omega: 1, Var.omega: Fraction(-8, 3)})
    solution = minimize(NO3, objective)
    assert solution.optimal
    for c in NO3.constraints:
        value = c.body.evaluate(solution.primal)
        assert value == 0 if c.relation is Relation.EQ else value >= 0, c.name
    assert objective.evaluate(solution.primal) == solution.value
    assert all(v >= 0 for v in solution.primal.values())


def test_multiplier_map_covers_constraints():
    solution = minimize(NO3, LinExpr({Var.Omega: 1}))
    assert solution.optimal
    assert set(solution.multipliers) <= {c.name for c in NO3.constraints}
    for name, y in solution.multipliers.items():
        if NO3.mapping()[name].relation is Relation.GE:
            assert y >= 0, name


def test_frontier_rows_in_input_order():
    rows = frontier(NO3, [Fraction(2), Fraction(8, 3), Fraction(100)])
    assert [(r.slope, r.constant) for r in rows] == [
        (Fraction(2), Fraction(-1)),
        (Fraction(8, 3), Fraction(-7, 3)),
        (Fraction(100), None),
    ]
    assert rows[0].certificate is not None
    assert rows[2].certificate is None
    assert frontier(NO3, []) == []


def test_weak_duality_on_random_feasible_points():
    """Any verified certificate's bound holds at any feasible point."""
    rng = random.Random(99)
    bound = best_constant(NO3, Fraction(8, 3))
    for _ in range(80):
        free = {var: Fraction(rng.randint(0, 5)) for var in
                (Var.e, Var.s1, Var.s22, Var.s32, Var.t, Var.f4)}
        point = {v: Fraction(0) for v in Var}
        point.update(free)
        point[Var.e] += 1
        point[Var.s2] = point[Var.s22]
        point[Var.s3] = point[Var.s32]
        point[Var.s] = point[Var.s1] + point[Var.s2] + point[Var.s3]
        point[Var.omega] = point[Var.s] + point[Var.t] + 1
        point[Var.f4] += 4 * point[Var.t]
        point[Var.Omega] = point[Var.e] + 2 * point[Var.s] + point[Var.f4]
        if not is_feasible(NO3, point):
            continue
        assert (point[Var.Omega] - Fraction(8, 3) * point[Var.omega]
                >= bound.constant)


# every k/d in [-1, 4] with d <= 12: both sides of 2 and past both tips
SWEEP = sorted({Fraction(k, d) for d in range(1, 13) for k in range(-d, 4 * d + 1)})


def _rows(system):
    """The system's simplex rows, relations and right-hand sides."""
    rows = [[c.body.coeff(v) for v in Var] for c in system.constraints]
    relations = [simplex.GE if c.relation is Relation.GE else simplex.EQ
                 for c in system.constraints]
    rhs = [-c.body.constant for c in system.constraints]
    return rows, relations, rhs


def _cost(slope):
    return [LinExpr({Var.Omega: 1, Var.omega: -slope}).coeff(v) for v in Var]


def _cold_solve(system, slope):
    """simplex.solve after a phase 1 of its own on the system's rows."""
    return simplex.solve(simplex.feasible(*_rows(system)), _cost(slope))


@pytest.mark.parametrize("system", [NO3, WITH3, WITH3_SHARP],
                         ids=["three_coprime", "three_divides", "f3_min2"])
def test_shared_phase_one_matches_cold_solves(system):
    for slope in SWEEP:
        cold = _cold_solve(system, slope)
        if cold.status is Status.UNBOUNDED:
            with pytest.raises(UnboundedSlopeError):
                best_constant(system, slope)
            continue
        assert cold.status is Status.OPTIMAL, slope
        bound = best_constant(system, slope)
        assert bound.constant == cold.value, slope
        assert bound.witness == {v: cold.x[v.value] for v in Var}, slope
        assert bound.certificate.multipliers == {
            c.name: y for c, y in zip(system.constraints, cold.duals) if y}, slope


@pytest.mark.parametrize("system", [NO3, WITH3, WITH3_SHARP],
                         ids=["three_coprime", "three_divides", "f3_min2"])
def test_sweep_matches_fraction_oracle(system):
    """Constants, witnesses and certificate multipliers over the sweep are
    those of the Fraction simplex the integer tableau replaced."""
    rows, relations, rhs = _rows(system)
    start = oracle.feasible(rows, relations, rhs)
    for slope in SWEEP:
        want = oracle.solve(rows, relations, rhs, _cost(slope), start=start)
        if want.status is Status.UNBOUNDED:
            with pytest.raises(UnboundedSlopeError):
                best_constant(system, slope)
            continue
        bound = best_constant(system, slope)
        assert bound.constant == want.value, slope
        assert bound.witness == {v: want.x[v.value] for v in Var}, slope
        assert bound.certificate.multipliers == {
            c.name: y for c, y in zip(system.constraints, want.duals) if y}, slope


def test_float_slope_raises_type_error(monkeypatch):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    calls = _count_simplex_calls(monkeypatch)
    with pytest.raises(TypeError, match=r"slope 0.1 is not a rational number"):
        best_constant(WITH3, 0.1)
    with pytest.raises(TypeError, match="slope '1/10'"):
        best_constant(WITH3, "1/10")
    assert calls == {"feasible": 0, "solve": 0}  # refused before phase 1
    assert best_constant(WITH3, 2).constant == best_constant(WITH3, Fraction(2)).constant


def _count_simplex_calls(monkeypatch):
    """Live counts of simplex.feasible (phase 1) and simplex.solve calls."""
    calls = {"feasible": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simplex, name, counted(name, getattr(simplex, name)))
    return calls


def test_phase_one_runs_once_per_call(monkeypatch):
    calls = _count_simplex_calls(monkeypatch)
    for system in (NO3, WITH3, WITH3_SHARP):
        frontier(system, SWEEP)
    assert calls == {"feasible": 3, "solve": 3 * len(SWEEP)}
    frontier(NO3, SWEEP[:2])                # a second sweep over one system
    assert calls == {"feasible": 4, "solve": 3 * len(SWEEP) + 2}
    best_constant(NO3, Fraction(8, 3))
    assert calls == {"feasible": 5, "solve": 3 * len(SWEEP) + 3}
    minimize(NO3, LinExpr({Var.e: 1}))
    assert calls == {"feasible": 6, "solve": 3 * len(SWEEP) + 4}


@pytest.mark.parametrize("system, tip", [(NO3, Fraction(8, 3)), (WITH3, Fraction(21, 8)),
                                         (WITH3_SHARP, Fraction(21, 8))],
                         ids=["three_coprime", "three_divides", "f3_min2"])
def test_best_constant_is_the_one_slope_frontier(system, tip):
    for slope in (Fraction(2), tip):
        assert best_constant(system, slope) == frontier(system, [slope])[0]
    unbounded = frontier(system, [3])
    assert unbounded == [lp.SlopeBound(Fraction(3), None, None, None)]
    assert type(unbounded[0].slope) is Fraction
    with pytest.raises(UnboundedSlopeError, match=r"^slope 3 not supported by system$"):
        best_constant(system, Fraction(3))


def test_infeasible_system_stops_after_phase_one(monkeypatch):
    # NO3 forces e >= 1; the extra row e = 0 leaves no feasible point
    e_zero = Constraint("e_zero", "case", Relation.EQ, LinExpr({Var.e: 1}))
    stuck = NO3._replace(constraints=NO3.constraints + (e_zero,))
    calls = _count_simplex_calls(monkeypatch)
    solution = minimize(stuck, LinExpr({Var.Omega: 1}))
    assert solution == lp.LPSolution(Status.INFEASIBLE)
    assert solution.primal is None and solution.multipliers is None
    assert calls == {"feasible": 1, "solve": 0}
    with pytest.raises(RuntimeError, match="^system unexpectedly infeasible$"):
        best_constant(stuck, Fraction(8, 3))
    assert calls == {"feasible": 2, "solve": 0}


@pytest.mark.parametrize("ablated_first", [True, False])
def test_hand_built_system_never_shares_a_cached_form(ablated_first):
    """A system without Eq. 10 loses the slope 8/3 (its tip is Ochem and
    Rao's 18/7); the full system keeps it, whichever is solved first."""
    ablated = NO3._replace(constraints=tuple(
        c for c in NO3.constraints if c.name != "s1_s22_upper"))
    assert ablated.case is NO3.case and ablated.include_f3_min2 == NO3.include_f3_min2

    def check_ablated():
        with pytest.raises(UnboundedSlopeError):
            best_constant(ablated, Fraction(8, 3))
        assert best_constant(ablated, Fraction(18, 7)).constant == Fraction(-15, 7)

    def check_full():
        assert best_constant(build_system(Case.THREE_COPRIME), Fraction(8, 3)).constant \
            == Fraction(-7, 3)

    for check in ((check_ablated, check_full) if ablated_first
                  else (check_full, check_ablated)):
        check()
    check_ablated()
    check_full()
