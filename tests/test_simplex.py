import copy
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnbounds import lp, simplex
from opnbounds.model import Case, Var, build_system
from opnbounds.rationals import clear_denominators
from opnbounds.simplex import EQ, GE, Status, feasible, solve, sweep

import simplex_fraction_oracle as oracle
from lp_bruteforce import brute_force_lp
from simplex_rows import solve_rows


def test_textbook_optimum():
    # min -x - 2y st -x - y >= -4, -x + y >= -2 (i.e. x+y <= 4, x-y <= 2)
    result = solve_rows([[-1, -1], [-1, 1]], [GE, GE], [-4, -2], [-1, -2])
    assert result.status is Status.OPTIMAL
    assert result.value == -8
    assert result.x == [0, 4]


def test_equality_and_mixed_rows():
    # min x + y st x + y == 3, x - y >= 1
    result = solve_rows([[1, 1], [1, -1]], [EQ, GE], [3, 1], [1, 1])
    assert result.status is Status.OPTIMAL
    assert result.value == 3
    assert result.duals is not None
    y_eq, y_ge = result.duals
    assert y_ge >= 0
    assert y_eq * 3 + y_ge * 1 == 3


def test_infeasible():
    # x >= 2 and x == 1
    result = solve_rows([[1], [1]], [GE, EQ], [2, 1], [1])
    assert result.status is Status.INFEASIBLE


def test_unbounded():
    result = solve_rows([[1]], [GE], [1], [-1])
    assert result.status is Status.UNBOUNDED


# Beale's classic cycling example, stated as <= and flipped to >=
BEALE_ROWS = [[-v for v in row] for row in (
    [Fraction(1, 4), -60, Fraction(-1, 25), 9],
    [Fraction(1, 2), -90, Fraction(-1, 50), 3],
    [0, 0, 1, 0],
)]
BEALE_RHS = [0, 0, -1]
BEALE_OBJECTIVE = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]


def test_degenerate_vertex_terminates():
    # Bland's rule must still finish
    result = solve_rows(BEALE_ROWS, [GE, GE, GE], BEALE_RHS, BEALE_OBJECTIVE)
    assert result.status is Status.OPTIMAL
    assert result.value == Fraction(-1, 20)


def test_redundant_equalities_drop_cleanly():
    # second row repeats the first; third is their sum
    rows = [[1, 1], [1, 1], [2, 2]]
    result = solve_rows(rows, [EQ, EQ, EQ], [2, 2, 4], [1, 0])
    assert result.status is Status.OPTIMAL
    assert result.value == 0
    paid = sum(d * b for d, b in zip(result.duals, [2, 2, 4]))
    assert paid == 0


def test_zero_rhs_duals_keep_strong_duality():
    result = solve_rows([[1, -1]], [EQ], [0], [1, 2])
    assert result.status is Status.OPTIMAL
    assert result.value == 0


def test_determinism_repr_identical():
    rows = [[1, 2, -1], [0, 1, 1], [3, -1, 0]]
    relations = [GE, EQ, GE]
    rhs = [1, 2, -1]
    objective = [2, 1, 1]
    first = solve_rows(rows, relations, rhs, objective)
    second = solve_rows(rows, relations, rhs, objective)
    assert repr(first) == repr(second)
    assert first.x == second.x and first.duals == second.duals


def _random_problem(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    relations = [EQ if rng.random() < 0.3 else GE for _ in range(m)]
    rhs = [rng.randint(-4, 4) for _ in range(m)]
    objective = [rng.randint(-3, 3) for _ in range(n)]
    return rows, relations, rhs, objective


def test_random_lps_match_brute_force():
    rng = random.Random(424242)
    statuses = {Status.OPTIMAL: 0, Status.INFEASIBLE: 0, Status.UNBOUNDED: 0}
    for _ in range(60):
        rows, relations, rhs, objective = _random_problem(rng)
        got = solve_rows(rows, relations, rhs, objective)
        want_status, want_value = brute_force_lp(rows, relations, rhs, objective)
        assert got.status.value == want_status, (rows, relations, rhs, objective)
        if want_status == "optimal":
            assert got.value == want_value, (rows, relations, rhs, objective)
            # primal feasibility of the reported point
            for row, rel, b in zip(rows, relations, rhs):
                lhs = sum(Fraction(c) * x for c, x in zip(row, got.x))
                assert lhs == b if rel == EQ else lhs >= b
            assert all(x >= 0 for x in got.x)
        statuses[got.status] += 1
    # the generator actually exercises all three outcomes
    assert all(count > 0 for count in statuses.values())


def test_shared_phase_one_matches_cold_solves():
    """Phase 2 from one shared feasible() tableau gives the answer of a
    phase 1 run for that objective alone, and leaves the shared tableau as
    it was."""
    rng = random.Random(424242)
    infeasible = 0
    for _ in range(60):
        rows, relations, rhs, _ = _random_problem(rng)
        start = feasible(rows, relations, rhs)
        if start is None:
            infeasible += 1
            continue
        before = copy.deepcopy(vars(start))
        for _ in range(4):
            objective = [rng.randint(-3, 3) for _ in rows[0]]
            warm = solve(start, objective)
            cold = solve(feasible(rows, relations, rhs), objective)
            assert (warm.status, warm.value, warm.x, warm.duals) == \
                (cold.status, cold.value, cold.x, cold.duals), (rows, relations, rhs, objective)
        assert vars(start) == before
    assert infeasible > 0


def test_start_must_match_the_objective_length():
    start = feasible([[1, 1]], [GE], [1])
    with pytest.raises(ValueError, match="objective has 3 coefficients, the rows 2 columns"):
        solve(start, [1, 1, 1])


def _traced_solve(module, solve_from_rows, rows, relations, rhs, objective):
    """The result of solve_from_rows, phase 1 and 2 over module's tableau,
    and its trace: each pivot (row, column, sign of the pivot entry) in
    order and the basis at the end of each Bland run."""
    trace = []
    pivot, run = module._Tableau.pivot, module._Tableau.run

    # each forwards whatever arguments its tableau's method takes: the
    # oracle's also pass the objective row and return its rhs from run
    def traced_pivot(self, r, c, *rest):
        trace.append(("pivot", r, c, self.rows[r][c] > 0))
        return pivot(self, r, c, *rest)

    def traced_run(self, *args):
        out = run(self, *args)
        trace.append((out if isinstance(out, str) else out[0], self.basis[:]))
        return out

    with mock.patch.object(module._Tableau, "pivot", traced_pivot), \
            mock.patch.object(module._Tableau, "run", traced_run):
        result = solve_from_rows(rows, relations, rhs, objective)
    return result, trace


def _assert_matches_oracle(rows, relations, rhs, objective):
    """The integer tableau makes the Fraction tableau's pivots and gives its
    status, value, x, duals and final basis; returns the result and trace."""
    got, got_trace = _traced_solve(simplex, solve_rows, rows, relations, rhs, objective)
    want, want_trace = _traced_solve(oracle, oracle.solve, rows, relations, rhs, objective)
    problem = (rows, relations, rhs, objective)
    assert (got.status, got.value, got.x, got.duals) == \
        (want.status, want.value, want.x, want.duals), problem
    # simplex walks phase 2 in sweep, without run(), so the oracle's phase-2
    # run, its last record, is left out; the pivots, which fix the final
    # basis, are all compared
    if want.status is not Status.INFEASIBLE:
        assert want_trace[-1][0] == want.status.value, problem
        want_trace = want_trace[:-1]
    assert got_trace == want_trace, problem
    return got, got_trace


def _rational(rng):
    value = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4, 6)))
    return int(value) if value.denominator == 1 and rng.random() < 0.5 else value


def _with_redundant_equality(rows, relations, rhs, a, b, qa, qb, at):
    """Make rows a and b equalities and insert their combination
    qa*row_a + qb*row_b == qa*rhs_a + qb*rhs_b as row number at."""
    relations[a] = relations[b] = EQ
    rows.insert(at, [qa * u + qb * v for u, v in zip(rows[a], rows[b])])
    rhs.insert(at, qa * rhs[a] + qb * rhs[b])
    relations.insert(at, EQ)


def _rational_problem(rng):
    """1-6 rows over 1-5 columns, mixed EQ/GE, rhs of either sign, small
    denominators, and now and then a redundant equality."""
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    rows = [[_rational(rng) for _ in range(n)] for _ in range(m)]
    relations = [EQ if rng.random() < 0.35 else GE for _ in range(m)]
    rhs = [_rational(rng) for _ in range(m)]
    if m >= 2 and rng.random() < 0.3:
        a, b = rng.sample(range(m), 2)
        _with_redundant_equality(rows, relations, rhs, a, b, _rational(rng),
                                 _rational(rng), rng.randint(0, m))
    objective = [_rational(rng) for _ in range(n)]
    return rows, relations, rhs, objective


def test_integer_tableau_matches_fraction_oracle_on_seeded_draws():
    rng = random.Random(20240607)
    statuses = {status: 0 for status in Status}
    negative_pivots = 0
    for _ in range(3000):
        result, trace = _assert_matches_oracle(*_rational_problem(rng))
        statuses[result.status] += 1
        negative_pivots += any(step[0] == "pivot" and not step[3] for step in trace)
    assert all(count > 100 for count in statuses.values()), statuses
    assert negative_pivots > 10


_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4]))


@st.composite
def _problems(draw, max_rows, max_cols):
    n = draw(st.integers(1, max_cols))
    m = draw(st.integers(1, max_rows))
    rows = draw(st.lists(st.lists(_RATIONALS, min_size=n, max_size=n), min_size=m, max_size=m))
    relations = draw(st.lists(st.sampled_from([GE, EQ]), min_size=m, max_size=m))
    rhs = draw(st.lists(_RATIONALS, min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        _with_redundant_equality(rows, relations, rhs, a, b, draw(_RATIONALS),
                                 draw(_RATIONALS), draw(st.integers(0, m)))
    objective = draw(st.lists(_RATIONALS, min_size=n, max_size=n))
    return rows, relations, rhs, objective


@settings(deadline=None, max_examples=300)
@given(problem=_problems(max_rows=6, max_cols=5))
def test_integer_tableau_matches_fraction_oracle(problem):
    _assert_matches_oracle(*problem)


def test_beale_pivots_match_fraction_oracle():
    result, trace = _assert_matches_oracle(BEALE_ROWS, [GE, GE, GE], BEALE_RHS, BEALE_OBJECTIVE)
    assert result.value == Fraction(-1, 20)
    assert sum(step[0] == "pivot" for step in trace) > 3


def test_drive_out_pivot_on_a_negative_entry_matches_fraction_oracle():
    # phase 1 pivots x into row 0, so D becomes 2, and ends with the
    # equality's artificial basic at 0; driving it out pivots on the negative
    # y entry of row 1
    result, trace = _assert_matches_oracle([[2, -1], [-1, 0]], [GE, EQ], [0, 0], [1, 1])
    assert trace[:3] == [("pivot", 0, 0, True), ("optimal", [0, 4]), ("pivot", 1, 1, False)]
    assert result.value == 0 and result.duals == [0, -1]


def _assert_optimal_and_certified(result, rows, relations, rhs, objective):
    """x is feasible, the duals are dual feasible and pay the value."""
    for row, rel, b in zip(rows, relations, rhs):
        lhs = sum(Fraction(c) * x for c, x in zip(row, result.x))
        assert lhs == b if rel == EQ else lhs >= b
    assert all(x >= 0 for x in result.x)
    for j, cost in enumerate(objective):
        assert sum(y * row[j] for y, row in zip(result.duals, rows)) <= cost, j
    assert all(y >= 0 for y, rel in zip(result.duals, relations) if rel == GE)
    assert sum(y * b for y, b in zip(result.duals, rhs)) == result.value


def test_dual_of_a_row_dropped_under_another_rows_artificial():
    # row 0 + row 1 is -y = -1, so row 2 (2y = 2) is redundant. Phase 1
    # drops tableau row 2 while row 1's artificial is basic in it: that
    # input row gets dual 0, and row 2 keeps its own
    rows, relations, rhs, objective = [[-2, 0, -1], [2, -1, 1], [0, 2, 0]], [EQ] * 3, [-1, 0, 2], [1, 1, 1]
    result = solve_rows(rows, relations, rhs, objective)
    assert brute_force_lp(rows, relations, rhs, objective) == ("optimal", Fraction(3, 2))
    assert result.value == Fraction(3, 2)
    assert result.duals == [Fraction(-1, 2), 0, Fraction(1, 2)]
    _assert_optimal_and_certified(result, rows, relations, rhs, objective)


@settings(deadline=None, max_examples=150)
@given(problem=_problems(max_rows=4, max_cols=3))
def test_rational_lps_match_brute_force(problem):
    rows, relations, rhs, objective = problem
    got = solve_rows(rows, relations, rhs, objective)
    want_status, want_value = brute_force_lp(rows, relations, rhs, objective)
    assert got.status.value == want_status
    if want_status == "optimal":
        assert got.value == want_value
        _assert_optimal_and_certified(got, rows, relations, rhs, objective)


@pytest.mark.parametrize("rows, rhs, objective, named", [
    ([[0.1, 1]], [Fraction(3, 10)], [1, 1], r"rows\[0\]\[0\] 0.1"),
    ([[1, 1]], [0.3], [1, 1], r"rhs\[0\] 0.3"),
    ([[1, 1]], [1], [1, 0.5], r"objective\[1\] 0.5"),
    ([[1, Decimal("0.5")]], [1], [1, 1], r"rows\[0\]\[1\] Decimal\('0.5'\)"),
    ([[0.1, 1]], [0.3], [1, 1], r" 0.[13]"),
])
def test_non_rational_input_raises_type_error(rows, rhs, objective, named):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match=named + " is not a rational number"):
        solve_rows(rows, [GE], rhs, objective)


def test_feasible_rejects_a_float_row():
    with pytest.raises(TypeError, match=r"rows\[0\]\[0\] 0.1 is not a rational number"):
        feasible([[0.1, 1]], [GE], [1])


@pytest.mark.parametrize("rows, relations, rhs, named", [
    ([[1], [1]], [GE, GE], [1],
     r"index 1 is not in all of rows, relations and rhs \(2, 2 and 1 entries\)"),
    ([[1], [1]], [GE], [1, 1], r"index 1 .* \(2, 1 and 2 entries\)"),
    ([[1]], [GE, GE], [1, 1], r"index 1 .* \(1, 2 and 2 entries\)"),
    ([[1, 1], [1]], [GE, GE], [1, 1], r"rows\[1\] has 1 coefficients, rows\[0\] 2"),
    ([[1], [1, 1]], [GE, EQ], [1, 1], r"rows\[1\] has 2 coefficients, rows\[0\] 1"),
    ([[1]], ["<="], [1], r"relations\[0\] is '<=', not '>=' or '=='"),
    ([[1], [1]], [GE, None], [1, 1], r"relations\[1\] is None"),
])
def test_feasible_rejects_malformed_shapes(rows, relations, rhs, named):
    # each of these once gave a wrong optimum or an unrelated error
    with pytest.raises(ValueError, match=named):
        feasible(rows, relations, rhs)


def _assert_tableau_invariant(tb, rows, relations, rhs, objectives):
    """T = D * B^-1 [A | b] with its rhs in the last column: D > 0, each
    basic column is D in its own row and 0 in every other, the objective
    rows included; b >= 0, and the x read off the last column meets every
    input row. The objective rows follow the constraint rows, one per
    (unit, cost) of objectives, and each ends in -unit*D times its cost at x."""
    d = tb.d
    assert d > 0
    for i, col in enumerate(tb.basis):
        assert [row[col] for row in tb.rows] == [d if k == i else 0 for k in range(len(tb.rows))]
    m = len(tb.basis)
    assert all(row[-1] >= 0 for row in tb.rows[:m])
    x = [Fraction(0)] * tb.n
    for row, col in zip(tb.rows, tb.basis):
        if col < tb.n:
            x[col] = Fraction(row[-1], d)
    for row, relation, b in zip(rows, relations, rhs):
        lhs = sum(Fraction(a) * v for a, v in zip(row, x))
        assert lhs == b if relation == EQ else lhs >= b
    assert len(tb.rows) == m + len(objectives)
    for z, (unit, cost) in zip(tb.rows[m:], objectives):
        assert z[-1] == -unit * d * sum(c * v for c, v in zip(cost, x))


def _check_invariant_through_both_phases(rows, relations, rhs, objectives):
    """The invariant after feasible() and after every phase-2 pivot of a
    solve per objective; returns the number of phase-2 pivots checked."""
    start = feasible(rows, relations, rhs)
    if start is None:
        return 0
    # phase 1 ends at value 0, or priced nothing when no row needed an artificial
    _assert_tableau_invariant(start, rows, relations, rhs, [(1, [0] * start.n)])
    checked = 0
    pivot = simplex._Tableau.pivot

    for objective in objectives:
        # solve's pencil: the objective, and a step of 0
        pencil = [(clear_denominators(objective)[0], objective), (1, [0] * start.n)]

        def checked_pivot(self, r, c):
            nonlocal checked
            pivot(self, r, c)
            _assert_tableau_invariant(self, rows, relations, rhs, pencil)
            checked += 1

        with mock.patch.object(simplex._Tableau, "pivot", checked_pivot):
            solve(start, objective)
    return checked


def test_tableau_invariant_on_seeded_draws():
    rng = random.Random(20240607)
    checked = 0
    for _ in range(2000):
        rows, relations, rhs, objective = _rational_problem(rng)
        checked += _check_invariant_through_both_phases(
            rows, relations, rhs, [objective, [_rational(rng) for _ in objective]])
    assert checked > 600


@pytest.mark.parametrize("case, f3_min2", [
    (Case.THREE_COPRIME, False), (Case.THREE_DIVIDES, False), (Case.THREE_DIVIDES, True)])
def test_tableau_invariant_on_the_model_systems(case, f3_min2):
    with mock.patch.object(simplex, "feasible", wraps=simplex.feasible) as spy:
        lp._standard_form(build_system(case, f3_min2))
    rows, relations, rhs = spy.call_args.args
    # Omega - slope*omega on both sides of each tip, then -v for each variable
    objectives = []
    for slope in (0, 1, 2, Fraction(5, 2), Fraction(21, 8), Fraction(8, 3), 3):
        cost = [Fraction(0)] * len(Var)
        cost[Var.Omega], cost[Var.omega] = Fraction(1), -Fraction(slope)
        objectives.append(cost)
    objectives += [[-1 if u is v else 0 for u in Var] for v in Var]
    assert _check_invariant_through_both_phases(rows, relations, rhs, objectives) > 10


def _counted_pivots(call):
    """call()'s result and the pivots it made."""
    pivots = 0
    pivot = simplex._Tableau.pivot

    def counted(self, r, c):
        nonlocal pivots
        pivots += 1
        pivot(self, r, c)

    with mock.patch.object(simplex._Tableau, "pivot", counted):
        result = call()
    return result, pivots


def _assert_sweep_is_the_solves(rows, relations, rhs, base, step, ts):
    """sweep gives, field by field, one solve per objective base + t*step;
    the tableau invariant holds at every node of its tree, and it makes no
    more pivots than the solves. Returns the results."""
    start = feasible(rows, relations, rhs)
    if start is None:
        return []
    before = copy.deepcopy(vars(start))
    want, solo_pivots = _counted_pivots(lambda: [
        solve(start, [b + t * v for b, v in zip(base, step)]) for t in ts])
    pencil = [(clear_denominators(base)[0], base), (clear_denominators(step)[0], step)]
    pivot = simplex._Tableau.pivot
    nodes = 0

    def checked_pivot(self, r, c):
        nonlocal nodes
        pivot(self, r, c)
        _assert_tableau_invariant(self, rows, relations, rhs, pencil)
        nodes += 1

    with mock.patch.object(simplex._Tableau, "pivot", checked_pivot):
        got = sweep(start, base, step, ts)
    problem = (rows, relations, rhs, base, step, ts)
    assert got == want, problem
    for g, w in zip(got, want):
        assert [type(v) for v in (g.value, *(g.x or ()), *(g.duals or ()))] == \
            [type(v) for v in (w.value, *(w.x or ()), *(w.duals or ()))], problem
    assert nodes <= solo_pivots, problem
    assert vars(start) == before
    return got


# negative, zero, tiny, large and repeated t
_TS = [Fraction(-7, 2), -1, Fraction(-1, 3), 0, Fraction(1, 1000), Fraction(2, 3), 1,
       Fraction(5, 2), 9, Fraction(2, 3), -40]


def test_sweep_is_the_solves_on_seeded_draws():
    rng = random.Random(20241020)
    statuses = {status: 0 for status in Status}
    mixed = 0
    for _ in range(600):
        rows, relations, rhs, base = _rational_problem(rng)
        step = [_rational(rng) for _ in base]
        results = _assert_sweep_is_the_solves(rows, relations, rhs, base, step, _TS)
        for result in results:
            statuses[result.status] += 1
        mixed += len({result.status for result in results}) > 1
    assert statuses[Status.OPTIMAL] > 1000 and statuses[Status.UNBOUNDED] > 1000, statuses
    assert mixed > 50  # sweeps with optimal and unbounded t


def test_sweep_is_the_solves_on_beale_and_degenerate_rows():
    # Beale's cycling objective at t = 0, and the redundant and dropped rows
    cases = [
        (BEALE_ROWS, [GE, GE, GE], BEALE_RHS, BEALE_OBJECTIVE, [1, 0, -1, 0]),
        ([[1, 1], [1, 1], [2, 2]], [EQ, EQ, EQ], [2, 2, 4], [1, 0], [-1, 1]),
        ([[-2, 0, -1], [2, -1, 1], [0, 2, 0]], [EQ] * 3, [-1, 0, 2], [1, 1, 1], [0, -1, 2]),
        ([[2, -1], [-1, 0]], [GE, EQ], [0, 0], [1, 1], [-1, 0]),
    ]
    for rows, relations, rhs, base, step in cases:
        results = _assert_sweep_is_the_solves(rows, relations, rhs, base, step, _TS)
        assert len(results) == len(_TS)
    assert _assert_sweep_is_the_solves(*cases[0][:4], cases[0][4], [0])[0].value == \
        Fraction(-1, 20)


_MODEL_SLOPES = sorted({Fraction(k, d) for d in range(1, 49) for k in range(3 * d + 1)})


@pytest.mark.parametrize("case, f3_min2", [
    (Case.THREE_COPRIME, False), (Case.THREE_DIVIDES, False), (Case.THREE_DIVIDES, True)])
def test_sweep_is_the_solves_on_the_model_systems(case, f3_min2):
    """Omega - slope*omega over the 2137 slopes k/d in [0, 3], d <= 48."""
    with mock.patch.object(simplex, "feasible", wraps=simplex.feasible) as spy:
        lp._standard_form(build_system(case, f3_min2))
    rows, relations, rhs = spy.call_args.args
    base = [1 if v is Var.Omega else 0 for v in Var]
    step = [-1 if v is Var.omega else 0 for v in Var]
    assert len(_MODEL_SLOPES) == 2137
    results = _assert_sweep_is_the_solves(rows, relations, rhs, base, step, _MODEL_SLOPES)
    assert {result.status for result in results} == {Status.OPTIMAL, Status.UNBOUNDED}


def test_sweep_refuses_what_solve_refuses():
    start = feasible([[1, 1]], [GE], [1])
    with pytest.raises(ValueError, match="^step has 1 coefficients, the rows 2 columns$"):
        sweep(start, [1, 1], [1], [0])
    with pytest.raises(TypeError, match=r"^step\[0\] 0.5 is not a rational number$"):
        sweep(start, [1, 1], [0.5, 1], [0])
    with pytest.raises(TypeError, match=r"^params\[1\] 0.5 is not a rational number$"):
        sweep(start, [1, 1], [1, 1], [1, 0.5])
    assert sweep(start, [1, 1], [1, 0], []) == []
