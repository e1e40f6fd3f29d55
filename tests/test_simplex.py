import copy
import random
from fractions import Fraction

import pytest

from opnbounds.simplex import EQ, GE, Status, feasible, solve

from lp_bruteforce import brute_force_lp


def test_textbook_optimum():
    # min -x - 2y st -x - y >= -4, -x + y >= -2 (i.e. x+y <= 4, x-y <= 2)
    result = solve([[-1, -1], [-1, 1]], [GE, GE], [-4, -2], [-1, -2])
    assert result.status is Status.OPTIMAL
    assert result.value == -8
    assert result.x == [0, 4]


def test_equality_and_mixed_rows():
    # min x + y st x + y == 3, x - y >= 1
    result = solve([[1, 1], [1, -1]], [EQ, GE], [3, 1], [1, 1])
    assert result.status is Status.OPTIMAL
    assert result.value == 3
    assert result.duals is not None
    y_eq, y_ge = result.duals
    assert y_ge >= 0
    assert y_eq * 3 + y_ge * 1 == 3


def test_infeasible():
    # x >= 2 and x == 1
    result = solve([[1], [1]], [GE, EQ], [2, 1], [1])
    assert result.status is Status.INFEASIBLE


def test_unbounded():
    result = solve([[1]], [GE], [1], [-1])
    assert result.status is Status.UNBOUNDED


def test_degenerate_vertex_terminates():
    # Beale's classic cycling example; Bland's rule must still finish
    le_rows = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    # stated as <=, flip to >=
    rows = [[-v for v in row] for row in le_rows]
    rhs = [0, 0, -1]
    objective = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    result = solve(rows, [GE, GE, GE], rhs, objective)
    assert result.status is Status.OPTIMAL
    assert result.value == Fraction(-1, 20)


def test_redundant_equalities_drop_cleanly():
    # second row repeats the first; third is their sum
    rows = [[1, 1], [1, 1], [2, 2]]
    result = solve(rows, [EQ, EQ, EQ], [2, 2, 4], [1, 0])
    assert result.status is Status.OPTIMAL
    assert result.value == 0
    paid = sum(d * b for d, b in zip(result.duals, [2, 2, 4]))
    assert paid == 0


def test_zero_rhs_duals_keep_strong_duality():
    result = solve([[1, -1]], [EQ], [0], [1, 2])
    assert result.status is Status.OPTIMAL
    assert result.value == 0


def test_determinism_repr_identical():
    rows = [[1, 2, -1], [0, 1, 1], [3, -1, 0]]
    relations = [GE, EQ, GE]
    rhs = [1, 2, -1]
    objective = [2, 1, 1]
    first = solve(rows, relations, rhs, objective)
    second = solve(rows, relations, rhs, objective)
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
        got = solve(rows, relations, rhs, objective)
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
    """Phase 2 from one feasible() tableau gives a cold solve's answer for
    every objective and leaves the shared tableau as it was."""
    rng = random.Random(424242)
    infeasible = 0
    for _ in range(60):
        rows, relations, rhs, _ = _random_problem(rng)
        start = feasible(rows, relations, rhs)
        if start is None:
            infeasible += 1
            assert solve(rows, relations, rhs, [0] * len(rows[0])).status is Status.INFEASIBLE
            continue
        before = copy.deepcopy(vars(start))
        for _ in range(4):
            objective = [rng.randint(-3, 3) for _ in rows[0]]
            warm = solve(rows, relations, rhs, objective, start=start)
            cold = solve(rows, relations, rhs, objective)
            assert (warm.status, warm.value, warm.x, warm.duals) == \
                (cold.status, cold.value, cold.x, cold.duals), (rows, relations, rhs, objective)
        assert vars(start) == before
    assert infeasible > 0


def test_start_must_match_the_objective_length():
    start = feasible([[1, 1]], [GE], [1])
    with pytest.raises(ValueError, match="objective has 3 coefficients, the rows 2 columns"):
        solve([[1, 1]], [GE], [1], [1, 1, 1], start=start)
