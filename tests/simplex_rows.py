"""simplex.solve over rows given as such, for tests that draw whole
problems: phase 1 with feasible(), then phase 2 when there is a start."""
from opnbounds.simplex import SimplexResult, Status, feasible, solve


def solve_rows(rows, relations, rhs, objective) -> SimplexResult:
    start = feasible(rows, relations, rhs)
    if start is None:
        return SimplexResult(Status.INFEASIBLE)
    return solve(start, objective)
