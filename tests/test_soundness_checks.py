"""The soundness checks must survive python -O, which strips assert."""
import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opnbounds
from opnbounds import enumeration, lp, simplex
from opnbounds.model import Case, Var, build_system


def test_package_has_no_assert_statement():
    root = Path(opnbounds.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_best_constant_raises_when_its_certificate_fails(monkeypatch):
    real = lp.verify_certificate

    def tampered(system, cert):
        report = real(system, cert)
        return report._replace(derived_constant=report.derived_constant + 1)

    monkeypatch.setattr(lp, "verify_certificate", tampered)
    with pytest.raises(RuntimeError, match="certificate gives"):
        lp.best_constant(build_system(Case.THREE_COPRIME), Fraction(2))


def test_integer_scan_raises_on_an_infeasible_witness(monkeypatch):
    monkeypatch.setattr(enumeration, "is_feasible", lambda system, point: False)
    with pytest.raises(RuntimeError, match="infeasible witness"):
        enumeration.integer_scan(build_system(Case.THREE_COPRIME), Fraction(2), 2)


def test_pivot_limit_raises_runtime_error(monkeypatch):
    # Bland's rule cannot cycle, so a zero pivot budget stands in for a
    # cycle: in phase 1, and in phase 2 from a start made at the real limit
    start = simplex.feasible([[1, 1]], [simplex.GE], [1])
    monkeypatch.setattr(simplex, "_PIVOTS_PER_SIZE", 0)
    with pytest.raises(RuntimeError, match="pivot limit of 0 exceeded"):
        simplex.solve(simplex.feasible([[1, 1]], [simplex.GE], [1]), [1, 1])
    with pytest.raises(RuntimeError, match="pivot limit of 0 exceeded"):
        simplex.solve(start, [2, 1])


def test_minimize_raises_naming_the_row_a_witness_breaks(monkeypatch):
    system = build_system(Case.THREE_COPRIME)
    sweep = simplex.sweep

    def lowered_omega(*args, **kwargs):
        # Omega - 1 breaks omega_lower, the only row that reads Omega
        results = sweep(*args, **kwargs)
        for result in results:
            result.x[Var.Omega] -= 1
        return results

    monkeypatch.setattr(lp.simplex, "sweep", lowered_omega)
    with pytest.raises(RuntimeError, match="simplex witness violates constraint omega_lower: -1$"):
        lp.best_constant(system, Fraction(2))


_UNDER_O = """
import sys
from fractions import Fraction
from opnbounds import lp, simplex
from opnbounds.model import Case, Var, build_system

print("optimize", sys.flags.optimize)
real = lp.verify_certificate

def tampered(system, cert):
    report = real(system, cert)
    return report._replace(derived_constant=report.derived_constant + 1)

lp.verify_certificate = tampered
try:
    lp.best_constant(build_system(Case.THREE_COPRIME), Fraction(2))
except RuntimeError as exc:
    print(exc)
lp.verify_certificate = real
sweep = simplex.sweep

def lowered_omega(*args, **kwargs):
    results = sweep(*args, **kwargs)
    for result in results:
        result.x[Var.Omega] -= 1
    return results

def raised_value(*args, **kwargs):
    return [result._replace(value=result.value + 1) for result in sweep(*args, **kwargs)]

for wrong in (lowered_omega, raised_value):
    lp.simplex.sweep = wrong
    try:
        lp.best_constant(build_system(Case.THREE_COPRIME), Fraction(2))
    except RuntimeError as exc:
        print(exc)
lp.simplex.sweep = sweep
start = simplex.feasible([[1]], [simplex.GE], [1])
start.rhs = (2,)  # a stored rhs the rows were not solved for breaks strong duality
try:
    simplex.solve(start, [1])
except RuntimeError as exc:
    print(exc)
try:
    build_system(Case.THREE_COPRIME).first_violated({v: 0.0 for v in Var})
except TypeError as exc:
    print(exc)
simplex._PIVOTS_PER_SIZE = 0
try:
    simplex.solve(simplex.feasible([[1, 1]], [simplex.GE], [1]), [1, 1])
except RuntimeError as exc:
    print(exc)
"""


def test_checks_raise_under_python_O():
    src = Path(opnbounds.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("certificate gives ")
    assert lines[2] == "simplex witness violates constraint omega_lower: -1"
    assert lines[3].startswith("objective at the simplex witness is not the optimum")
    assert lines[4] == "strong duality fails: dual value 2, primal value 1"
    assert lines[5] == "coordinate 0.0 of <Var.e: 0> is not a rational number"
    assert lines[6].startswith("pivot limit of 0 exceeded")
    assert len(lines) == 7
