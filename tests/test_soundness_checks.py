"""The soundness checks must survive python -O, which strips assert."""
import ast
from fractions import Fraction
from pathlib import Path

import pytest

import opnbounds
from opnbounds import enumeration, lp, simplex
from opnbounds.model import Case, build_system


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
        report.derived_constant += 1
        return report

    monkeypatch.setattr(lp, "verify_certificate", tampered)
    with pytest.raises(RuntimeError, match="certificate gives"):
        lp.best_constant(build_system(Case.THREE_COPRIME), Fraction(2))


def test_integer_scan_raises_on_an_infeasible_witness(monkeypatch):
    monkeypatch.setattr(enumeration, "is_feasible", lambda system, point: False)
    with pytest.raises(RuntimeError, match="infeasible witness"):
        enumeration.integer_scan(build_system(Case.THREE_COPRIME), Fraction(2), 2, jobs=1)


def test_pivot_limit_raises_runtime_error(monkeypatch):
    # Bland's rule cannot cycle, so a zero pivot budget stands in for a cycle
    monkeypatch.setattr(simplex, "_PIVOTS_PER_SIZE", 0)
    with pytest.raises(RuntimeError, match="pivot limit of 0 exceeded"):
        simplex.solve([[1, 1]], [simplex.GE], [1], [1, 1])
