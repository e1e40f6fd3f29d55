import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from opnbounds.linexpr import LinExpr, combine
from opnbounds.model import Var


def test_cancellation_drops_terms():
    x = LinExpr({Var.e: 1}, 1)
    assert combine([(1, x), (-1, x)]) == LinExpr()
    assert combine([]) == LinExpr()


def test_scaling_a_breakdown_row():
    row = LinExpr({Var.s1: 1, Var.s2: 1, Var.s3: 1, Var.s: -1})
    scaled = combine([(Fraction(2, 3), row)])
    assert scaled == LinExpr({Var.s1: Fraction(2, 3), Var.s2: Fraction(2, 3),
                              Var.s3: Fraction(2, 3), Var.s: Fraction(-2, 3)})


def test_weighted_sum_cancels_e():
    # 7/9 - 1 + 2/9 = 0 on the e coefficient
    parts = [
        (Fraction(7, 9), LinExpr({Var.e: 1}, -1)),
        (1, LinExpr({Var.Omega: 1, Var.e: -1, Var.s: -2, Var.f4: -1})),
        (Fraction(2, 9), LinExpr({Var.f4: 1, Var.e: 1, Var.s1: -1,
                                  Var.s22: -2, Var.s32: -3})),
    ]
    total = combine(parts)
    assert total.coeff(Var.e) == 0
    assert Var.e not in total.terms


def test_zero_coefficients_never_stored():
    e = LinExpr({Var.e: 1, Var.s: 0})
    assert Var.s not in e.terms
    diff = combine([(1, e), (-1, e)])
    assert diff.terms == {} and diff == LinExpr()
    assert combine([(0, LinExpr({Var.e: 2}, 3))]) == LinExpr()


def test_permutation_invariance():
    rng = random.Random(11)
    exprs = [LinExpr({v: rng.randint(-4, 4) for v in Var}, rng.randint(-3, 3))
             for _ in range(6)]
    parts = [(Fraction(rng.randint(-5, 5), rng.randint(1, 5)), x) for x in exprs]
    shuffled = parts[:]
    rng.shuffle(shuffled)
    assert combine(parts) == combine(shuffled)


def test_evaluate_and_operators():
    expr = LinExpr({Var.Omega: 1, Var.omega: Fraction(-8, 3)}, Fraction(7, 3))
    point = {Var.Omega: Fraction(3), Var.omega: Fraction(2)}
    assert expr.evaluate(point) == 0
    assert expr == LinExpr(dict(expr.terms), expr.constant) != LinExpr()
    assert hash(expr) == hash(LinExpr(dict(expr.terms), expr.constant))


def test_constructor_rejects_non_rationals():
    for bad in (0.1, Decimal("0.1"), "1/2", complex(1)):
        with pytest.raises(TypeError, match=r"coefficient .* of <Var\.omega: 13> is not"):
            LinExpr({Var.Omega: 1, Var.omega: bad})
        with pytest.raises(TypeError, match="constant .* is not a rational number"):
            LinExpr({Var.e: 1}, bad)
    assert LinExpr({Var.e: True}, 2) == LinExpr({Var.e: Fraction(1)}, Fraction(2))


def test_combine_rejects_non_rationals():
    row = LinExpr({Var.e: 1}, 1)
    for bad in (0.5, 0.0, Decimal(1)):
        with pytest.raises(TypeError, match="multiplier .* is not a rational number"):
            combine([(1, row), (bad, row)])


def test_integer_form_is_the_expression_over_its_scale():
    expr = LinExpr({Var.s: Fraction(-2, 3), Var.e: Fraction(5, 4), Var.t: 7}, Fraction(-1, 6))
    scale, terms, constant = expr.integer_form()
    assert scale == 12 and constant == -2
    assert terms == ((Var.s, -8), (Var.e, 15), (Var.t, 84))
    assert LinExpr({v: Fraction(c, scale) for v, c in terms}, Fraction(constant, scale)) == expr
    assert LinExpr({Var.e: 2}, 3).integer_form() == (1, ((Var.e, 2),), 3)
    assert LinExpr().integer_form() == (1, (), 0)


_UNPICKLE = """
import pickle, sys
expr = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = type(expr)(dict(expr.terms), expr.constant)
print(hash(expr) == hash(fresh), {expr: 1}.get(fresh), expr.integer_form())
"""


def test_pickle_carries_no_cached_hash_or_integer_form():
    """A hash of str keys holds under one PYTHONHASHSEED only, so a pickle
    rebuilds from terms and constant."""
    expr = LinExpr({"alpha": Fraction(1, 2), "beta": -3}, 1)
    hash(expr), expr.integer_form()
    copy = pickle.loads(pickle.dumps(expr))
    assert copy == expr and hash(copy) == hash(expr)
    src = Path(__file__).resolve().parents[1] / "src"
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _UNPICKLE], input=pickle.dumps(expr).hex(),
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True 1 (2, (('alpha', 1), ('beta', -6)), 2)\n"


def test_pairs_input_builds_the_mapping_of_its_last_entries():
    mapping = LinExpr({Var.e: 1, Var.s: Fraction(1, 2)}, 3)
    assert LinExpr([(Var.e, 1), (Var.s, Fraction(1, 2))], 3) == mapping
    assert LinExpr(iter([(Var.e, 1), (Var.s, Fraction(1, 2))]), 3) == mapping
    # a later entry replaces an earlier one; a later zero cancels it
    assert LinExpr([(Var.e, 5), (Var.s, 2), (Var.e, 0)]).terms == {Var.s: 2}
    assert LinExpr([(Var.e, 0), (Var.e, 3)]).terms == {Var.e: 3}
    assert LinExpr([(Var.e, 1), (Var.e, Fraction(2, 3))]).coeff(Var.e) == Fraction(2, 3)
    with pytest.raises(TypeError, match=r"^coefficient 0.5 of <Var.s: 1> is not"):
        LinExpr([(Var.e, 1), (Var.s, 0.5)])
