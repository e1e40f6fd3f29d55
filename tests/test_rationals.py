import random
from fractions import Fraction

import pytest

from opnbounds.rationals import format_rational, parse_rational


def test_parse_strict_grammar():
    assert parse_rational("8/3") == Fraction(8, 3)
    assert parse_rational("-7/3") == Fraction(-7, 3)
    assert parse_rational("0") == 0
    assert parse_rational("-12") == -12
    for bad in ("7/0", "1/-3", "1/03", " 1", "1 ", "1.5", "+2", "8 / 3", "", "a", "1/"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_round_trip():
    rng = random.Random(20240917)
    for _ in range(300):
        num = rng.randint(-10**9, 10**9)
        den = rng.randint(1, 10**9)
        value = Fraction(num, den)
        assert parse_rational(format_rational(value)) == value


def test_field_axioms_on_random_values():
    rng = random.Random(7)
    values = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(40)]
    for a, b, c in zip(values, values[1:], values[2:]):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a:
            assert a * (1 / a) == 1


def test_rational_is_exact_not_float():
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-2, -4)) == "1/2"
