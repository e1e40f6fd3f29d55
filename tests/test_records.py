"""The result records are immutable named tuples: each survives a pickle
round trip, and a variant is derived with _replace, never by assigning to
a field. Pool workers send no records: they send plain tuples by marshal,
and the caller builds the records."""
import pickle
from fractions import Fraction

import pytest

from opnbounds import (Case, Lemma1Violation, LinExpr, Var, best_constant,
                       build_system, classify_prime, integer_scan, lemma2_scan,
                       minimize, shared_primes, simplex, verify_certificate)

NAMES = ("Certificate", "VerificationReport", "ScanResult", "PrimeClass",
         "SharedPrimes", "Lemma1Violation", "Lemma2Solution", "LPSolution",
         "SlopeBound", "Constraint", "ConstraintSystem", "SimplexResult")


@pytest.fixture(scope="module")
def records():
    system = build_system(Case.THREE_COPRIME)
    bound = best_constant(system, Fraction(8, 3))
    built = [
        bound.certificate,
        verify_certificate(system, bound.certificate),
        integer_scan(system, Fraction(8, 3), 2, jobs=1),
        classify_prime(7),
        shared_primes(7, 13),
        Lemma1Violation(5, 11, 7, Fraction(17, 3)),
        lemma2_scan(10)[0],
        minimize(system, LinExpr({Var.Omega: 1, Var.omega: -2})),
        bound,
        system.constraints[0],
        system,
        simplex.solve(simplex.feasible([[1, 1]], [simplex.GE], [1]), [1, 1]),
    ]
    return {type(record).__name__: record for record in built}


def test_one_record_of_each_kind(records):
    assert sorted(records) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_record_survives_pickle(records, name):
    record = records[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("name", NAMES)
def test_record_fields_are_read_only(records, name):
    record = records[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_failed_reports_do_not_share_residuals():
    cert = best_constant(build_system(Case.THREE_COPRIME), Fraction(8, 3)).certificate
    other = build_system(Case.THREE_DIVIDES)
    first, second = verify_certificate(other, cert), verify_certificate(other, cert)
    assert not first.passed and not second.passed
    assert first.residuals == second.residuals == {}
    assert first.residuals is not second.residuals
