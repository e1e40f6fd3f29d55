"""Release checklist: the ten headline checks this package must pass, each
with its stated runtime budget and exact-arithmetic tolerance (none). Every
check prints one PASS/FAIL line on the real stdout so the verdicts survive
pytest's capture."""
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from opnbounds.certificates import load_certificate, verify_certificate
from opnbounds.enumeration import integer_scan, is_feasible
from opnbounds.lemmas import bucket_census, lemma1_scan, lemma2_scan, shared_primes
from opnbounds.lp import best_constant
from opnbounds.model import Case, Var, build_system
from opnbounds.simplex import EQ, GE

from lp_bruteforce import brute_force_lp
from simplex_rows import solve_rows

FIXTURES = Path(__file__).resolve().parent.parent / "certificates"

NO3 = build_system(Case.THREE_COPRIME)
WITH3 = build_system(Case.THREE_DIVIDES)


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"[criterion {num:2d}] {verdict}  {detail}  "
            f"({elapsed:.2f}s, budget {budget:g}s)")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_certificate_a_reproduces_first_bound():
    start = time.perf_counter()
    cert = load_certificate(FIXTURES / "paper_no3.json")
    report = verify_certificate(NO3, cert)
    elapsed = time.perf_counter() - start
    ok = (report.passed
          and report.derived_slope == Fraction(8, 3)
          and report.derived_constant == Fraction(-7, 3))
    _report(1, ok, "paper_no3.json verifies: Ω ≥ 8/3·ω - 7/3", elapsed, 1.0)


def test_criterion_02_certificate_b_reproduces_second_bound():
    start = time.perf_counter()
    cert = load_certificate(FIXTURES / "paper_with3.json")
    report = verify_certificate(WITH3, cert)
    elapsed = time.perf_counter() - start
    ok = (report.passed
          and report.derived_slope == Fraction(21, 8)
          and report.derived_constant == Fraction(-39, 8))
    _report(2, ok, "paper_with3.json verifies: Ω ≥ 21/8·ω - 39/8", elapsed, 1.0)


def test_criterion_03_lp_matches_first_bound():
    start = time.perf_counter()
    bound = best_constant(NO3, Fraction(8, 3))
    recheck = verify_certificate(NO3, bound.certificate)
    elapsed = time.perf_counter() - start
    witness = {v: Fraction(0) for v in Var}
    witness.update({Var.e: 1, Var.s1: 1, Var.s: 1,
                    Var.Omega: 3, Var.omega: 2})
    ok = (bound.constant == Fraction(-7, 3)
          and recheck.passed and recheck.derived_constant == Fraction(-7, 3)
          and is_feasible(NO3, witness)
          and witness[Var.Omega] - Fraction(8, 3) * witness[Var.omega] == Fraction(-7, 3))
    _report(3, ok, "best_constant(three_coprime, 8/3) = -7/3, dual re-verifies",
            elapsed, 1.0)


def test_criterion_04_lp_matches_second_bound():
    start = time.perf_counter()
    bound = best_constant(WITH3, Fraction(21, 8))
    recheck = verify_certificate(WITH3, bound.certificate)
    elapsed = time.perf_counter() - start
    ok = (bound.constant == Fraction(-39, 8)
          and recheck.passed and recheck.derived_constant == Fraction(-39, 8))
    _report(4, ok, "best_constant(three_divides, 21/8) = -39/8, dual re-verifies",
            elapsed, 1.0)


def test_criterion_05_slope_two_respects_euler_form_bound():
    start = time.perf_counter()
    bound = best_constant(NO3, Fraction(2))
    elapsed = time.perf_counter() - start
    # >= -1 is the contract; the frozen first-computation value is exactly -1
    ok = bound.constant >= Fraction(-1) and bound.constant == Fraction(-1)
    _report(5, ok, "best_constant(three_coprime, 2) = -1 >= -1", elapsed, 10.0)


def test_criterion_06_integer_scan_box_four():
    start = time.perf_counter()
    no3 = integer_scan(NO3, Fraction(8, 3), 4)
    with3 = integer_scan(WITH3, Fraction(21, 8), 4)
    elapsed = time.perf_counter() - start
    # minima equal to the LP constants: no scanned integer point beats
    # either Theorem-1 bound, and both optima are attained integrally
    ok = (no3.minimum == Fraction(-7, 3) and with3.minimum == Fraction(-39, 8)
          and is_feasible(NO3, no3.witness)
          and is_feasible(WITH3, with3.witness))
    _report(6, ok, "integer_scan(box 4) reproduces -7/3 and -39/8", elapsed, 60.0)


def test_criterion_07_lemma1_clean_to_5000():
    start = time.perf_counter()
    violations = lemma1_scan(5000)
    sharp = shared_primes(7, 11)
    elapsed = time.perf_counter() - start
    # the (7, 11, 19) sharpness pair exists but has mixed residues, so the
    # lemma does not constrain it and the scan must not flag it
    ok = (violations == []
          and sharp.common == (19,) and sharp.bound is None
          and 19 == 7 + 11 + 1)
    _report(7, ok, "lemma 1 scan to 5000: 0 violations; (7,11,19) out of scope",
            elapsed, 120.0)


def test_criterion_08_lemma2_clean_to_1e6():
    start = time.perf_counter()
    solutions = lemma2_scan(10**6)
    elapsed = time.perf_counter() - start
    ok = (all(not s.p_is_odd_prime for s in solutions)
          and (2, 4, 7) in [(s.p, s.q, s.r) for s in solutions])
    _report(8, ok, f"lemma 2 scan to 10^6: {len(solutions)} solutions, "
            "none with odd prime p, (2,4,7) found", elapsed, 30.0)


def test_criterion_09_census_s11_empty_to_1e5():
    start = time.perf_counter()
    counts = bucket_census(10**5, jobs=1)
    elapsed = time.perf_counter() - start
    ok = counts[("S1", 1)] == 0 and sum(counts.values()) > 0
    _report(9, ok, "census to 10^5: (S1, residue 1) = 0", elapsed, 120.0)


def _random_problem(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    relations = [EQ if rng.random() < 0.3 else GE for _ in range(m)]
    rhs = [rng.randint(-4, 4) for _ in range(m)]
    objective = [rng.randint(-3, 3) for _ in range(n)]
    return rows, relations, rhs, objective


def _solver_transcript():
    """Canonical serialization of a full solver session, for the
    byte-identical determinism check."""
    lines = []
    # slopes stay inside each system's supported range: three_coprime tips
    # over at 8/3, three_divides at 21/8
    for system, label, slopes in (
            (NO3, "no3", (Fraction(2), Fraction(8, 3), Fraction(21, 8))),
            (WITH3, "with3", (Fraction(2), Fraction(5, 2), Fraction(21, 8))),
            (build_system(Case.THREE_DIVIDES, True), "with3+f3min2",
             (Fraction(2), Fraction(5, 2), Fraction(21, 8)))):
        for slope in slopes:
            bound = best_constant(system, slope)
            report = verify_certificate(system, bound.certificate)
            assert report.passed
            assert report.derived_constant == bound.constant
            assert bound.certificate.claimed_constant == bound.constant
            multipliers = ",".join(f"{k}={v}" for k, v in
                                   sorted(bound.certificate.multipliers.items()))
            witness = ",".join(f"{v.name}={bound.witness[v]}" for v in Var)
            lines.append(f"{label}|{slope}|{bound.constant}|{multipliers}|{witness}")
    rng = random.Random(20250601)
    matched = 0
    for _ in range(50):
        rows, relations, rhs, objective = _random_problem(rng)
        got = solve_rows(rows, relations, rhs, objective)
        want_status, want_value = brute_force_lp(rows, relations, rhs, objective)
        assert got.status.value == want_status, (rows, relations, rhs)
        if want_status == "optimal":
            assert got.value == want_value, (rows, relations, rhs)
        matched += 1
        lines.append(f"random|{got.status.value}|{got.value}|{got.x}|{got.duals}")
    assert matched == 50
    return "\n".join(lines).encode("utf-8")


def test_criterion_10_duality_and_determinism():
    start = time.perf_counter()
    first = _solver_transcript()
    second = _solver_transcript()
    elapsed = time.perf_counter() - start
    ok = first == second
    _report(10, ok, "strong duality on all systems; 50 random LPs match "
            "brute force; two runs byte-identical", elapsed, 120.0)
