import json
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

from nt_bruteforce import (brute_census, brute_lemma1, brute_lemma2,
                           brute_shared_triples)
from opnbounds import lemmas, primes, workers
from opnbounds.lemmas import (BUCKETS, Lemma2Solution, bucket_census,
                              classify_prime, lemma1_scan, lemma2_scan,
                              lemma2_violations, shared_primes)
from opnbounds.primes import PSI_13, is_prime, odd_prime_flags, sieve

# counts pinned from an independent factoring library
CENSUS_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "census_reference.json"

# classification of the first odd primes above 3, frozen from a
# trial-division-only reference run
CLASSIFY_TABLE = {
    5: ((31,), "S1", 2),
    7: ((3, 19), "S2", 1),
    11: ((7, 19), "S2", 2),
    13: ((3, 61), "S2", 1),
    17: ((307,), "S1", 2),
    19: ((3, 127), "S2", 1),
    23: ((7, 79), "S2", 2),
    29: ((13, 67), "S2", 2),
    31: ((3, 331), "S2", 1),
    37: ((3, 7, 67), "S3plus", 1),
    41: ((1723,), "S1", 2),
    43: ((3, 631), "S2", 1),
    47: ((37, 61), "S2", 2),
}


def test_classification_table():
    for p, (factors, bucket, residue) in CLASSIFY_TABLE.items():
        info = classify_prime(p)
        assert info.prime == p
        assert info.sigma == p * p + p + 1
        assert info.factors == factors
        assert info.bucket == bucket
        assert info.residue == residue
        assert info.factor_count == len(factors)


def test_classify_rejects_bad_inputs():
    for bad in (2, 3, 9, 1, 0, -5, 221):
        with pytest.raises(ValueError):
            classify_prime(bad)


def test_classify_rejects_non_ints():
    # through the int checks of is_prime and factorize
    for bad in (7.0, 13.0, 2.0**40 + 1):
        with pytest.raises(TypeError, match=f"^n {re.escape(repr(bad))} is not an int$"):
            classify_prime(bad)


# the largest p with p^2+p+1 below psi_13, and the largest prime up to it
LARGEST_ACCEPTED = 1821275395067
LARGEST_ACCEPTED_PRIME = 1821275395031


def test_classify_bounded_by_psi_13(monkeypatch):
    assert LARGEST_ACCEPTED ** 2 + LARGEST_ACCEPTED + 1 < PSI_13
    info = classify_prime(LARGEST_ACCEPTED_PRIME)
    assert info.factors == (2113, 163741, 9587255587220221)
    with pytest.raises(ValueError, match="not a prime"):
        classify_prime(LARGEST_ACCEPTED)

    def no_primality(n):
        raise AssertionError("is_prime ran")

    monkeypatch.setattr(lemmas, "is_prime", no_primality)
    for p in (LARGEST_ACCEPTED + 1, 84120263456641765763):
        with pytest.raises(ValueError, match="not below psi_13"):
            classify_prime(p)


def test_s1_implies_residue_two():
    # p = 1 mod 3 forces 3 | p^2+p+1 with p^2+p+1 > 3, so S1 needs residue 2
    for p in sieve(3000):
        if p <= 3:
            continue
        info = classify_prime(p)
        if info.bucket == "S1":
            assert info.residue == 2, p
        assert (info.residue == 1) == (info.sigma % 3 == 0), p


def test_sigma_factors_live_in_allowed_classes():
    # every prime divisor of p^2+p+1 is 3 or is 1 mod 3
    for p in sieve(1500):
        if p <= 3:
            continue
        for q in classify_prime(p).factors:
            assert q == 3 or q % 3 == 1, (p, q)


def test_shared_primes_sharpness_pair():
    finding = shared_primes(7, 11)
    assert finding.common == (19,)
    assert finding.bound is None  # mixed residues: the lemma does not apply
    assert 19 == 7 + 11 + 1
    assert shared_primes(11, 7) == finding  # symmetric, normalized order


def test_shared_primes_empty_and_bounds():
    assert shared_primes(5, 11).common == ()
    assert shared_primes(5, 11).bound == Fraction(5 + 11 + 1, 5)
    assert shared_primes(7, 13).bound == Fraction(7 + 13 + 1, 3)
    # residue-2 pair attaining its bound exactly: 31 = (5+149+1)/5
    tight = shared_primes(5, 149)
    assert tight.common == (31,)
    assert tight.bound == Fraction(31)


def test_shared_primes_rejects():
    with pytest.raises(ValueError):
        shared_primes(7, 7)
    with pytest.raises(ValueError):
        shared_primes(3, 7)
    with pytest.raises(ValueError):
        shared_primes(7, 15)



def test_shared_primes_bounded_by_psi_13(monkeypatch):
    # 2113 divides both sigma values; the residues differ (1 and 2)
    assert shared_primes(2551, LARGEST_ACCEPTED_PRIME) == \
        lemmas.SharedPrimes(2551, LARGEST_ACCEPTED_PRIME, (2113,), None)
    with pytest.raises(ValueError, match="needs odd primes"):
        shared_primes(7, LARGEST_ACCEPTED)

    def no_primality(n):
        raise AssertionError("is_prime ran")

    monkeypatch.setattr(lemmas, "is_prime", no_primality)
    for pair in ((7, LARGEST_ACCEPTED + 1), (LARGEST_ACCEPTED + 1, 7),
                 (7, 84120263456641765763)):
        with pytest.raises(ValueError, match="not below psi_13"):
            shared_primes(*pair)

def test_lemma1_scan_clean_and_worker_independent():
    serial = lemma1_scan(200, jobs=1)
    assert serial == []
    assert lemma1_scan(200, jobs=2) == serial
    assert lemma1_scan(1000) == []


def test_lemma2_scan_small():
    assert lemma2_scan(1) == []  # p=1 gives 12r-3 = 33, not a square
    solutions = lemma2_scan(100)
    assert solutions == [Lemma2Solution(2, 4, 7),
                         Lemma2Solution(9, 16, 91),
                         Lemma2Solution(35, 61, 1261)]
    assert not lemma2_violations(solutions)
    assert solutions[0].p_is_odd_prime is False
    # defining identities hold for everything reported
    for s in solutions:
        assert s.p * s.p + s.p + 1 == s.r
        assert s.q * s.q + s.q + 1 == 3 * s.r


def test_lemma2_scan_worker_independent(monkeypatch):
    # the Pell walk runs in the calling process: it asks for no job count
    # and starts no pool, so no worker setting can change its answer
    def no_pool(*args):
        raise AssertionError("lemma 2 used the worker pool")

    monkeypatch.setattr(lemmas, "effective_jobs", no_pool)
    monkeypatch.setattr(lemmas, "run_chunks", no_pool)
    assert lemma2_scan(20000) == brute_lemma2(20000)
    assert lemma2_scan(0) == []


def test_lemma2_verdicts_run_no_primality_test(monkeypatch):
    # gcd(p, m) or gcd(p, m+1), m = (q-1)/3, is a proper divisor of every p
    # past 2 that the walk finds, so no verdict waits on is_prime
    def no_test(n):
        raise AssertionError(f"is_prime ran on {n}")

    solutions = lemma2_scan(lemmas.MAX_LEMMA2)
    monkeypatch.setattr(lemmas, "is_prime", no_test)
    assert len(solutions) == 2098
    assert not any(s.p_is_odd_prime for s in solutions)


def test_lemma2_violation_filter():
    fake = Lemma2Solution(13, 1, 183)
    assert is_prime(13)
    assert lemma2_violations([fake, Lemma2Solution(2, 4, 7)]) == [fake]


def test_census_frozen_counts():
    twenty = bucket_census(20)
    assert twenty == {
        ("S1", 1): 0, ("S1", 2): 2,
        ("S2", 1): 3, ("S2", 2): 1,
        ("S3plus", 1): 0, ("S3plus", 2): 0,
    }
    assert sum(twenty.values()) == 6  # primes 5,7,11,13,17,19

    thousand = bucket_census(1000)
    assert thousand == {
        ("S1", 1): 0, ("S1", 2): 21,
        ("S2", 1): 22, ("S2", 2): 47,
        ("S3plus", 1): 58, ("S3plus", 2): 18,
    }


def test_census_empty_below_first_prime():
    empty = bucket_census(4)
    assert set(empty) == {(b, r) for b in BUCKETS for r in (1, 2)}
    assert sum(empty.values()) == 0


def test_census_worker_independent(monkeypatch):
    monkeypatch.setattr(workers, "usable_cores", lambda: 3)  # jobs=3 splits three ways
    assert bucket_census(500, jobs=3) == bucket_census(500, jobs=1)


# cross-checks against the direct loops in nt_bruteforce

def test_census_matches_bruteforce():
    for size in (5, 6, 7, 30, 1000, 4099, 20000):
        assert bucket_census(size) == brute_census(size), size


def test_census_matches_pinned_reference_at_20000():
    pinned = json.loads(CENSUS_REFERENCE.read_text())["counts"]["20000"]
    got = bucket_census(20000)
    assert {f"{bucket} residue {residue}": n for (bucket, residue), n in got.items()} == pinned


def test_census_same_at_jobs_1_2_3_across_many_segments(monkeypatch):
    monkeypatch.setattr(workers, "usable_cores", lambda: 3)  # jobs=3 splits three ways
    # short segments put several boundaries, and several per worker, in range
    monkeypatch.setattr(lemmas, "_SEGMENT", 777)
    want = brute_census(20000)
    for jobs in (1, 2, 3):
        assert bucket_census(20000, jobs=jobs) == want, jobs


def test_census_memory_stays_small():
    # 3.76 MiB on CPython 3.11.7, 64-bit Linux, 2 MiB of it one segment's
    # top array("L") of 250000 entries; a sieve that kept each n's cofactor
    # in an array("Q") read 5.51 MiB, and this one with the root table's qs
    # and ws in lists of ints 6.19 MiB
    tracemalloc.start()
    try:
        bucket_census(10**6, jobs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20, peak


def test_each_scan_sieves_its_range_once(monkeypatch):
    calls = {"odd_prime_flags": 0, "sieve": 0}
    limits = []  # the limit of each odd_prime_flags call

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            if name == "odd_prime_flags":
                limits.extend(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lemmas, "_SEGMENT", 777)  # about 13 census segments
    monkeypatch.setattr(lemmas, "odd_prime_flags",
                        counting("odd_prime_flags", lemmas.odd_prime_flags))
    monkeypatch.setattr(primes, "sieve", counting("sieve", primes.sieve))
    # also a sieve that lemmas imports by name
    monkeypatch.setattr(lemmas, "sieve", counting("sieve", primes.sieve), raising=False)
    assert bucket_census(20000, jobs=1) == brute_census(20000)
    assert calls == {"odd_prime_flags": 1, "sieve": 0}
    assert lemma1_scan(600, jobs=1) == []
    assert calls == {"odd_prime_flags": 2, "sieve": 0}
    # each scan sieves up to its max and no further
    assert limits == [20000, 600]


def _trial_primes_1_mod_3(limit):
    return [n for n in range(7, limit + 1, 6) if all(n % d for d in range(2, isqrt(n) + 1))]


def test_root_table_matches_trial_division():
    for limit in [*range(-3, 301), 70000]:
        flags, qs, ws = lemmas._root_table(limit)
        assert flags == odd_prime_flags(limit), limit
        assert list(qs) == _trial_primes_1_mod_3(limit), limit
        assert len(ws) == len(qs)
        assert all((w * w + w + 1) % q == 0 for q, w in zip(qs, ws)), limit


def test_same_residue_shared_primes_are_at_most_half_of_a_plus_b_plus_1():
    # why lemma1_scan(max) needs no q past max: a prime shared by a^2+a+1
    # and b^2+b+1 with a = b (mod 3) is at most (a+b+1)/2 < max
    same = [(a, b, q) for a, b, q in brute_shared_triples(1000) if a % 3 == b % 3]
    assert len(same) == 4148
    assert all(2 * q <= a + b + 1 for a, b, q in same)


def _lemma1_case(a, b, q):
    """The case of the proof in _lemma1_chunk's docstring that bounds the
    prime q shared by a^2+a+1 and b^2+b+1, a < b, a = b (mod 3), each
    case's own claims checked as stated."""
    r, k = a % 3, lemmas._LEMMA1_K[a % 3]
    if q == 3:
        assert r == 1 and a + b + 1 > 9
        return "q = 3"
    assert q % 6 == 1
    if (b - a) % q == 0:
        assert (b - a) % (6 * q) == 0 and a + b + 1 > 6 * q
        return "q | b - a"
    m, rest = divmod(a + b + 1, q)
    assert (rest, m % 2, m % 3) == (0, 1, (2 * r + 1) % 3) and m >= k
    return "q | a + b + 1"


def test_lemma1_bound_holds_by_its_case_split():
    same = sorted((a, b, q) for a, b, q in brute_shared_triples(1500) if a % 3 == b % 3)
    cases = Counter(_lemma1_case(a, b, q) for a, b, q in same)
    assert cases == {"q = 3": 6555, "q | b - a": 1024, "q | a + b + 1": 1123}
    # both k are sharp: the least triple of each residue that meets its bound
    met = [(a, b, q) for a, b, q in same if a + b + 1 == lemmas._LEMMA1_K[a % 3] * q]
    assert len(met) == 16
    assert [min(t for t in met if t[0] % 3 == r) for r in (1, 2)] == [(37, 163, 67),
                                                                     (5, 149, 31)]


def test_scan_caps():
    assert (lemmas.MAX_CENSUS, lemmas.MAX_LEMMA1, lemmas.MAX_LEMMA2) == (8 * 10**6, 10**7, 10**1200)
    # _census_chunk keeps each n's largest q in an array("L"), which is 32
    # bits wide on some platforms
    assert lemmas.MAX_CENSUS < 2**32
    # r = p^2+p+1 at the cap has 2401 digits; past p of about 10^2150 it has
    # more than the 4300 that CPython converts to a string
    cap = lemmas.MAX_LEMMA2
    assert len(str(cap * cap + cap + 1)) == 2401


def test_scans_past_their_caps_raise_before_sieving(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("the scan sieved")

    monkeypatch.setattr(lemmas, "odd_prime_flags", no_sieve)
    monkeypatch.setattr(lemmas, "_lemma2_chunk", no_sieve)
    with pytest.raises(ValueError, match="larger than 8000000, the largest census max"):
        bucket_census(lemmas.MAX_CENSUS + 1)
    with pytest.raises(ValueError, match="larger than 10000000, the largest lemma 1 max"):
        lemma1_scan(lemmas.MAX_LEMMA1 + 1)
    with pytest.raises(ValueError, match=r"^max is larger than 10\^1200, the largest lemma 2 max$"):
        lemma2_scan(lemmas.MAX_LEMMA2 + 1)


@pytest.mark.parametrize("scan, value", [
    (bucket_census, 1000.0), (bucket_census, 9e6), (bucket_census, Fraction(1000)),
    (lemma1_scan, 1000.0), (lemma1_scan, 1e8), (lemma1_scan, "1000"),
    (lemma2_scan, 1000.5), (lemma2_scan, float("nan")), (lemma2_scan, float("inf")),
])
def test_scan_max_that_is_not_an_int_raises_before_the_cap_and_sieving(monkeypatch,
                                                                       scan, value):
    def no_sieve(*args):
        raise AssertionError("the scan sieved")

    monkeypatch.setattr(lemmas, "odd_prime_flags", no_sieve)
    monkeypatch.setattr(lemmas, "_lemma2_chunk", no_sieve)
    with pytest.raises(TypeError, match=f"^max {re.escape(repr(value))} is not an int$"):
        scan(value)


def test_shared_prime_triples_match_all_pairs_gcd(monkeypatch):
    monkeypatch.setattr(workers, "usable_cores", lambda: 3)  # jobs=3 splits three ways
    # with k = 10^9 every shared prime breaks the bound, so the walk must
    # report each same-residue triple (a, b, q) of the all-pairs gcd, once,
    # q = 3 included
    monkeypatch.setattr(lemmas, "_LEMMA1_K", {1: 10**9, 2: 10**9})
    triples = brute_shared_triples(600)
    assert len(triples) == 2113
    want = {(a, b, q) for a, b, q in triples if a % 3 == b % 3}
    assert len(want) == 1651
    assert any(q == 3 for _, _, q in want)
    for jobs in (1, 2, 3):
        found = lemma1_scan(600, jobs=jobs)
        assert [(v.a, v.b, v.p) for v in found] == sorted(want), jobs
        assert all(v.bound == Fraction(v.a + v.b + 1, 10**9) for v in found)


def test_lemma1_pair_walk_reports_every_pair_under_the_limit():
    # with the bound's k raised to 21 (residue 1) and 29 (residue 2), the
    # shared prime q = 13 is broken by exactly the same-residue prime pairs
    # a < b in its root classes with a + b + 1 < k*q; the walk must report
    # those and stop at the rest, the pairs right at the limit included
    k_of = {1: 21, 2: 29}
    members = [p for p in sieve(500) if p > 3 and (p * p + p + 1) % 13 == 0]
    pairs = [(a, b) for a in members for b in members
             if a < b and a % 3 == b % 3]
    want = {(a, b, 13, Fraction(a + b + 1, k_of[a % 3])) for a, b in pairs
            if a + b + 1 < k_of[a % 3] * 13}
    found = lemmas._lemma1_chunk((500, k_of, odd_prime_flags(500), [13],
                                  [lemmas._root(13)]))
    assert {(a, b, q, Fraction(a + b + 1, k)) for a, b, q, k in found} == want
    assert len(found) == len(want) == 10
    assert len(pairs) - len(want) == 28  # same-residue pairs past the limit
    at_limit = {(a, b) for a, b in pairs if a + b + 1 == k_of[a % 3] * 13}
    assert at_limit == {(29, 347), (61, 211), (107, 269), (113, 263)}


def test_lemma1_factors_nothing(monkeypatch):
    def no_work(*args):
        raise AssertionError("lemma 1 factored or ran the census sieve")

    monkeypatch.setattr(lemmas, "factorize", no_work)
    monkeypatch.setattr(lemmas, "_census_chunk", no_work)
    assert lemma1_scan(3000, jobs=1) == []


def test_lemma1_memory_stays_small():
    tracemalloc.start()
    try:
        assert lemma1_scan(50000, jobs=1) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_lemma1_matches_bruteforce():
    assert lemma1_scan(1500, jobs=2) == brute_lemma1(1500) == []


def test_lemma2_matches_bruteforce():
    assert lemma2_scan(10**5) == brute_lemma2(10**5)


def test_pell_walk_to_1e60():
    solutions = lemma2_scan(10**60)
    assert len(solutions) == 105
    assert solutions[-1].p <= 10**60 < 4 * solutions[-1].p
    for s in solutions:
        assert s.p * s.p + s.p + 1 == s.r
        assert s.q * s.q + s.q + 1 == 3 * s.r


def test_pell_p_above_2_has_a_proper_divisor():
    # the argument in _lemma2_chunk's docstring, checked without is_prime:
    # p(p+1) = 3m(m+1) with 3Z = 2q+1, m = (Z-1)/2, and gcd(p, m) or
    # gcd(p, m+1) splits p
    solutions = [s for s in lemma2_scan(10**60) if s.p > 2]
    assert len(solutions) == 104
    assert sum(s.p >= PSI_13 for s in solutions) == 62
    for s in solutions:
        z, rem = divmod(2 * s.q + 1, 3)
        assert rem == 0 and z % 2 == 1
        m = (z - 1) // 2
        assert s.p * (s.p + 1) == 3 * m * (m + 1)
        assert any(1 < gcd(s.p, k) < s.p for k in (m, m + 1)), s.p
