import random
import re

import pytest

from opnbounds.primes import PSI_13, factorize, is_prime, odd_prime_flags, sieve


def _trial_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def test_sieve_matches_trial_division():
    assert sieve(10**4) == _trial_primes(10**4)
    assert sieve(1) == []
    assert sieve(2) == [2]
    # crossing the segment boundary must not lose or duplicate primes
    big = sieve(70000)
    assert len(big) == len(set(big))
    assert big[:4] == [2, 3, 5, 7]


def test_odd_prime_flags_match_trial_division():
    for limit in [-3, *range(301), 70000]:
        marks = set(_trial_primes(limit))
        want = bytearray(n in marks for n in range(3, limit + 1, 2))
        assert odd_prime_flags(limit) == want, limit


def test_is_prime_small_exhaustive():
    marks = set(_trial_primes(2000))
    for n in range(2001):
        assert is_prime(n) == (n in marks), n


def test_is_prime_known_hard_cases():
    # strong pseudoprime to bases 2..37 does not exist at this size; this one
    # fools single-base tests
    assert not is_prime(3215031751)
    assert not is_prime(341550071728321)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_factorize_reconstructs_products():
    rng = random.Random(123)
    small = sieve(500)
    for _ in range(60):
        parts = [rng.choice(small) for _ in range(rng.randint(1, 5))]
        n = 1
        for p in parts:
            n *= p
        assert factorize(n) == sorted(parts)


def test_factorize_semiprime_past_trial_bound():
    # both factors exceed the trial wheel, forcing the rho stage
    p, q = 1000003, 1000033
    assert factorize(p * q) == [p, q]
    assert factorize(p * p) == [p, p]
    # mixed: small * large
    assert factorize(12 * p) == [2, 2, 3, p]


def test_is_prime_and_factorize_reject_non_ints():
    # a float would pass the trial division and come back as float factors
    # ([3, 19.0] for 57.0), or die inside pow
    for bad in (7.0, 57.0, 6.0, 1.0, 2.0**40 + 1, "7", None):
        for fn in (is_prime, factorize):
            with pytest.raises(TypeError, match=f"^n {re.escape(repr(bad))} is not an int$"):
                fn(bad)


def test_factorize_edges():
    assert factorize(1) == []
    assert factorize(2) == [2]
    assert factorize(2**20) == [2] * 20
    with pytest.raises(ValueError):
        factorize(0)
    # every reported factor is prime and the product restores n
    n = 96746052830917
    factors = factorize(n)
    prod = 1
    for f in factors:
        assert is_prime(f)
        prod *= f
    assert prod == n


# psi_12, the smallest strong pseudoprime to all twelve prime bases 2..37
# (Sorenson and Webster 2015); base 41 exposes it
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_psi_12():
    assert not is_prime(PSI_12)


def test_factorize_psi_12():
    assert factorize(PSI_12) == [399165290221, 798330580441]


def test_psi_13_fools_is_prime():
    # the proven range of is_prime ends at PSI_13, a composite it calls prime
    assert PSI_13 == 1287836182261 * 2575672364521
    assert is_prime(PSI_13)


def test_factorize_refuses_an_unproven_prime_cofactor():
    # past PSI_13 a True from is_prime proves nothing, so factorize raises
    # rather than report PSI_13 itself as a prime factor
    for n in (PSI_13, 4 * PSI_13):
        with pytest.raises(ValueError, match="at least PSI_13"):
            factorize(n)
    # a composite verdict is always right, so big inputs still split
    assert factorize(2**100) == [2] * 100
    assert factorize(PSI_12) == [399165290221, 798330580441]
