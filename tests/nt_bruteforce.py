"""Reference number-theory scans for cross-checking opnbounds.lemmas: the
direct loops the sieve and the Pell recurrence replaced. Every value is
factored on its own (trial division plus rho), lemma 1 takes a gcd over
every pair, and lemma 2 tests every p for a square. Slow past small ranges,
which is the point: they share no sieve or recurrence logic with the code
under test.
"""
from fractions import Fraction
from math import gcd, isqrt

from opnbounds.lemmas import BUCKETS, RESIDUES, Lemma1Violation, Lemma2Solution
from opnbounds.primes import factorize, sieve


def _odd_primes(limit):
    return [p for p in sieve(limit) if p > 3]


def brute_census(max_prime):
    """bucket_census by factoring p^2+p+1 for every prime 3 < p <= max_prime."""
    counts = {(bucket, residue): 0 for bucket in BUCKETS for residue in RESIDUES}
    for p in _odd_primes(max_prime):
        k = len(factorize(p * p + p + 1))
        counts[(BUCKETS[min(k, 3) - 1], p % 3)] += 1
    return counts


def brute_shared_triples(max_prime):
    """{(a, b, q)}: primes 3 < a < b <= max_prime of any residues and each
    prime q dividing both a^2+a+1 and b^2+b+1, from the gcd of every pair."""
    primes = _odd_primes(max_prime)
    out = set()
    for i, a in enumerate(primes):
        sa = a * a + a + 1
        for b in primes[i + 1:]:
            g = gcd(sa, b * b + b + 1)
            if g > 1:
                out.update((a, b, q) for q in set(factorize(g)))
    return out


def brute_lemma1(max_prime):
    """lemma1_scan by a gcd over every same-residue pair."""
    primes = _odd_primes(max_prime)
    out = []
    for i, a in enumerate(primes):
        sa = a * a + a + 1
        for b in primes[i + 1:]:
            if b % 3 != a % 3:
                continue
            g = gcd(sa, b * b + b + 1)
            if g == 1:
                continue
            bound = Fraction(a + b + 1, 5 if a % 3 == 2 else 3)
            out.extend(Lemma1Violation(a, b, q, bound)
                       for q in sorted(set(factorize(g))) if q > bound)
    return out


def brute_lemma2(max_p):
    """lemma2_scan by testing 12r - 3 = (2q+1)^2 for every 1 <= p <= max_p."""
    out = []
    for p in range(1, max_p + 1):
        r = p * p + p + 1
        m = 12 * r - 3
        u = isqrt(m)
        if u * u == m and u >= 3:
            q = (u - 1) // 2
            if q * q + q + 1 == 3 * r:
                out.append(Lemma2Solution(p, q, r))
    return out
