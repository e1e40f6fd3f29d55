"""Number-theory side of the bound: classification of primes by the factor
count of p^2+p+1, shared-divisor bounds for pairs, and the scans that check
the supporting lemmas on ranges.

Conventions: classification applies to odd primes p > 3; residue means
p mod 3 (always 1 or 2 for such p); bucket S1/S2/S3plus is the number of
prime factors of p^2+p+1 counted with multiplicity (one, two, three or
more).

The range scans factor no single value: the census runs a polynomial sieve
over n^2+n+1, lemma 1 walks the primes that can divide two such values, and
lemma 2 follows a Pell recurrence. The direct loops they replace are test
oracles in tests/nt_bruteforce.py.
"""
from __future__ import annotations

from array import array
from itertools import compress
from math import gcd
from typing import NamedTuple

from .primes import PSI_13, factorize, is_prime, odd_prime_flags, sieve
from .workers import effective_jobs, run_chunks

BUCKETS = ("S1", "S2", "S3plus")
RESIDUES = (1, 2)
CELLS = tuple((bucket, residue) for bucket in BUCKETS for residue in RESIDUES)

# odd n per sieve segment; bounds the arrays one worker holds
_SEGMENT = 1 << 18


class PrimeClass(NamedTuple):
    prime: int
    residue: int          # prime mod 3
    sigma: int            # prime^2 + prime + 1
    factors: tuple        # sorted prime factors of sigma, with multiplicity

    @property
    def factor_count(self) -> int:
        return len(self.factors)

    @property
    def bucket(self) -> str:
        return BUCKETS[min(self.factor_count, 3) - 1]


def _sigma(p: int) -> int:
    """p^2 + p + 1, which must be below PSI_13, where is_prime is proven."""
    sigma = p * p + p + 1
    if sigma >= PSI_13:
        raise ValueError(f"p^2+p+1 = {sigma} is not below psi_13 = {PSI_13}, "
                         f"the proven range of is_prime")
    return sigma


def classify_prime(p: int) -> PrimeClass:
    """Classify an odd prime p > 3 by the factorization of p^2 + p + 1.

    p^2 + p + 1 must be below PSI_13, where is_prime is proven; that keeps
    p below about 1.82 * 10^12 and bounds the time factorize can take.
    """
    if p <= 3:
        raise ValueError(f"classification needs an odd prime above 3, got {p}")
    sigma = _sigma(p)
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    return PrimeClass(p, p % 3, sigma, tuple(factorize(sigma)))


class SharedPrimes(NamedTuple):
    a: int
    b: int
    common: tuple              # distinct primes dividing both sigma values
    bound: Fraction | None     # size bound when both residues agree, else None


def shared_primes(a: int, b: int) -> SharedPrimes:
    """Primes dividing both a^2+a+1 and b^2+b+1 for distinct odd primes
    a, b > 3, plus the applicable bound: any shared prime is at most
    (a+b+1)/5 when a = b = 2 (mod 3) and (a+b+1)/3 when a = b = 1 (mod 3);
    mixed residues carry no bound. Both a^2+a+1 and b^2+b+1 must be below
    PSI_13, as for classify_prime."""
    from fractions import Fraction  # here, so census, classify and lemma 2 never load it

    if a == b:
        raise ValueError("the pair must be distinct")
    sigma_a, sigma_b = _sigma(a), _sigma(b)
    for p in (a, b):
        if p <= 3 or not is_prime(p):
            raise ValueError(f"needs odd primes above 3, got {p}")
    g = gcd(sigma_a, sigma_b)
    common = tuple(sorted(set(factorize(g)))) if g > 1 else ()
    if a % 3 == b % 3:
        bound = Fraction(a + b + 1, 5 if a % 3 == 2 else 3)
    else:
        bound = None
    return SharedPrimes(min(a, b), max(a, b), common, bound)


def _root(q: int) -> int:
    """A root w of x^2+x+1 modulo a prime q = 3 or q = 1 (mod 3); the other
    root is q-1-w, the same one when q = 3."""
    if q == 3:
        return 1
    a = 2  # w = a^((q-1)/3) has w^3 = 1, so w != 1 makes w^2+w+1 = 0
    while (w := pow(a, (q - 1) // 3, q)) == 1:
        a += 1
    return w


def _segments(limit: int, jobs: int | None) -> list:
    """Sieve segments (lo, size, qs, ws) of the odd n = lo + 2j, j < size, in
    [5, limit]: one per job at least, none longer than _SEGMENT. qs are the
    primes q = 1 (mod 3) up to limit, ws a root of x^2+x+1 modulo each."""
    total = (limit - 3) // 2
    if total <= 0:
        return []
    qs = array("L", (q for q in sieve(limit) if q % 3 == 1))
    ws = array("L", map(_root, qs))
    parts = max(effective_jobs(jobs, total), -(-total // _SEGMENT))
    edges = [total * k // parts for k in range(parts + 1)]
    return [(5 + 2 * a, b - a, qs, ws) for a, b in zip(edges, edges[1:])]


def _census_chunk(segment) -> list:
    """Polynomial sieve of n^2+n+1 over the primes n of one segment: their
    counts per cell in CELLS order.

    3 divides n^2+n+1 exactly when n = 1 (mod 3), 9 never. Any other prime
    factor q is 1 (mod 3) and divides it exactly when n = w or q-1-w
    (mod q), so each q up to the top hi walks those two classes. What is
    left has only prime factors above hi >= n and is below (n+1)^2: 1 or a
    prime."""
    lo, size, qs, ws = segment
    hi = lo + 2 * size - 2
    flags = odd_prime_flags(lo, size)
    counts = bytearray(size)  # prime factors found, with multiplicity
    rest = array("Q", bytes(8 * size))  # what is left of n^2+n+1
    live = list(compress(range(size), flags))
    for j in live:
        n = lo + 2 * j
        counts[j] = n % 3 == 1
        rest[j] = (n * n + n + 1) // (3 if counts[j] else 1)
    for i, q in enumerate(qs):
        if q > hi:
            break
        for root in (ws[i], q - 1 - ws[i]):
            first = (root - lo) * (q + 1) // 2 % q  # lo + 2j = root (mod q)
            if q >= size:  # first is the class's only index below size, if any
                hits = (first,) if first < size and flags[first] else ()
            else:
                hits = compress(range(first, size, q), flags[first::q])
            for j in hits:
                c, e = rest[j] // q, 1
                while c % q == 0:
                    c, e = c // q, e + 1
                rest[j] = c
                counts[j] += e
    cells = [0] * len(CELLS)
    for j in live:
        cells[2 * min(counts[j] + (rest[j] > 1), 3) + (lo + 2 * j) % 3 - 3] += 1
    return cells


def bucket_census(max_prime: int, jobs: int | None = 1) -> dict:
    """Counts of odd primes 3 < p <= max_prime per (bucket, residue) cell;
    all six cells are present, empty ones as zero."""
    parts = run_chunks(_census_chunk, _segments(max_prime, jobs), jobs)
    return dict(zip(CELLS, map(sum, zip([0] * len(CELLS), *parts))))


class Lemma1Violation(NamedTuple):
    a: int
    b: int
    p: int
    bound: Fraction


# lemma 1: a prime shared by a^2+a+1 and b^2+b+1, a = b (mod 3), is at most
# (a+b+1)/k, with k by the residue
_LEMMA1_K = {1: 3, 2: 5}


def _lemma1_chunk(args) -> list:
    """Lemma 1 violations, with k_of the bound's k per residue, among the
    primes 3 < a < b <= max_prime whose shared prime is one of qs, a
    stride of the primes below 2*max_prime that are 3 or 1 (mod 3).

    Every prime factor of n^2+n+1 is 3 or 1 (mod 3). For a prime
    q | a^2+a+1, (b^2+b+1) - (a^2+a+1) = (b-a)(a+b+1) shows that
    q | b^2+b+1 exactly when b = a or b = -1-a (mod q), so a shared q is at
    most a+b+1 < 2*max_prime: qs over all strides hold every shared prime.
    q | n^2+n+1 exactly when n = w or q-1-w (mod q), with w from _root
    (both 1 when q = 3). If a is one root, -1-a is the other, so a and b
    lie in the same two classes. A violation needs a+b+1 < k*q, so
    a < k*q/2 and b <= min(max_prime, k*q - a - 2): both are below
    max(k)*q, which is 5q for lemma 1, where each class has at most 3 odd
    values. Each pair of primes among them with equal residues and
    a+b+1 < k*q is a violation, with bound (a+b+1)/k."""
    from fractions import Fraction

    max_prime, k_of, qs = args
    flags = odd_prime_flags(3, max(0, (max_prime - 1) // 2))  # 3 + 2j is prime
    k_top = max(k_of.values())
    out = []
    for q in qs:
        w, top = _root(q), min(max_prime, k_top * q)
        found = sorted(n for r in {w, q - 1 - w}
                       for n in range(r if r % 2 else r + q, top + 1, 2 * q)
                       if n > 3 and flags[(n - 3) // 2])
        for i, a in enumerate(found):
            k = k_of[a % 3]
            out += [Lemma1Violation(a, b, q, Fraction(a + b + 1, k)) for b in found[i + 1:]
                    if b % 3 == a % 3 and a + b + 1 < k * q]
    return out


def lemma1_scan(max_prime: int, jobs: int | None = 1) -> list:
    """Check every same-residue pair of odd primes 3 < a < b <= max_prime:
    each prime dividing both a^2+a+1 and b^2+b+1 must respect the residue
    bound. Returns violations sorted by (a, b, p); the expectation is none."""
    qs = [q for q in sieve(2 * max_prime) if q % 3 == 1 or q == 3]
    parts = effective_jobs(jobs, len(qs))
    chunks = [(max_prime, _LEMMA1_K, qs[k::parts]) for k in range(parts)]
    violations = [v for part in run_chunks(_lemma1_chunk, chunks, jobs) for v in part]
    return sorted(violations, key=lambda v: (v.a, v.b, v.p))


class Lemma2Solution(NamedTuple):
    p: int
    q: int
    r: int

    @property
    def p_is_odd_prime(self) -> bool:
        return self.p > 2 and is_prime(self.p)


def _lemma2_chunk(max_p: int) -> list:
    """Pell walk: every positive solution of lemma 2 with p <= max_p.

    With Y = 2p+1 and 3Z = 2q+1 the two equations say Y^2 - 3Z^2 = -2.
    Z[sqrt3] is norm-Euclidean (a PID) and (1+sqrt3)^2 = 2(2+sqrt3) makes (1+sqrt3)
    its only prime over 2, so an element of norm -2 is (1+sqrt3) times a
    unit +-(2+sqrt3)^k, k in Z. Y, Z > 0 holds exactly for the plus sign
    and k >= 0; for k < 0 the conjugate is negative and larger, so Y < 0.
    (2+sqrt3)^2 = 4(2+sqrt3) - 1, so Y and Z follow x' = 4x - x_prev, and p
    and q follow x' = 4x - x_prev + 1 from p = 0, 2 and q = 1, 4 (k = 0, 1).

    No solution has p an odd prime, at any size, so the verdict does not
    rest on is_prime past PSI_13. Z is odd; with m = (Z-1)/2 the two
    equations give p^2+p+1 = (3Z^2+1)/4 = 3m^2+3m+1, that is
    p(p+1) = 3m(m+1), and m >= 1 for p > 0. A prime p divides 3, m or m+1.
    p = 3 would need m(m+1) = 4. Otherwise p <= m+1, so
    3m(m+1) = p(p+1) <= (m+1)(m+2), which gives m <= 1 and p = 2. Every
    solution with p > 2 is composite: gcd(p, m) or gcd(p, m+1) is a proper
    divisor of it.
    """
    out = []
    p0, p, q0, q = 0, 2, 1, 4
    while p <= max_p:
        out.append(Lemma2Solution(p, q, p * p + p + 1))
        p0, p = p, 4 * p - p0 + 1
        q0, q = q, 4 * q - q0 + 1
    return out


def lemma2_scan(max_p: int) -> list:
    """All positive integer solutions of p^2+p+1 = r, q^2+q+1 = 3r with
    p <= max_p, sorted by p. The supporting lemma says no solution has p an
    odd prime; solutions that do exist (like p = 2) are incidental. The
    walk takes O(log max_p) steps in one process."""
    return _lemma2_chunk(max_p)


def lemma2_violations(solutions) -> list:
    return [s for s in solutions if s.p_is_odd_prime]
