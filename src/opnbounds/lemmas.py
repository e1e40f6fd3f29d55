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

The census sieve only counts: for each n of a segment it keeps how many
distinct primes q up to the segment's top hi divide n^2+n+1, and the
largest of them; a q below the segment's length updates each root class
with slices. Since n^2+n+1 < (hi+1)^2, what none of those q divides is 1
or one prime, so each prime n finishes exactly with at most a few
divisions; _census_chunk lists the cases. Lemma 1's walk returns plain
(a, b, q, k) tuples; lemma1_scan builds the Lemma1Violation records and
loads fractions only when there is one.

Every scan runs in the calling process and calls its chunk function
directly; bucket_census accepts a jobs argument and ignores it. The census
and lemma 1 each sieve their range [3, max] once, through one helper,
_root_table: one odd_prime_flags array gives the primes q they walk and one
pass finds a root of x^2+x+1 modulo each q. bucket_census builds that
table once and hands it to _census_chunk for each (lo, size) segment, and
lemma1_scan hands it to _lemma1_chunk. Lemma 1 needs no q past max,
because a shared prime of a same-residue pair is below it (see
_lemma1_chunk). Their largest ranges are MAX_CENSUS and MAX_LEMMA1; a
larger one raises ValueError before any sieving. Lemma 2's largest p is
MAX_LEMMA2; a larger one raises ValueError before the walk. A max that is
not an int raises TypeError before either check.
"""
from __future__ import annotations

from array import array
from itertools import compress
from math import gcd
from typing import NamedTuple

from .primes import PSI_13, factorize, is_prime, odd_prime_flags

BUCKETS = ("S1", "S2", "S3plus")
RESIDUES = (1, 2)
CELLS = tuple((bucket, residue) for bucket in BUCKETS for residue in RESIDUES)

# odd n per sieve segment; bounds the arrays one segment holds
_SEGMENT = 1 << 18
_PLUS_ONE = bytes(range(1, 256)) + b"\xff"  # translate table of b + 1, held at 255

# the largest max of each range scan, for the time budget of MAX_BOX: at
# these the census took 4.6-5.3 s and lemma 1 1.9-2.7 s (2-core host,
# CPython 3.11.7). MAX_CENSUS also keeps every q within the
# array("L") of _census_chunk, which is 32 bits wide on some platforms.
MAX_CENSUS = 8 * 10**6
MAX_LEMMA1 = 10**7
# lemma 2 walks O(log max) p and settles each with a gcd (see
# Lemma2Solution): the whole command took 0.9 s in csv at this cap (same
# host and Python). Past about 10^2150, r = p^2+p+1 has more digits than
# CPython converts to a string.
MAX_LEMMA2 = 10**1200


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


# lemma 1: a prime shared by a^2+a+1 and b^2+b+1, a = b (mod 3), is at most
# (a+b+1)/k, with k by the residue
_LEMMA1_K = {1: 3, 2: 5}


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
    bound = Fraction(a + b + 1, _LEMMA1_K[a % 3]) if a % 3 == b % 3 else None
    return SharedPrimes(min(a, b), max(a, b), common, bound)


def _root(q: int) -> int:
    """A root w of x^2+x+1 modulo a prime q = 1 (mod 3); the other root is
    q-1-w."""
    a = 2  # w = a^((q-1)/3) has w^3 = 1, so w != 1 makes w^2+w+1 = 0
    while (w := pow(a, (q - 1) // 3, q)) == 1:
        a += 1
    return w


def _root_table(limit: int) -> tuple:
    """(flags, qs, ws) over [3, limit], the one sieve and root pass of both
    n^2+n+1 scans: flags = odd_prime_flags(limit), qs the primes q = 1
    (mod 3) up to limit, ws a root of x^2+x+1 modulo each. Such q are odd,
    so they are among 7, 13, 19, ...: every third flag from 7's."""
    flags = odd_prime_flags(limit)
    qs = array("L", compress(range(7, limit + 1, 6), flags[2::3]))
    return flags, qs, array("L", map(_root, qs))


def _segments(limit: int) -> list:
    """Sieve segments (lo, size) of the odd n = lo + 2j, j < size, in
    [5, limit], as few as keep each within _SEGMENT."""
    total = (limit - 3) // 2
    if total <= 0:
        return []
    parts = -(-total // _SEGMENT)
    edges = [total * k // parts for k in range(parts + 1)]
    return [(5 + 2 * a, b - a) for a, b in zip(edges, edges[1:])]


def _census_chunk(lo, size, all_flags, qs, ws) -> list:
    """Polynomial sieve of n^2+n+1 over the primes n of one segment (lo,
    size): their counts per cell in CELLS order. all_flags, qs and ws are
    _root_table of at least the segment's top, shared by every segment.

    3 divides f = n^2+n+1 exactly when n = 1 (mod 3), 9 never; write t for
    that 0 or 1. Any other prime factor q is 1 (mod 3) and divides f
    exactly when n = w or q-1-w (mod q), so each q up to the top hi walks
    those two classes. The walk only counts: seen[j] is d, the number of
    distinct such q dividing f, and top[j] the largest. A q below the
    segment size updates each class with one slice assignment per array; a
    larger q has at most one index in each class.

    f < (hi+1)^2, so the part of f that no prime up to hi divides is 1 or
    one prime. So each prime n finishes exactly, with at most a few
    divisions:
    - d + t >= 3 puts it in S3plus;
    - d = 0 leaves f/3^t > 1 free of small factors: Omega = t + 1;
    - d = 1: divide q = top out of f, e times, leaving r; r/3^t is 1 or
      one prime, so Omega = t + e + [r > 3^t];
    - d = 2, so t = 0: r = f/q^e is divisible by the other q', below q. If
      r <= hi and the flags say r is prime, r = q' and Omega = e + 1. Else
      r is not prime (a prime r would be q' <= hi), so Omega >= e + 2 >= 3.
    """
    hi = lo + 2 * size - 2
    start = (lo - 3) >> 1
    flags = all_flags[start:start + size]  # flags[j]: lo + 2j is prime
    seen = bytearray(size)  # distinct q <= hi dividing n^2+n+1
    top = array("L", [0]) * size  # the largest of them
    for q, w in zip(qs, ws):
        if q > hi:
            break
        for root in (w, q - 1 - w):
            first = (root - lo) * (q + 1) // 2 % q  # lo + 2j = root (mod q)
            if q < size:  # the class is first, first + q, ... below size
                seen[first::q] = seen[first::q].translate(_PLUS_ONE)
                top[first::q] = array("L", [q]) * len(range(first, size, q))
            elif first < size and flags[first]:  # the class's only index
                seen[first] += 1
                top[first] = q
    cells = [0] * len(CELLS)
    for j in compress(range(size), flags):
        n = lo + 2 * j
        t, d = n % 3 == 1, seen[j]
        if d + t >= 3:
            omega = 3
        elif d == 0:
            omega = t + 1
        else:
            q = top[j]
            rest, e = (n * n + n + 1) // q, 1
            while rest % q == 0:
                rest, e = rest // q, e + 1
            if d == 1:
                omega = t + e + (rest > 3 ** t)
            elif rest <= hi and all_flags[(rest - 3) >> 1]:
                omega = e + 1
            else:
                omega = e + 2
        cells[2 * min(omega, 3) + n % 3 - 3] += 1
    return cells


def bucket_census(max_prime: int, jobs: int | None = 1) -> dict:
    """Counts of odd primes 3 < p <= max_prime per (bucket, residue) cell;
    all six cells are present, empty ones as zero. A max_prime that is not
    an int raises TypeError, and one past MAX_CENSUS ValueError, before any
    sieving. jobs is accepted and ignored."""
    if not isinstance(max_prime, int):
        raise TypeError(f"max {max_prime!r} is not an int")
    if max_prime > MAX_CENSUS:
        raise ValueError(f"max {max_prime} is larger than {MAX_CENSUS}, "
                         f"the largest census max")
    flags, qs, ws = _root_table(max_prime)
    parts = [_census_chunk(lo, size, flags, qs, ws) for lo, size in _segments(max_prime)]
    return dict(zip(CELLS, map(sum, zip([0] * len(CELLS), *parts))))


class Lemma1Violation(NamedTuple):
    a: int
    b: int
    p: int
    bound: Fraction


def _lemma1_chunk(max_prime, k_of, flags, qs, ws) -> list:
    """Lemma 1 violations (a, b, q, k), with k_of the bound's k per residue
    and k the one of a's residue, among the primes 3 < a < b <= max_prime
    whose shared prime is one of qs, primes up to max_prime that are 3 or
    1 (mod 3), and ws the matching roots of x^2+x+1 (1 for q = 3); flags
    are odd_prime_flags of at least max_prime.

    Every prime factor of n^2+n+1 is 3 or 1 (mod 3). For a prime
    q | a^2+a+1, (b^2+b+1) - (a^2+a+1) = (b-a)(a+b+1) shows that
    q | b^2+b+1 exactly when b = a or b = -1-a (mod q).

    Lemma 1 holds for every pair: with a = b = r (mod 3), a shared q is at
    most (a+b+1)/k, where k = 3 for r = 1 and 5 for r = 2. q = 3 divides
    n^2+n+1 only for n = 1 (mod 3), so r = 1 and a+b+1 >= 7+13+1 > 9. A
    larger q is 1 (mod 3) and prime to 6. If q | b-a, then 6q | b-a, as
    b-a is even and a multiple of 3, so q < (a+b+1)/6. Otherwise
    a+b+1 = m*q, where m is odd, as a+b+1 is, and m = 2r+1 (mod 3): for
    r = 1, 3 | m, so m >= 3; for r = 2, m = 2 (mod 3) and odd, so m >= 5.
    Both k are sharp: a+b+1 = 3q at (37, 163, 67) and 5q at (5, 149, 31).
    The scan checks this proof; it needs only that every shared q is at
    most (a+b+1)/3 < max_prime, so the qs up to max_prime hold it.

    q | n^2+n+1 exactly when n = w or q-1-w (mod q), the same class
    when q = 3. If a is one root, -1-a is the other, so a and b lie in the
    same two classes. A violation needs a+b+1 < k*q, so a < k*q/2 and
    b <= min(max_prime, k*q - a - 2): both are below max(k)*q, which is 5q
    for lemma 1, where each class has at most 3 odd values. Each pair of
    primes among them with equal residues and a+b+1 < k*q is a violation,
    with bound (a+b+1)/k."""
    k_top = max(k_of.values())
    out = []
    for q, w in zip(qs, ws):
        top = min(max_prime, k_top * q)
        found = sorted(n for r in {w, q - 1 - w}
                       for n in range(r if r % 2 else r + q, top + 1, 2 * q)
                       if n > 3 and flags[(n - 3) // 2])
        for i, a in enumerate(found):
            k = k_of[a % 3]
            out += [(a, b, q, k) for b in found[i + 1:]
                    if b % 3 == a % 3 and a + b + 1 < k * q]
    return out


def lemma1_scan(max_prime: int) -> list:
    """Check every same-residue pair of odd primes 3 < a < b <= max_prime:
    each prime dividing both a^2+a+1 and b^2+b+1 must respect the residue
    bound. Returns violations sorted by (a, b, p); the expectation is none.
    A max_prime that is not an int raises TypeError, and one past MAX_LEMMA1
    ValueError, before any sieving."""
    if not isinstance(max_prime, int):
        raise TypeError(f"max {max_prime!r} is not an int")
    if max_prime > MAX_LEMMA1:
        raise ValueError(f"max {max_prime} is larger than {MAX_LEMMA1}, "
                         f"the largest lemma 1 max")
    flags, qs, ws = _root_table(max_prime)
    qs, ws = array("L", [3]) + qs, array("L", [1]) + ws  # q = 3 has the one root w = 1
    found = sorted(_lemma1_chunk(max_prime, _LEMMA1_K, flags, qs, ws))
    if not found:
        return []
    from fractions import Fraction  # only for a violation; no scan has found one
    return [Lemma1Violation(a, b, q, Fraction(a + b + 1, k)) for a, b, q, k in found]


class Lemma2Solution(NamedTuple):
    p: int
    q: int
    r: int

    @property
    def p_is_odd_prime(self) -> bool:
        """Whether p is an odd prime. With m = (q-1)/3, a proper divisor
        gcd(p, m) or gcd(p, m+1) shows p composite without is_prime; for
        every solution of the walk past p = 2 one of them is (see
        _lemma2_chunk)."""
        m = (self.q - 1) // 3
        if 1 < gcd(self.p, m) < self.p or 1 < gcd(self.p, m + 1) < self.p:
            return False
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
    rest on is_prime past PSI_13. Z is odd; with m = (Z-1)/2 = (q-1)/3 the
    two equations give p^2+p+1 = (3Z^2+1)/4 = 3m^2+3m+1, that is
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
    walk takes O(log max_p) steps. A max_p that is not an int raises
    TypeError, and one past MAX_LEMMA2 ValueError, before the walk."""
    if not isinstance(max_p, int):
        raise TypeError(f"max {max_p!r} is not an int")
    if max_p > MAX_LEMMA2:
        raise ValueError("max is larger than 10^1200, the largest lemma 2 max")
    return _lemma2_chunk(max_p)


def lemma2_violations(solutions) -> list:
    return [s for s in solutions if s.p_is_odd_prime]
