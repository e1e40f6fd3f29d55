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

The census sieve only counts, in one state byte per odd n up to max: none,
one, two or more distinct primes q up to the largest such n, hi, divide
n^2+n+1, and for one or two the floor of 2 log2 of each. One translate per
root class of a q updates it. Since n^2+n+1 < (hi+1)^2, what none of those
q divides is 1 or one prime, so a square sieve over the q below
(hi+1)^(2/3), a bit-length test for two q and a primality look-up for the
few n with n^2+n+1 <= 3 hi settle every prime n, and bytes.count reads the
counts off the states; _census_chunk proves the cases. The square sieve
is part of the one walk over the root table: each q < (hi+1)^(2/3) lifts
its root modulo q^2 right after its own translate. Lemma 1's walk reads
the root table in place, with q = 3 chained in front, and returns plain
(a, b, q, k) tuples; lemma1_scan builds the Lemma1Violation records and
loads fractions only when there is one.

Every scan runs in the calling process and calls its chunk function
directly; bucket_census accepts a jobs argument and ignores it. The census
and lemma 1 each sieve their range [3, max] once, through one helper,
_root_table: one odd_prime_flags array gives the primes q they walk, and
one walk over the sums q = a^2 + ab + b^2 finds a root a/b of x^2+x+1
modulo each prime q with one modular inverse. bucket_census hands that
table to one _census_chunk call, which sieves the whole range, and
lemma1_scan hands it to _lemma1_chunk. Lemma 1 needs no q past max,
because a shared prime of a same-residue pair is below it (see
_lemma1_chunk). Their largest ranges are MAX_CENSUS and MAX_LEMMA1; a
larger one raises ValueError before any sieving. Lemma 2's largest p is
MAX_LEMMA2; a larger one raises ValueError before the walk. A max that is
not an int raises TypeError before either check.
"""
from __future__ import annotations

from array import array
from itertools import chain, compress
from math import gcd, isqrt
from typing import NamedTuple

from .primes import PSI_13, factorize, is_prime, odd_prime_flags

BUCKETS = ("S1", "S2", "S3plus")
RESIDUES = (1, 2)
CELLS = tuple((bucket, residue) for bucket in BUCKETS for residue in RESIDUES)

# candidates q per block of _root_table; bounds the roots array of a block
_SEGMENT = 1 << 18
# census state bytes, see _census_chunk: a prime n starts at 0 and a
# composite one at 255, which every table keeps; _ADD[l] counts one more q
# with l(q) = l, and _SQUARE sends each d = 1 state to 255
_START = b"\xff\x00" + bytes(254)
_ADD = [bytes([1 + l]) + b"\xff" * 5 + bytes(range(53 + l, 94 + l)) + b"\xff" * 209
        for l in range(46)]
_ONE_Q = bytes(range(6, 47))  # the d = 1 states
_SQUARE = bytes(range(6)) + b"\xff" * 41 + bytes(range(47, 256))

# the largest max of each range scan, for the time budget of MAX_BOX: at
# these a census process took 0.8-1.2 s and a lemma 1 process 1.4-2.2 s
# (2-core host, CPython 3.11.7). Both keep every q within the array("L")
# of _root_table.
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


def _root_table(limit: int) -> tuple:
    """(flags, qs, ws) over [3, limit], the one sieve and root pass of both
    n^2+n+1 scans: flags = odd_prime_flags(limit), qs the primes q = 1
    (mod 3) up to limit, ws a root of x^2+x+1 modulo each. Such q are odd,
    so they are among 7, 13, 19, ...: every third flag from 7's.

    Every prime q = 1 (mod 3) is a^2 + ab + b^2 for a pair a > b >= 1
    (the norm form of the Eisenstein integers), and then w = a/b (mod q)
    has w^2 + w + 1 = q/b^2 = 0 (mod q), as 0 < b < q. So the pass walks b
    up to sqrt(limit/3), as a > b makes the sum above 3b^2, and for each b
    the a in the classes that can give such a q: a = b (mod 3) makes 3
    divide the sum, and a, b both even makes it even. Where the flags say
    the sum is prime, one modular inverse gives its root. The pass fills the
    roots of _SEGMENT consecutive candidates 7 + 6k at a time, walking for
    each b only the a whose sums fall among them, so no array over all of
    [7, limit] holds the roots before they are put in q order. qs and ws are
    array("L"), which is 32 bits wide on some platforms; MAX_CENSUS and
    MAX_LEMMA1 keep every q within it.
    """
    flags = odd_prime_flags(limit)
    prime_q = flags[2::3]  # prime_q[k]: q = 7 + 6k is prime
    ws = array("L")
    for base in range(0, len(prime_q), _SEGMENT):  # one block of k
        size = min(_SEGMENT, len(prime_q) - base)
        low, high = 6 * base + 7, 6 * (base + size) + 1  # its least and largest q
        roots = array("L", [0]) * size
        for b in range(1, isqrt(high // 3) + 1):
            # the least and the largest a with low <= a^2 + ab + b^2 <= high
            bottom = max(b + 1, (isqrt(max(4 * low - 3 * b * b - 1, 0)) + 2 - b) // 2)
            top = (isqrt(4 * high - 3 * b * b) - b) // 2
            step, c = (3 if b % 2 else 6), b * b - 7
            for start in range(bottom, bottom + step):
                if (start - b) % 3 and (start | b) & 1:
                    for a in range(start, top + 1, step):
                        k = (a * (a + b) + c) // 6
                        if prime_q[k]:
                            q = 6 * k + 7
                            roots[k - base] = a * pow(b, -1, q) % q
        ws.extend(compress(roots, prime_q[base:base + size]))
    return flags, array("L", compress(range(7, limit + 1, 6), prime_q)), ws


def _square_cut(hi: int) -> int:
    """The least Q with Q^3 >= (hi+1)^2, by Newton's integer cube root."""
    target = (hi + 1) ** 2
    x = 1 << -(-target.bit_length() // 3)  # at least the cube root
    while (y := (2 * x + target // (x * x)) // 3) < x:
        x = y
    return x + (x ** 3 < target)


def _census_chunk(flags, qs, ws) -> list:
    """Polynomial sieve of f = n^2+n+1 over the primes 3 < n <= hi: their
    counts per cell in CELLS order. flags, qs and ws are _root_table of a
    max whose largest odd n is hi, and the sieve reads them in place: the
    state of n = 3 + 2j is state[j], as flags[j] is its flag. n = 3 is in
    neither residue class, so no count reads state[0].

    3 divides f exactly when n = 1 (mod 3), 9 never; write t for that 0 or
    1. Any other prime factor q is 1 (mod 3) and divides f exactly when
    n = w or q-1-w (mod q). Let d be the number of distinct such q <= hi
    that divide f, and l(x) = (x*x).bit_length() - 1, the floor of
    2 log2 x. Each n keeps one state byte: 0 for d = 0, 1 + l(q) for
    d = 1, 48 + l(q1) + l(q2) for d = 2, and 255 for d >= 3 or a composite
    n. l(q) <= 45 up to MAX_CENSUS, so the d = 1 states are 6..46 and the
    d = 2 states 58..138. One walk over qs and ws, in increasing q, does
    all the sieving. Each q is odd and at most max, so at most hi; it
    updates its two root classes with one translate by _ADD[l(q)], and a
    q below the cut Q of the square sieve (see d = 1 and e >= 2 below)
    then, in the same iteration, updates its two root classes modulo q^2
    with one translate by _SQUARE. A modulus past the number of n has at
    most one index in each class.

    f < (hi+1)^2, so the part r of f that no prime up to hi divides is 1
    or one prime above hi. With e the exponent of q in f and Omega the
    prime factors of f counted with multiplicity, each prime n falls in
    one case:
    - d = 0: r = f/3^t > 1, so Omega = t + 1.
    - d = 1 and e >= 2: Omega = t + e + [r > 1] >= 2, with equality only
      for f = q^2, which (2q)^2 - (2n+1)^2 = 3 rules out. So Omega >= 3.
      The square sieve sends these states to 255, with the roots of
      x^2+x+1 lifted modulo q^2, but only for q < Q, the least Q with
      Q^3 >= (hi+1)^2. It runs in q's own iteration, right after q's
      _ADD translate, and settles the same n as a square sieve run after
      the whole walk: _SQUARE moves only the d = 1 states, and every _ADD
      keeps 255 at 255. An n in a root class modulo q^2 is in one modulo
      q, which q's _ADD has just hit, so a d = 1 state there names q
      alone. Such an n ends at 255 in both orders, unless a later q2 also
      divides f; then the later square sieve would meet a d = 2 state,
      which fails the bit-length test of the d = 2 case as f >= q^2 q2, so
      the n is in S3plus either way. A d >= 2 state there neither order
      moves. For q >= Q, q^3 > f gives e = 2, and r = 1 because
      a prime r > hi would make f >= q^2 (hi+1) > (hi+1)^2. As f = q^2 is
      ruled out, f = 3q^2 with t = 1: its state stays, and the next case's
      count puts it in S3plus, as f/3 = q^2 is not prime.
    - d = 1 and e = 1: Omega = t + 1 + [r > 1]. r = 1 means f = 3^t q with
      q <= hi, so f <= 3 hi. So the d = 1 states give S2 for t = 0 and
      S3plus for t = 1, and the few n with f <= 3 hi and f/3^t prime move
      one bucket down (f = q, f = 3q).
    - d = 2: Omega >= 3 for t = 1. For t = 0, Omega = 2 exactly when
      f = q1 q2, and then l(f) - l(q1) - l(q2) is 0 or 1, as
      floor(x + y) - floor(x) - floor(y) is. Any other f is q1 q2 times a
      factor of at least 7 (q1, q2 or r), and 2 log2 7 > 5 makes that
      difference at least 5. So S2 gets the states 47 + l(f) and
      48 + l(f), counted over each run of n where l(f) is the same.
    - d >= 3: Omega >= 3.
    bytes.count over each residue class's states gives the counts; every
    prime n not counted in S1 or S2 is in S3plus.
    """
    size = len(flags)
    lo, hi = 3, 2 * size + 1
    state, cut = flags.translate(_START), _square_cut(hi)
    for q, w in zip(qs, ws):
        add = _ADD[(q * q).bit_length() - 1]
        for root in (w, q - 1 - w):
            first = (root - lo) * (q + 1) // 2 % q  # lo + 2j = root (mod q)
            if q < size:  # the class is first, first + q, ... below size
                state[first::q] = state[first::q].translate(add)
            elif first < size:  # the class's only index
                state[first] = add[state[first]]
        if q < cut:  # the square sieve of q
            qq = q * q
            w = (w - (w * w + w + 1) * pow(2 * w + 1, -1, qq)) % qq  # Hensel's lift
            for root in (w, qq - 1 - w):
                first = (root - lo) * (qq + 1) // 2 % qq
                if qq < size:
                    state[first::qq] = state[first::qq].translate(_SQUARE)
                elif first < size:
                    state[first] = _SQUARE[state[first]]
    cells = [0] * len(CELLS)  # (bucket, residue) at 2 * bucket + residue - 1
    for j in compress(range(1, size), memoryview(flags)[1:]):  # n = 5, 7, ...
        n = lo + 2 * j
        if n * n + n + 1 > 3 * hi:  # past the first few n
            break
        t = n % 3 == 1
        rest = (n * n + n + 1) // 3 ** t
        if state[j] in _ONE_Q and rest <= hi and flags[(rest - 3) >> 1]:
            cells[2 * t + n % 3 - 1] += 1  # f = 3^t q: Omega = t + 1
            cells[2 * t + n % 3 + 1] -= 1
    for residue in RESIDUES:
        j0 = (lo - residue) % 3  # lo + 2j = residue (mod 3) exactly for these j
        row = state[j0::3]
        if residue == 1:  # t = 1
            cells[2] += row.count(0)
        else:  # t = 0
            cells[1] += row.count(0)
            cells[3] += len(row) - len(row.translate(None, _ONE_Q))
            n0 = lo + 2 * j0  # row[i] is the state of n0 + 6i
            i, ell = 0, ((n0 * n0 + n0 + 1) ** 2).bit_length() - 1
            while i < len(row):  # the run of n with l(f) = ell
                c = isqrt((2 << ell) - 1) + 1  # the least f with l(f) > ell
                n = (isqrt(4 * c - 4) + 1) // 2  # the least n with f >= c
                end = min(len(row), max(i, -(-(n - n0) // 6)))
                cells[3] += row.count(47 + ell, i, end) + row.count(48 + ell, i, end)
                i, ell = end, ell + 1
        cells[residue + 3] = (flags[j0::3].count(1) - cells[residue - 1]
                              - cells[residue + 1])
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
    return dict(zip(CELLS, _census_chunk(*_root_table(max_prime))))


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
    flags, qs, ws = _root_table(max_prime)  # q = 3, with the one root w = 1, goes first
    found = sorted(_lemma1_chunk(max_prime, _LEMMA1_K, flags, chain((3,), qs), chain((1,), ws)))
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
