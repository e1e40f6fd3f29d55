"""Prime generation, primality testing, and integer factorization, sized for
desk-scale scans (inputs comfortably below 2^64 and a bit beyond).

Factorization runs a small trial-division wheel first, then finishes any
surviving cofactor with Miller-Rabin plus Brent's rho with a fixed parameter
schedule, so repeated runs factor identically.
"""
from __future__ import annotations

from itertools import compress
from math import gcd, isqrt

# the first 13 primes as strong-pseudoprime bases: Miller-Rabin with them is
# deterministic below PSI_13, about 3.3 * 10^24 (Sorenson and Webster 2015).
# The first 12 alone stop at psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981

_TRIAL_BOUND = 1000


def odd_prime_flags(limit: int) -> bytearray:
    """flags[j] is 1 exactly when 3 + 2j is prime, for the odd 3 + 2j <= limit."""
    flags = bytearray([1]) * max(0, (limit - 1) // 2)
    for p in range(3, isqrt(max(limit, 0)) + 1, 2):
        if flags[(p - 3) >> 1]:
            j = (p * p - 3) >> 1  # odd multiples of p step by 2p, which is p in j
            flags[j::p] = bytes(len(range(j, len(flags), p)))
    return flags


def sieve(limit: int) -> list:
    """All primes <= limit."""
    if limit < 2:
        return []
    return [2, *compress(range(3, limit + 1, 2), odd_prime_flags(limit))]


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases in _MR_BASES, proven correct for n < PSI_13.
    An n that is not an int raises TypeError."""
    if not isinstance(n, int):
        raise TypeError(f"n {n!r} is not an int")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n, deterministic schedule."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # batching overshot; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # rare: the whole cycle collapsed, retry with a new constant


def factorize(n: int) -> list:
    """Sorted prime factors of n >= 1, with multiplicity; factorize(1) == [].
    Raises ValueError rather than report a cofactor of at least PSI_13 as
    prime, and TypeError for an n that is not an int."""
    if not isinstance(n, int):
        raise TypeError(f"n {n!r} is not an int")
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    factors = []
    for p in (2, 3):
        while n % p == 0:
            factors.append(p)
            n //= p
    d = 5
    step = 2
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += step
        step = 6 - step  # 5, 7, 11, 13, ... wheel
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            # is_prime's True is proven only below PSI_13; its False always is
            if m >= PSI_13:
                raise ValueError(f"cofactor {m} is at least PSI_13, where "
                                 "primality is not proven")
            factors.append(m)
            continue
        g = _brent_rho(m)
        stack.append(g)
        stack.append(m // g)
    factors.sort()
    return factors
