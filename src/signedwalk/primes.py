"""Primality testing, factorization, and prime search (pure integer arithmetic).

Deterministic Miller-Rabin with the standard 64-bit base set, plus Brent-cycle
Pollard rho for the composite cofactors that survive trial division.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import CapExceeded, ConsistencyFailure

# Witnesses proving primality for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIME_BOUND = 1000
_TRIAL_DIVISION_BOUND = 10**6  # trial divisors up to here, then Pollard rho
PRIME_SEARCH_BOUND = 10**9  # largest prime `next_prime_outside` skips to
_small_primes: list[int] = []


def _sieve_small() -> list[int]:
    if not _small_primes:
        flags = bytearray([1]) * _SMALL_PRIME_BOUND
        flags[0:2] = b"\x00\x00"
        for i in range(2, int(_SMALL_PRIME_BOUND**0.5) + 1):
            if flags[i]:
                flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
        _small_primes.extend(i for i in range(_SMALL_PRIME_BOUND) if flags[i])
    return _small_primes


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _sieve_small():
        if n == p:
            return True
        if n % p == 0:
            return False
        if p * p > n:
            return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(2, n)
    while not is_prime(c):
        c += 1
    return c


def _pollard_rho(n: int, spend: Callable[[int], None]) -> int:
    """One nontrivial factor of composite n (Brent variant, deterministic restarts).
    Each round of length r first passes its 2r steps y -> y^2 + c to `spend`."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            spend(2 * r)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ConsistencyFailure(f"rho factorization failed for {n}")


def factorize(n: int, spend: Callable[[int], None] = lambda steps: None) -> dict[int, int]:
    """Full prime factorization of n >= 1 as {prime: exponent}; `spend` gets the
    Pollard-rho steps and may raise to stop the search."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _sieve_small():
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = _SMALL_PRIME_BOUND
    p += 1 if p % 2 == 0 else 0
    prime = is_prime(n)  # a prime cofactor has no divisor left to find
    while not prime and p * p <= n and p <= _TRIAL_DIVISION_BOUND:
        if n % p == 0:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            prime = is_prime(n)
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, spend)
        stack.append(d)
        stack.append(m // d)
    return out


def next_prime_outside(start: int, excluded: set[int]) -> int:
    """Smallest prime >= start that is not in `excluded`.  Only a skip past an
    excluded prime to above PRIME_SEARCH_BOUND raises CapExceeded, so a
    start above the bound still gets its first prime when that is admissible."""
    p = next_prime(start)
    while p in excluded:
        p = next_prime(p + 1)
        if p > PRIME_SEARCH_BOUND:
            raise CapExceeded(f"no admissible prime below {PRIME_SEARCH_BOUND}")
    return p
