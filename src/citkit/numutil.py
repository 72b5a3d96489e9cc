"""Shared integer utilities: size conventions, primality, factoring."""

from __future__ import annotations

import math
import random

# Bases proving primality for every n < 3.317e24 (Sorenson & Webster).
_DET_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DET_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def int_bits(k: int) -> int:
    """Bit-size of an integer constant.

    Convention used throughout for instance sizes: 1 for 0 and +/-1,
    otherwise floor(log2 |k|) + 1, plus one extra bit for a negative sign.
    """
    if -1 <= k <= 1:
        return 1
    n = abs(k).bit_length()
    return n + 1 if k < 0 else n


def ceil_log2(x: int) -> int:
    """ceil(log2 x) for x >= 1; exact on powers of two."""
    if x < 1:
        raise ValueError("ceil_log2 requires x >= 1")
    return (x - 1).bit_length()


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit by sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]


def _mr_witness(n: int, a: int) -> bool:
    """True if a witnesses compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rounds: int = 64, rng: random.Random | None = None) -> bool:
    """Miller-Rabin with random bases; composite verdicts are certain."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or random.Random(0x5EED ^ n % (1 << 62))
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if _mr_witness(n, a):
            return False
    return True


def is_prime_det(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.317e24."""
    if n < 2:
        return False
    for p in _DET_MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _DET_MR_LIMIT:
        raise ValueError("deterministic base set only covers n < 3.317e24")
    return not any(_mr_witness(n, a) for a in _DET_MR_BASES)


def pollard_rho(n: int, rng: random.Random, max_iters: int = 10**6) -> int | None:
    """Brent-cycle Pollard rho; returns a nontrivial divisor or None."""
    if n % 2 == 0:
        return 2
    for _ in range(8):
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        count = 0
        while g == 1 and count < max_iters:
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
            count += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def factorize(n: int, rng: random.Random | None = None, rho_budget: int = 10**6) -> dict[int, int]:
    """Full prime factorization (trial division plus Pollard rho fallback).

    Raises RuntimeError if a cofactor resists the rho budget.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    rng = rng or random.Random(0xFAC7)
    factors: dict[int, int] = {}
    for p in primes_upto(10_000):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        if n == 1:
            return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = pollard_rho(m, rng, rho_budget)
        if d is None:
            raise RuntimeError(f"factorization stalled on {m}")
        stack.append(d)
        stack.append(m // d)
    return factors


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def split_rng(seed: int, *labels: int) -> random.Random:
    """Deterministic counter-style stream splitting for parallel trials."""
    x = (seed & (1 << 64) - 1) ^ 0x9E3779B97F4A7C15
    for lab in labels:
        x ^= (lab & (1 << 64) - 1) + 0x9E3779B97F4A7C15 + (x << 6 & (1 << 64) - 1) + (x >> 2)
        x &= (1 << 64) - 1
        x = x * 0xBF58476D1CE4E5B9 % (1 << 64)
        x ^= x >> 31
    return random.Random(x)
