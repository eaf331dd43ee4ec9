"""Exact integer number theory helpers.

Factorization, primality and modular square roots are delegated to sympy;
everything quadratic-form specific is built on top of them here.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from sympy.ntheory import factorint as _sympy_factorint
from sympy.ntheory import isprime as _sympy_isprime
from sympy.ntheory import nextprime as _sympy_nextprime
from sympy.ntheory.residue_ntheory import sqrt_mod as _sympy_sqrt_mod

from .errors import InternalInconsistencyError, PreconditionError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def bezout(values) -> tuple[list[int], int]:
    """(c, g) with sum c_i * values_i == g == gcd(values) >= 0."""
    coeffs: list[int] = []
    g = 0
    for v in values:
        x, y, g = xgcd(g, v)
        coeffs = [x * c for c in coeffs] + [y]
    return coeffs, g


def is_prime(n: int) -> bool:
    return bool(_sympy_isprime(n))


def next_prime(n: int) -> int:
    return int(_sympy_nextprime(n))


@functools.lru_cache(maxsize=1024)  # a parabolic benchmark round peaks at 58 entries
def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|, n != 0."""
    if n == 0:
        raise ValueError("cannot factor zero")
    return {int(p): int(e) for p, e in _sympy_factorint(abs(n)).items()}


def sqrt_mod(a: int, p: int) -> int | None:
    r = _sympy_sqrt_mod(a, p)
    return None if r is None else int(r)


def prime_support(q: Fraction | int) -> frozenset[int]:
    """Primes dividing numerator or denominator of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no prime support")
    primes: set[int] = set(factorize(q.numerator))
    primes.update(factorize(q.denominator))
    return frozenset(primes)


def valuation(q: Fraction | int, p: int) -> int:
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has infinite valuation")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_part(q: Fraction | int, p: int) -> Fraction:
    """q / p**valuation(q, p)."""
    return Fraction(q) / Fraction(p) ** valuation(q, p)


def unit_mod(q: Fraction | int, p_power: int, p: int) -> int:
    """Residue mod p_power of a rational with denominator coprime to p."""
    q = Fraction(q)
    if q.denominator % p == 0:
        raise ValueError("denominator not coprime to p")
    return q.numerator * pow(q.denominator, -1, p_power) % p_power


def squarefree_part(q: Fraction | int) -> int:
    """Signed squarefree integer representing q modulo rational squares."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no square class")
    sign = -1 if q < 0 else 1
    out = sign
    for p, e in factorize(q.numerator * q.denominator).items():
        if e % 2:
            out *= p
    return out


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def primes_from(start: int):
    """Yield primes >= start in increasing order."""
    p = start - 1
    while True:
        p = next_prime(p)
        yield p


def first_primes_excluding(count: int, excluded: frozenset[int] | set[int]) -> list[int]:
    out: list[int] = []
    for p in primes_from(2):
        if p not in excluded:
            out.append(p)
            if len(out) == count:
                return out
    return out


def two_squares(p: int) -> tuple[int, int]:
    """(a, b), a <= b, with a**2 + b**2 == p, for p == 2 or a prime p ≡ 1 (mod 4).

    Hermite–Serret: Euclid's algorithm on (p, x) with x**2 ≡ -1 (mod p)
    reaches a remainder below √p, and that remainder is one of the legs.
    O(log p) divisions; the representation is unique up to order and sign.
    """
    if p == 2:
        return 1, 1
    if p % 4 != 1 or not is_prime(p):
        raise PreconditionError(f"{p} is not a sum of two coprime squares")
    root = math.isqrt(p)
    a, b = p, sqrt_mod(p - 1, p)
    while b > root:
        a, b = b, a % b
    c = math.isqrt(p - b * b)
    if b * b + c * c != p:
        raise InternalInconsistencyError(f"Hermite–Serret misses {p}")
    return min(b, c), max(b, c)


def pell_fundamental(d: int) -> tuple[int, int]:
    """Least (x, y), y > 0, with x**2 - d*y**2 == 1, for d > 0 non-square.

    Continued fraction expansion of sqrt(d): the convergent h_j / k_j has
    h_j^2 - d k_j^2 = (-1)^(j+1) q_(j+1), and the state q returns to 1 exactly
    at the ends of the period. So the loop stops at the first q = 1 with an
    even sign: the end of the period, or of twice the period when it is odd.
    The number of steps is still the period length, about sqrt(d) at worst.
    """
    if d <= 0 or is_square(d):
        raise PreconditionError(f"{d} is a square or non-positive")
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    sign = -1  # (-1)^(j+1) for the convergent h_j / k_j held in h, k
    while True:
        m = q * a - m
        q = (d - m * m) // q
        if q == 1 and sign == 1:
            return h, k
        a = (a0 + m) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        sign = -sign
