"""Exact integer number theory helpers.

Primality, factorization, modular square roots and Legendre descent are
pure integer code here, with no dependency outside the standard library;
everything quadratic-form specific is built on top of them.
"""
from __future__ import annotations

import functools
import itertools
import math

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


def round_div(a: int, b: int) -> int:
    """The integer nearest to a / b (b != 0), ties to even, as round() of
    the Fraction a / b."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q % 2 == 1))


def lowest_terms(vec, den: int) -> tuple[list[int], int]:
    """(v, s) with v / s == vec / den for an integer vector over a nonzero
    denominator: s > 0 and gcd(v, s) = 1."""
    g = math.gcd(den, *vec)
    if den < 0:
        g = -g
    return [c // g for c in vec], den // g


def bezout(values) -> tuple[list[int], int]:
    """(c, g) with sum c_i * values_i == g == gcd(values) >= 0."""
    coeffs: list[int] = []
    g = 0
    for v in values:
        x, y, g = xgcd(g, v)
        coeffs = [x * c for c in coeffs] + [y]
    return coeffs, g


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (bound, bases): every composite n < bound fails the strong probable-prime
# test to one of the bases. Jaeschke (Math. Comp. 61, 1993) up to
# 3.4e14, Sinclair's seven bases up to 2^64, and Sorenson and Webster
# (Math. Comp. 86, 2017) for the first twelve and thirteen primes.
_MR_BASES = (
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318_665_857_834_031_151_167_461, _SMALL_PRIMES[:12]),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES),
)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_probable_prime(n: int, base: int) -> bool:
    """Miller–Rabin round, for odd n > base: n - 1 = t 2^s, and base^t = 1
    or base^(t 2^r) = -1 mod n for some r < s."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(base, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (Baillie–Wagstaff,
    Math. Comp. 35, 1980): D the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1, Q = (1 - D)/4; n + 1 = k 2^s with k odd, and U_k = 0 or
    V_(k 2^r) = 0 mod n for some r < s. For odd n > 41 with no prime factor
    up to 41."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would exist
    d = 5
    while (j := jacobi(d, n)) != -1:
        if j == 0:
            return False  # gcd(|D|, n) > 1 and |D| < n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> s

    def half(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) >> 1

    u, v, qk = 1, 1, q % n  # U_1, V_1, Q^1
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Exact below 3.3e24 (deterministic Miller–Rabin); strong BPSW above,
    which has no known counterexample."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    for bound, bases in _MR_BASES:  # every base is below n
        if n < bound:
            return all(_strong_probable_prime(n, b) for b in bases)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def next_prime(n: int) -> int:
    """The least prime > n."""
    if n < 2:
        return 2
    p = n + 1 + (n & 1)  # the least odd number > n
    while not is_prime(p):
        p += 2
    return p


def _rho_factor(n: int) -> int:
    """A factor 1 < f < n of the odd composite n: Pollard's rho with Brent's
    cycle detection and batched gcds, on x -> x^2 + c from x = 2, for
    c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
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
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


_TRIAL_PRIMES = tuple(p for p in range(1 << 10) if is_prime(p))


@functools.lru_cache(maxsize=1024)  # a parabolic benchmark round peaks at 58 entries
def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|, n != 0, primes ascending: trial division
    by the primes below 2^10, then Pollard–Brent rho on what is left."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            stack += [f, m // f]
    return dict(sorted(factors.items()))


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A root of x^2 = a mod the prime p, or None: Tonelli–Shanks."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    t = (p - 1) >> s
    z = next(z for z in itertools.count(2) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, x, b = s, pow(z, t, p), pow(a, (t + 1) // 2, p), pow(a, t, p)
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            b2 = b2 * b2 % p
            i += 1
        f = pow(c, 1 << (m - i - 1), p)
        m, c = i, f * f % p
        x, b = x * f % p, b * c % p
    return x


def sqrt_mod(a: int, m: int) -> int | None:
    """A root of x^2 = a mod the squarefree m != 0, or None if there is none.

    The root sympy's sqrt_mod returns: the ascending roots mod each prime
    are combined by CRT in itertools.product order, and the first
    combination r != m // 2 gives min(r, m - r); r = m // 2 only when it is
    the only root. (sympy walks another order when gcd(a, m) > 1, but then
    the first combination is m // 2 only if it is the only root.)
    """
    m = abs(m)
    factors = factorize(m)
    if any(e > 1 for e in factors.values()):
        raise ValueError(f"{m} is not squarefree")
    lists, coeffs = [], []
    for p in factors:
        r = _sqrt_mod_prime(a, p)
        if r is None:
            return None
        lists.append(sorted({r, -r % p}))
        cofactor = m // p
        coeffs.append(cofactor * pow(cofactor, -1, p))
    half = m // 2
    found = None
    for combo in itertools.product(*lists):
        r = sum(x * e for x, e in zip(combo, coeffs)) % m
        if r < half:
            return r
        if r > half:
            return m - r
        found = r
    return found


def ldescent(a: int, b: int) -> tuple[int, int, int] | None:
    """(w, x, y) != 0 with w^2 = a x^2 + b y^2, for squarefree a, b != 0, or
    None if there is none.

    Lagrange's descent (Cremona–Rusin, Math. Comp. 72, 2003), step for step
    as sympy's ldescent so that the solution is the same: with |a| <= |b|,
    r = sqrt_mod(a, b) and r^2 - a = b Q; then a solution of
    w^2 = a x^2 + B0 y^2, with B0 the least divisor of Q (signed like Q)
    leaving a square Q / B0 = d^2, gives one of the original equation.
    """
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero")
    if abs(a) > abs(b):
        sol = ldescent(b, a)
        return None if sol is None else (sol[0], sol[2], sol[1])
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    if b == -1:
        return None
    r = sqrt_mod(a, b)
    if r is None:
        return None
    q = (r * r - a) // b
    if q == 0:
        return r, -1, 0
    b0 = squarefree_part(q)
    d = math.isqrt(q // b0)
    sol = ldescent(a, b0)
    if sol is None:
        return None
    w, x, y = sol
    out = (-a * x + r * w, r * x - w, y * b0 * d)
    g = math.gcd(*out)
    return out if g == 1 else tuple(v // g for v in out)


def prime_support(n: int) -> frozenset[int]:
    """Primes dividing the nonzero integer n."""
    if n == 0:
        raise ValueError("zero has no prime support")
    return frozenset(factorize(n))


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("zero has infinite valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def squarefree_part(n: int) -> int:
    """The signed squarefree integer in the square class of the nonzero n."""
    if n == 0:
        raise ValueError("zero has no square class")
    out = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


def product_square_class(values, primes) -> int:
    """squarefree_part of the product of the nonzero integers `values`,
    given primes that include every prime dividing one of them: each prime
    with an odd valuation sum is a factor, so no product is factored."""
    out = -1 if sum(v < 0 for v in values) % 2 else 1
    for p in primes:
        if sum(valuation(v, p) for v in values) % 2:
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
    a, b = p, _sqrt_mod_prime(p - 1, p)
    while b > root:
        a, b = b, a % b
    c = math.isqrt(p - b * b)
    if b * b + c * c != p:
        raise InternalInconsistencyError(f"Hermite–Serret misses {p}")
    return min(b, c), max(b, c)


def four_squares(n: int) -> list[int]:
    """At most four positive integers, descending, whose squares sum to
    n >= 0, found without factoring n: the same list on every call.

    n = 4^k m with 4 not dividing m, and each root is 2^k times one for m:
    three squares when the scan of _three_squares finds them (it may
    unless m = 7 (mod 8), by Gauss–Legendre), otherwise y^2 plus three
    squares for the largest y whose remainder the scan splits.
    Rabin–Shallit, "Randomized algorithms in number theory", CPAM 39
    (1986), with the candidates taken in a fixed order instead of at
    random."""
    if n < 0:
        raise PreconditionError(f"{n} is negative")
    if n == 0:
        return []
    k = ((n & -n).bit_length() - 1) // 2
    m = n >> 2 * k
    roots = _three_squares(m)
    if roots is None:
        roots = next((r + [y] for y in range(math.isqrt(m), 0, -1)
                      if (r := _three_squares(m - y * y)) is not None), None)
    if roots is None:
        raise InternalInconsistencyError(f"no sum of four squares found for {n}")
    return sorted((r << k for r in roots if r), reverse=True)


def _three_squares(n: int) -> list[int] | None:
    """Roots, zeros included, of at most three squares summing to n >= 0,
    or None. n = 4^k m with 4 not dividing m, and each root is 2^k times
    one for m: a square m is one root; for m not 7 (mod 8), x runs down
    from isqrt(m) with the parity leaving r = m - x^2 = 1 (mod 4) or
    2 (mod 8) until r or r / 2 is a square or a prime (then 1 (mod 4), split
    by two_squares), with 2(a^2 + b^2) = (a + b)^2 + (a - b)^2."""
    if n == 0:
        return []
    k = ((n & -n).bit_length() - 1) // 2
    m = n >> 2 * k
    root = math.isqrt(m)
    if root * root == m:
        return [root << k]
    if m % 8 == 7:
        return None
    parity = 0 if m % 4 == 1 else 1  # x even for m = 1 (mod 4), odd for m = 2, 3
    for x in range(root - (root - parity) % 2, -1, -2):
        r = m - x * x
        half = r if r & 1 else r >> 1
        h = math.isqrt(half)
        if h * h == half:
            a, b = 0, h
        elif is_prime(half):
            a, b = two_squares(half)
        else:
            continue
        return [c << k for c in ([x, a, b] if r & 1 else [x, b + a, b - a])]
    return None
