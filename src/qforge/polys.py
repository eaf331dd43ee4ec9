"""Integer polynomials as tuples of ascending coefficients."""
from __future__ import annotations

import functools

from .errors import InternalInconsistencyError, PreconditionError
from .intmath import factorize

Poly = tuple[int, ...]


def trim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f: Poly) -> int:
    return len(f) - 1


def is_monic(f: Poly) -> bool:
    return bool(f) and f[-1] == 1


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Division by a monic divisor stays in Z[x]."""
    if not is_monic(g):
        raise PreconditionError("divisor must be monic")
    rem = list(f)
    dg = degree(g)
    q = [0] * max(len(f) - dg, 1)
    while len(trim(rem)) - 1 >= dg:
        rem = list(trim(rem))
        shift = len(rem) - 1 - dg
        c = rem[-1]
        q[shift] = c
        for i, b in enumerate(g):
            rem[shift + i] -= c * b
    return trim(q), trim(rem)


def poly_eval(f: Poly, x):
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def euler_phi(m: int) -> int:
    out = m
    for p in factorize(m):
        out = out // p * (p - 1)
    return out


@functools.lru_cache(maxsize=1024)  # a parabolic benchmark round peaks at 9 entries
def cyclotomic(m: int) -> Poly:
    """The m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    f: Poly = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            f, r = poly_divmod(f, cyclotomic(d))
            if r != ():
                raise InternalInconsistencyError(f"Phi_{d} does not divide x^{m} - 1")
    return f


def cyclotomic_candidates(n: int) -> list[int]:
    """All m with euler_phi(m) <= n."""
    return [m for m in range(1, 2 * n * n + 4) if euler_phi(m) <= n]


def strip_cyclotomic(f: Poly) -> tuple[Poly, dict[int, int]]:
    """Divide out all cyclotomic factors; return (remainder, {m: multiplicity}).

    The remainder is 1 exactly when every root of f is a root of unity
    (Kronecker), since a monic integer irreducible with all roots on the
    unit circle is cyclotomic.
    """
    if not is_monic(f):
        raise PreconditionError("expected a monic polynomial")
    found: dict[int, int] = {}
    rest = f
    for m in cyclotomic_candidates(degree(f)):
        phi_m = cyclotomic(m)
        while degree(rest) >= degree(phi_m):
            q, r = poly_divmod(rest, phi_m)
            if r != ():
                break
            found[m] = found.get(m, 0) + 1
            rest = q
    return rest, found
