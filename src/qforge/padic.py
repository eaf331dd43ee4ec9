"""Hilbert symbols, the complete rational-equivalence invariant, and
isotropic vectors over Q built from them.

A place is a prime number or INF (the real place). The invariant triple
(signature, discriminant square class, set of places with local signature
-1) classifies non-degenerate quadratic forms over Q up to equivalence.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .errors import InternalInconsistencyError, PreconditionError
from .intmath import (
    factorize,
    is_prime,
    ldescent,
    prime_support,
    primes_from,
    product_square_class,
    squarefree_part,
    valuation,
)
from .lattice import QuadLattice, from_rows, rational_diagonalize
from .linalg import (
    bilinear,
    det_bareiss,
    left_kernel,
    lll_gram,
)

INF = float("inf")

Place = float | int  # a prime, or INF


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p; 0 iff p | a."""
    if p == 2 or not is_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _eps2(u: int) -> int:
    """(u - 1)/2 mod 2 for an odd residue u."""
    return ((u % 8) - 1) // 2 % 2


def _omega2(u: int) -> int:
    """(u^2 - 1)/8 mod 2 for an odd residue u."""
    return ((u % 8) ** 2 - 1) // 8 % 2


def _class_int(x: Fraction | int) -> int:
    """The integer n d in the square class of the rational n / d, d > 0."""
    return x.numerator * x.denominator


@functools.lru_cache(maxsize=1024)  # a parabolic benchmark round peaks at 296 entries
def hilbert_symbol(a: Fraction | int, b: Fraction | int, place: Place) -> int:
    """+1 iff a x^2 + b y^2 = z^2 has a nonzero solution locally at place.

    The symbol depends only on the square classes of a and b, so each is
    read as an integer (_class_int) and every valuation is >= 0."""
    a, b = _class_int(a), _class_int(b)
    if a == 0 or b == 0:
        raise PreconditionError("Hilbert symbol needs nonzero arguments")
    if place == INF:
        return -1 if a < 0 and b < 0 else 1
    p = int(place)
    if not is_prime(p):
        raise PreconditionError(f"{p} is not a prime")
    alpha, beta = valuation(a, p), valuation(b, p)
    u, v = a // p**alpha, b // p**beta
    if p != 2:
        eps = (p - 1) // 2 % 2
        sign = (-1) ** (alpha * beta * eps)
        return sign * legendre(u, p)**beta * legendre(v, p)**alpha
    expo = _eps2(u) * _eps2(v) + alpha * _omega2(v) + beta * _omega2(u)
    return (-1) ** (expo % 2)


def symbol_support(*values) -> list[Place]:
    """Places outside which every Hilbert symbol of two of the nonzero
    rationals `values` is +1: 2, their prime supports, and INF."""
    places: set = {2}
    for x in values:
        places.update(prime_support(_class_int(x)))
    return sorted(places) + [INF]


def is_local_square(x: Fraction | int, place: Place) -> bool:
    x = _class_int(x)
    if x == 0:
        raise PreconditionError("zero is not classified")
    if place == INF:
        return x > 0
    p = int(place)
    v = valuation(x, p)
    if v % 2 != 0:
        return False
    u = x // p**v
    if p == 2:
        return u % 8 == 1
    return legendre(u, p) == 1


# ---------------------------------------------------------------------------
# The invariant triple


class InvariantTriple(namedtuple("InvariantTriple", "signature disc minus_places")):
    """Complete invariant of a non-degenerate form over Q: the signature
    (r, s), disc the signed squarefree representative of the discriminant
    class, and minus_places the sorted tuple of places with local
    signature -1."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.signature[0] + self.signature[1]


def _diag_of(form) -> tuple[list[int], set[int]]:
    """A rational diagonal of form (a QuadLattice, read off its cached
    pivots; a Gram matrix, off those of QuadLattice(gram); or a diagonal
    list of rationals), each entry as its _class_int, and 2 with the primes
    of every entry. The numerator and the denominator are factored apart:
    their product may be out of reach where each is not."""
    diag = form
    if isinstance(form, QuadLattice) or form and isinstance(form[0], (list, tuple)):
        minors, _ = (form if isinstance(form, QuadLattice) else from_rows(form)).pivots
        diag = list(map(Fraction, minors, (1, *minors[:-1])))  # D_{k+1} / D_k
    if any(d == 0 for d in diag):
        raise PreconditionError("form is degenerate")
    primes = {2}
    for d in diag:
        primes |= prime_support(d.numerator) | prime_support(d.denominator)
    return [_class_int(d) for d in diag], primes


def _triple(diag: list[int], primes) -> InvariantTriple:
    """The invariant triple of the nonzero integer diagonal diag, given
    primes that include 2 and every prime dividing one of its entries."""
    pos = sum(1 for d in diag if d > 0)
    return InvariantTriple(
        signature=(pos, len(diag) - pos),
        disc=product_square_class(diag, primes),
        minus_places=tuple(place for place in sorted(primes) + [INF]
                           if hasse_invariant(diag, place) == -1),
    )


def invariant_triple(form) -> InvariantTriple:
    """form: QuadLattice, Gram matrix, or a diagonal list of rationals."""
    return _triple(*_diag_of(form))


def hasse_invariant(diag, place: Place) -> int:
    """The product of the Hilbert symbols (a_i, a_j), i < j, at the place.

    The symbol is bilinear (Serre, A Course in Arithmetic, ch. III, thm. 2),
    so the product is that of (a_1 ... a_{j-1}, a_j) over j: n - 1 symbols,
    not n (n - 1) / 2."""
    prefixes = itertools.accumulate(diag, mul)
    return math.prod(hilbert_symbol(c, a, place) for c, a in zip(prefixes, diag[1:]))


def rationally_equivalent(f1, f2) -> bool:
    t1 = invariant_triple(f1)
    t2 = invariant_triple(f2)
    if t1.rank != t2.rank:
        raise PreconditionError("forms have different ranks")
    return t1 == t2


# ---------------------------------------------------------------------------
# Prescribed Hilbert symbols


def _gf2_solve(rows: list[list[int]], rhs: list[int], nvars: int) -> list[int] | None:
    """Solve a linear system over GF(2); free variables set to 0.

    Rows are bit masks with the right-hand side at bit nvars, kept fully
    reduced: each pivot variable is set in its own row only."""
    reduced: dict[int, int] = {}  # pivot variable -> row
    for row, r in zip(rows, rhs):
        vec = sum(bit << i for i, bit in enumerate(row)) | (r << nvars)
        for var, prow in reduced.items():
            if vec >> var & 1:
                vec ^= prow
        low = vec & ((1 << nvars) - 1)
        if not low:
            if vec:
                return None
            continue
        lead = (low & -low).bit_length() - 1
        for var, prow in reduced.items():
            if prow >> lead & 1:
                reduced[var] = prow ^ vec
        reduced[lead] = vec
    return [reduced[var] >> nvars & 1 if var in reduced else 0 for var in range(nvars)]


def solve_prescribed_hilbert(
    x: Fraction | int,
    targets: dict[Place, int],
    sign: int | None = None,
) -> int:
    """A nonzero integer y with (x, y) = targets[place] at every place,
    +1 at unspecified places, and optionally a forced sign.

    y is a product of -1, 2, the primes of x and of the targets, and at most
    one auxiliary prime: none, then 3, 5, 7, ... outside those; the exponents
    solve a linear system over GF(2). Such a y exists once the targets
    multiply to +1, x is not a local square where -1 is prescribed, and the
    sign agrees with the target at the real place (Serre, A Course in
    Arithmetic, ch. III, thm. 4: CRT for the base places, Dirichlet for the
    auxiliary prime, the product formula at it). Each of the three is
    checked first (PreconditionError), so the loop ends. y is re-verified
    symbol by symbol before it is returned.
    """
    x = _class_int(x)
    if x == 0:
        raise PreconditionError("x must be nonzero")
    for place, delta in targets.items():
        if delta not in (1, -1):
            raise PreconditionError(f"target at {place} must be +-1")
        if place != INF and not is_prime(int(place)):
            raise PreconditionError(f"{place} is not a prime")
        if delta == -1 and is_local_square(x, place):
            raise PreconditionError(f"x is a local square at {place}; (x, .) cannot be -1 there")
    if math.prod(targets.values()) != 1:
        raise PreconditionError("product of prescribed symbols must be +1")
    if sign is not None and hilbert_symbol(x, sign, INF) != targets.get(INF, 1):
        raise PreconditionError(
            f"(x, y) at the real place cannot be {targets.get(INF, 1)} with y of sign {sign}")

    base_primes = sorted(set(prime_support(x)) | {2} |
                         {int(p) for p in targets if p != INF})
    auxiliaries = (q for q in primes_from(3) if q not in base_primes)
    for aux in itertools.chain([None], auxiliaries):
        gens: list = [-1] + base_primes + ([aux] if aux else [])
        places: list[Place] = sorted(set(base_primes) | ({aux} if aux else set())) + [INF]
        rows = [[int(hilbert_symbol(x, g, place) == -1) for g in gens] for place in places]
        rhs = [int(targets.get(place, 1) == -1) for place in places]
        if sign is not None:
            rows.append([1] + [0] * (len(gens) - 1))
            rhs.append(int(sign < 0))
        sol = _gf2_solve(rows, rhs, len(gens))
        if sol is None:
            continue
        y = math.prod(g for g, e in zip(gens, sol) if e)
        if any(hilbert_symbol(x, y, place) != targets.get(place, 1) for place in places):
            raise InternalInconsistencyError(f"y = {y} misses a prescribed Hilbert symbol")
        return y


# ---------------------------------------------------------------------------
# Isotropic vectors: Hasse-Minkowski made explicit


def _locally_isotropic(diag, place: Place) -> bool:
    """Whether <a_1, ..., a_k> (nonzero rationals) has a nonzero zero over Q_v
    (Serre, A Course in Arithmetic, ch. IV, thm. 6)."""
    k = len(diag)
    if place == INF:
        return any(a > 0 for a in diag) and any(a < 0 for a in diag)
    if k >= 5:
        return True
    if k == 4 and not is_local_square(math.prod(diag), place):
        return True
    if k == 2:
        return is_local_square(-diag[0] * diag[1], place)
    if k == 3:
        a, b, c = diag
        return hilbert_symbol(-a * c, -b * c, place) == 1
    return k == 4 and hasse_invariant(diag, place) == hilbert_symbol(-1, -1, place)


def _obstruction(diag) -> Place | None:
    """A place where the diagonal form is anisotropic, None if there is none
    (then it is isotropic over Q)."""
    return next((v for v in symbol_support(*diag) if not _locally_isotropic(diag, v)), None)


def _conic(a: int, b: int, c: int) -> list[int]:
    """(x, y, z) != 0, primitive and with entries >= 0, such that
    a x^2 + b y^2 + c z^2 = 0, by Lagrange descent on z^2 = A X^2 + B Y^2
    (intmath.ldescent; the caller has checked solvability, so a None from
    it is an inconsistency)."""
    big_a, big_b = squarefree_part(-a * c), squarefree_part(-b * c)
    m_a, m_b = math.isqrt(-a * c // big_a), math.isqrt(-b * c // big_b)
    solution = ldescent(big_a, big_b)
    if solution is None:
        raise InternalInconsistencyError(f"z^2 = {big_a} X^2 + {big_b} Y^2 has no solution")
    z, x, y = solution
    # -a/c = A (m_a / c)^2, so x = c X / m_a and y = c Y / m_b
    return [abs(v) for v in _primitive([Fraction(c * x, m_a), Fraction(c * y, m_b), Fraction(z)])]


def _common_value(h: list[int], g: list[int]) -> int:
    """The squarefree t of least |t| (positive first) with t represented by
    the binary h and -t by g over Q, for an isotropic h + g.

    At each place v of h + g, whether h represents t and g represents -t
    depends only on the square class of t, so the admitted classes are
    listed once. At a prime l of t outside those places the forms have unit
    coefficients: h + <-t> is isotropic there iff -h1 h2 is a square mod l,
    and g + <t> iff -g1 g2 is when g is binary (always when it is larger).
    A t exists: fix an admitted class at each place, assemble t from them by
    CRT times one prime of the resulting progression (Dirichlet), and at
    that prime the product formula forces the symbols to +1 (Serre, ch. III,
    thm. 4). So the scan ends.
    """
    places, admitted = _admitted_classes(h, g)
    splits = [-h[0] * h[1]] + ([-g[0] * g[1]] if len(g) == 2 else [])
    t = _least_admitted(places, admitted, splits)
    if _obstruction(h + [-t]) is not None or _obstruction(g + [t]) is not None:
        raise InternalInconsistencyError(f"the common value {t} is not represented")
    return t


_SIEVE_START = 1 << 12  # below this, t one by one: no mask is built
_SIEVE_BLOCK = 1 << 16  # magnitudes per block
_SIEVE_PRIME = 1 << 18  # largest place sieved


def _least_admitted(places, admitted, splits=()) -> int:
    """The first t of _admitted_values(places, admitted) that is squarefree
    and at whose primes outside places every d of splits is a square. The
    caller knows that one exists, so the scan ends."""
    def works(t: int) -> bool:
        factors = factorize(t)
        return all(e == 1 for e in factors.values()) and all(
            legendre(d, q) == 1 for q in factors if q not in places for d in splits)

    return next(t for t in _admitted_values(places, admitted) if works(t))


def _admitted_classes(h: list[int], g: list[int]) -> tuple[list, dict]:
    """The places of h + g, and at each the square classes of the t with h
    representing t and g representing -t there."""
    places = symbol_support(*h, *g)
    return places, {v: {c for c in _square_classes(v)
                        if _locally_isotropic(h + [-c], v) and _locally_isotropic(g + [c], v)}
                    for v in places}


def _admitted_values(places, admitted):
    """The t = 1, -1, 2, -2, ..., in that order, whose square class at each
    place is admitted. From _SIEVE_START on, blocks are sieved: the class at
    2 depends only on t mod 16, and at an odd p not dividing t only on t mod
    p, so those places give periodic masks; the classes at larger places,
    and at a sieved p dividing t, are then checked one by one."""
    def fits(t, where):
        return all(_square_class(t, v) in admitted[v] for v in where)

    for k in range(1, _SIEVE_START):
        yield from (t for t in (k, -k) if fits(t, places))
    masks = []
    for v in places:
        if v == 2:
            keep = bytes(_square_class(r, 2) in admitted[2] for r in range(16))
        elif v != INF and v <= _SIEVE_PRIME:
            squares = bytearray(v)
            for x in range(1, v // 2 + 1):
                squares[x * x % v] = 1
            keep = bytearray(squares.translate(
                bytes([_nonresidue(v) in admitted[v], 1 in admitted[v]]) + bytes(254)))
            keep[0] = 1  # p | t: checked one by one
        else:
            continue
        masks.append((len(keep), bytes(keep), bytes(keep[:1] + keep[:0:-1])))
    rest = [v for v in places if v != INF and v > _SIEVE_PRIME]
    odd = [m for m, *_ in masks if m != 16]
    signs = [_square_class(sign, INF) in admitted[INF] for sign in (1, -1)]
    size = _SIEVE_BLOCK
    start = _SIEVE_START
    while True:
        merged = bytearray(2 * size)  # 2i: start + i, 2i + 1: -(start + i)
        for half, wanted in enumerate(signs):
            if not wanted:
                continue
            acc = int.from_bytes(b"\1" * size, "little")
            for m, *tables in masks:
                table, o = tables[half], start % m
                acc &= int.from_bytes((table[o:] + table * (size // m + 1))[:size], "little")
            merged[half::2] = acc.to_bytes(size, "little")
        i = merged.find(1)
        while i >= 0:
            t = -(start + i // 2) if i % 2 else start + i // 2
            if fits(t, rest) and fits(t, [p for p in odd if t % p == 0]):
                yield t
            i = merged.find(1, i + 1)
        start += size


def _square_classes(place: Place) -> tuple[int, ...]:
    """Squarefree integers representing the classes of Q_v* / Q_v*^2."""
    if place == INF:
        return (1, -1)
    if place == 2:
        return (1, 3, 5, 7, 2, 6, 10, 14)
    return (1, _nonresidue(place), place, _nonresidue(place) * place)


def _square_class(t: int, place: Place) -> int:
    """The member of _square_classes(place) in the class of a squarefree t."""
    if place == INF:
        return 1 if t > 0 else -1
    p = int(place)
    e = 1 if t % p == 0 else 0
    unit = t // p**e
    if p == 2:
        return unit % 8 * 2**e
    return (1 if pow(unit, (p - 1) // 2, p) == 1 else _nonresidue(p)) * p**e  # Euler


@functools.lru_cache(maxsize=1024)
def _nonresidue(p: int) -> int:
    return next(r for r in range(2, p) if legendre(r, p) == -1)


def _diagonal_zero(diag: list[int]) -> list[int]:
    """Nonzero integer zero of an isotropic form <a_1, ..., a_k> with
    squarefree integer entries: the conic for k = 3, and for k >= 4 the
    split <a_1, a_2> + <a_3, ..., a_k> along a common value t."""
    if len(diag) == 2:
        return [1, 1]  # -a1 a2 is a square and both are squarefree: a2 = -a1
    if len(diag) == 3:
        return _conic(*diag)
    h, g = diag[:2], diag[2:]
    t = _common_value(h, g)
    x, y, z = _conic(h[0], h[1], -t)
    if z == 0:
        return [x, y] + [0] * len(g)
    *u, s = _diagonal_zero(g + [t])
    if s == 0:
        return [0, 0] + u
    return [s * x, s * y] + [z * c for c in u]


def _primitive(vec) -> list[int]:
    """The primitive integer vector on the line of a rational vector, with
    its first nonzero entry positive."""
    den = math.lcm(*(c.denominator for c in vec))
    ints = [int(c * den) for c in vec]
    g = math.gcd(*ints)
    if next(c for c in ints if c) < 0:
        g = -g
    return [c // g for c in ints]


def _isotropic_subform(entries) -> list[int] | None:
    """Indices of the isotropic subform of a diagonal form with the fewest
    entries, then the smallest largest entry; None if there is none. Any
    five entries of both signs form one (Meyer), so subsets stop at five."""
    subsets = (c for k in range(2, min(len(entries), 5) + 1)
               for c in itertools.combinations(range(len(entries)), k))
    ranked = sorted(subsets, key=lambda c: (len(c), max(abs(entries[i]) for i in c), c))
    return next((list(c) for c in ranked if _obstruction([entries[i] for i in c]) is None), None)


def isotropic_vector(gram) -> tuple[int, ...]:
    """Primitive integer x != 0 with x^T G x = 0, for an integer symmetric G.

    Constructed, not searched: the first basis vector with G_ii = 0, else a
    radical vector; else, in an indefinite-LLL reduced basis, a vector the
    reduction meets, a zero of the first isotropic 2x2 principal block, or
    a zero of at most five entries of a rational diagonalization (Legendre
    descent and common-value splitting). Raises PreconditionError naming a
    place where the form is anisotropic when it has no zero over Q.
    """
    x = isotropic_or_obstruction(gram)
    if not isinstance(x, tuple):
        where = "the real place" if x == INF else f"{x}"
        raise PreconditionError(f"the form is anisotropic at {where}")
    return x


def isotropic_or_obstruction(gram) -> tuple[int, ...] | Place:
    """isotropic_vector's x, or a place where the form is anisotropic, for
    an integer symmetric G."""
    n = len(gram)
    if n == 0:
        raise PreconditionError("a form of rank 0 has no nonzero vector")
    for i in range(n):
        if gram[i][i] == 0:
            return tuple(int(i == j) for j in range(n))
    content = math.gcd(*(x for row in gram for x in row)) or 1
    g = [[x // content for x in row] for row in gram]
    h, reduced, x = lll_gram(g)
    if x is not None:
        # the reduction met a vanishing minor, as it does on every degenerate g
        x = tuple(_primitive(left_kernel(g)[0] if det_bareiss(g) == 0 else x))
    else:
        x = _zero_of_reduced(reduced)
        if not isinstance(x, list):
            return x
        x = tuple(_primitive([sum(c * row[j] for c, row in zip(x, h)) for j in range(n)]))
    if bilinear(gram, x, x) != 0:
        raise InternalInconsistencyError(f"constructed x = {x} is not isotropic")
    return x


def _zero_of_reduced(g) -> list | Place:
    """A rational zero of the reduced integer Gram g, in its coordinates, or
    a place where the form is anisotropic."""
    n = len(g)
    for i in range(n):
        if g[i][i] == 0:
            return [int(i == j) for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = g[i][i], g[i][j]
            s = math.isqrt(max(b * b - a * g[j][j], 0))
            if s * s == b * b - a * g[j][j]:  # a x^2 + 2 b x y + c y^2 vanishes at (s - b, a)
                return [(k == i) * (s - b) + (k == j) * a for k in range(n)]
    diag, basis = rational_diagonalize(g)
    if n > 4 and len({d > 0 for d in diag}) == 1:
        return INF  # definite: no need for the square classes
    entries = [squarefree_part(_class_int(d)) for d in diag[:8]]
    chosen = _isotropic_subform(entries)
    if chosen is None:
        other = next((i for i in range(8, n) if (diag[i] > 0) != (diag[0] > 0)), None)
        if other is None:  # definite, or anisotropic of rank at most four
            return _obstruction(entries) if n <= 4 else INF
        # the first eight entries share a sign: four of them and one of the other sign
        chosen = [0, 1, 2, 3, other]
        entries = [squarefree_part(_class_int(diag[i])) for i in chosen]
    else:
        entries = [entries[i] for i in chosen]
    y = [Fraction(0)] * n
    for i, a, z in zip(chosen, entries, _diagonal_zero(entries)):
        ratio = diag[i] / a  # a rational square r^2, and diag_i (z / r)^2 = a z^2
        y[i] = z * Fraction(math.isqrt(ratio.denominator), math.isqrt(ratio.numerator))
    return [sum(row[k] * y[k] for k in chosen) for row in basis]
