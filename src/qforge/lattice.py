"""Integer quadratic lattices and exact structural operations.

A lattice is Z^n with an integer symmetric Gram matrix; q(x) = x^T G x and
the pairing is b(x, y) = x^T G y. Everything here is a pure function of
immutable values, computed in exact arbitrary-precision arithmetic.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import InternalInconsistencyError, PreconditionError, SearchExhaustedError
from .intmath import is_square
from .linalg import left_kernel, mat_mul, transpose

Vector = tuple[int, ...]

ENUM_BUDGET = 100_000_000  # vectors a box enumeration may visit by default


class QuadLattice(namedtuple("QuadLattice", "gram label", defaults=(None,))):
    """Free abelian group of finite rank with an integer Gram matrix. No
    __slots__, so that the cached properties have an instance __dict__."""

    def __new__(cls, gram: tuple[tuple[int, ...], ...], label: str | None = None):
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise PreconditionError("gram matrix must be square")
        if list(zip(*gram)) != list(map(tuple, gram)):
            raise PreconditionError("gram matrix must be symmetric")
        return super().__new__(cls, gram, label)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return linalg.det_bareiss(self.gram)

    @functools.cached_property
    def pivots(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(minors, cols) of the congruent diagonalization _diagonal_pivots,
        formed once per lattice: the one place the package eliminates a
        Gram. Every step is a unimodular congruence, so minors[-1] is
        det G; PreconditionError when G is degenerate."""
        minors, cols = _diagonal_pivots(self.gram)
        return tuple(minors), linalg.freeze(cols)

    @property
    def positive(self) -> tuple[bool, ...]:
        """Whether diagonal entry k of the pivots, D_{k+1} / D_k with
        D_0 = 1, is positive: it has the sign of D_{k+1} D_k."""
        minors, _ = self.pivots
        return tuple((m > 0) == (d > 0) for m, d in zip(minors, (1, *minors[:-1])))

    @functools.cached_property
    def diagonal(self) -> tuple[int, ...] | None:
        """The Gram's diagonal when no other entry is nonzero, else None."""
        if any(x for i, row in enumerate(self.gram) for j, x in enumerate(row) if i != j):
            return None
        return tuple(row[i] for i, row in enumerate(self.gram))

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def __repr__(self):
        name = self.label or f"rank-{self.rank} lattice"
        return f"QuadLattice({name})"


def from_rows(rows, label: str | None = None) -> QuadLattice:
    return QuadLattice(linalg.freeze(rows), label=label)


def diag_lattice(*entries: int, label: str | None = None) -> QuadLattice:
    n = len(entries)
    return QuadLattice(
        tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)),
        label=label,
    )


def direct_sum(*lattices: QuadLattice, label: str | None = None) -> QuadLattice:
    n = sum(latt.rank for latt in lattices)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for latt in lattices:
        for i in range(latt.rank):
            for j in range(latt.rank):
                rows[off + i][off + j] = latt.gram[i][j]
        off += latt.rank
    return from_rows(rows, label=label)


def rescale(latt: QuadLattice, c: int, label: str | None = None) -> QuadLattice:
    return from_rows([[c * x for x in row] for row in latt.gram], label=label)


class Sublattice(namedtuple("Sublattice", "ambient basis")):
    """Span of linearly independent vectors inside an ambient lattice. The
    basis is taken as independent, not checked: every caller makes it so,
    and a basis read from outside goes through linalg.saturation, which
    rejects dependent rows."""

    def __new__(cls, ambient: QuadLattice, basis: tuple[Vector, ...]):
        for v in basis:
            if len(v) != ambient.rank:
                raise PreconditionError("basis vector length != ambient rank")
        return super().__new__(cls, ambient, basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> tuple[tuple[int, ...], ...]:
        return self._lattice.gram

    @functools.cached_property
    def _lattice(self) -> QuadLattice:
        return QuadLattice(gram_of(self.ambient, self.basis))

    def as_lattice(self) -> QuadLattice:
        """The span with its own Gram. The Gram is formed once and every call
        returns the same lattice, so that what it caches (QuadLattice.pivots)
        is shared."""
        return self._lattice

    def to_ambient(self, coords) -> Vector:
        if len(coords) != self.rank:
            raise PreconditionError("coordinate length != sublattice rank")
        n = self.ambient.rank
        out = [0] * n
        for c, v in zip(coords, self.basis):
            for i in range(n):
                out[i] += c * v[i]
        return tuple(out)


def span(ambient: QuadLattice, vectors) -> Sublattice:
    return Sublattice(ambient, linalg.freeze(vectors))


# ---------------------------------------------------------------------------
# Values and pairings


def qvalue(latt: QuadLattice, v) -> int:
    return pairing(latt, v, v)


def pairing(latt: QuadLattice, u, v) -> int:
    n = latt.rank
    if len(u) != n or len(v) != n:
        raise PreconditionError("vector length != lattice rank")
    if latt.diagonal is not None:
        return sum(map(mul, u, map(mul, latt.diagonal, v)))
    return linalg.bilinear(latt.gram, u, v)


def gram_apply(latt: QuadLattice, v) -> tuple[int, ...]:
    """G v; a diagonal Gram scales the entries."""
    if latt.diagonal is not None:
        return tuple(map(mul, latt.diagonal, v))
    return linalg.mat_vec(latt.gram, v)


def gram_of(latt: QuadLattice, rows) -> tuple[tuple[int, ...], ...]:
    """B G B^T for the vectors B = rows, formed as B (G B^T). A diagonal G
    scales B, and the upper triangle is mirrored; any other G is multiplied
    in by mat_mul, which skips zeros, and G B^T is formed as (B G)^T when B
    has fewer nonzeros per row than G."""
    if latt.diagonal is None:
        gram = latt.gram
        if _nonzeros(rows) * len(gram) < _nonzeros(gram) * len(rows):
            return mat_mul(rows, transpose(mat_mul(rows, gram)))
        return mat_mul(rows, mat_mul(gram, transpose(rows)))
    images = [gram_apply(latt, v) for v in rows]  # the columns of G B^T
    out = [[0] * len(rows) for _ in rows]
    for i, u in enumerate(rows):
        for j in range(i, len(rows)):
            out[i][j] = out[j][i] = sum(map(mul, u, images[j]))
    return linalg.freeze(out)


def _nonzeros(mat) -> int:
    return sum(len(row) - row.count(0) for row in mat)


# ---------------------------------------------------------------------------
# Congruent diagonalization and the signature


def _diagonal_pivots(gram):
    """Congruent diagonalization of an integer symmetric gram, in integers
    (Bareiss: the Schur complement left by each pivot is kept scaled by
    the previous leading minor, so every division is exact).

    Returns (minors, cols): minors[k] is the leading (k+1)-minor D_{k+1}
    of gram in the final basis, so diagonal entry k is D_{k+1} / D_k with
    D_0 = 1 (QuadLattice.positive reads its sign); cols[k] = D_k b_k is
    basis vector k scaled to integers. The pivot is the first
    nonzero diagonal entry among the remaining ones, else e_i + e_j for the
    first nonzero pairing b(e_i, e_j).

    Scaling is lazy: a pivot whose row has a zero in column j only scales
    row j (and, by symmetry, column j) by D_{k+1} / D_k, so row j and
    cols[j] stay held at the minor D_m of an earlier step m and are brought
    to the current D_k by one exact x * D_k // D_m when next touched. Which
    entries vanish does not depend on the scale, so neither do the pivots.
    """
    n = len(gram)
    a = linalg.thaw(gram)
    cols = [[int(i == j) for j in range(n)] for i in range(n)]
    minors = [1]  # D_0, D_1, ...
    held = [0] * n  # row j and cols[j] are held at D_{held[j]}

    def current(j, step):
        m = held[j]
        if m != step:
            d, dm = minors[step], minors[m]
            a[j][step:] = [x * d // dm for x in a[j][step:]]
            cols[j] = [x * d // dm for x in cols[j]]
            held[j] = step

    for step in range(n):
        piv = next((j for j in range(step, n) if a[j][j]), None)
        if piv is None:
            # all diagonal entries vanish; borrow a nonzero pairing
            pair = next(((i, j) for i in range(step, n) for j in range(step, n)
                         if i != j and a[i][j]), None)
            if pair is None:
                raise PreconditionError("form is degenerate")
            i, j = pair
            current(i, step)
            current(j, step)
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            cols[i] = [x + y for x, y in zip(cols[i], cols[j])]
            piv = i
        current(piv, step)
        if piv != step:
            a[step], a[piv] = a[piv], a[step]
            for row in a:
                row[step], row[piv] = row[piv], row[step]
            held[step], held[piv] = held[piv], held[step]
            cols[step], cols[piv] = cols[piv], cols[step]
        prev, p = minors[step], a[step][step]
        top = a[step][step + 1:]
        for j in range(step + 1, n):
            f = a[step][j]
            if f:
                # the symmetric update of row j is also that of column j
                current(j, step)
                a[j][step + 1:] = [(p * x - f * y) // prev for x, y in zip(a[j][step + 1:], top)]
                cols[j] = [(p * x - f * y) // prev for x, y in zip(cols[j], cols[step])]
                held[j] = step + 1
        minors.append(p)
    return minors[1:], cols


def rational_diagonalize(gram) -> tuple[list[Fraction], tuple]:
    """Congruent diagonalization over Q of an integer symmetric gram, read
    off the pivots of QuadLattice(gram).

    Returns (diag_entries, basis) with basis^T G basis == diag(entries)
    exactly.
    """
    minors, cols = from_rows(gram).pivots
    prevs = (1, *minors[:-1])
    diag = list(map(Fraction, minors, prevs))
    basis = [[Fraction(c[i], d) for c, d in zip(cols, prevs)] for i in range(len(gram))]
    return diag, linalg.freeze(basis)


def signature(latt: QuadLattice) -> tuple[int, int]:
    """(positive count, negative count) of the lattice's congruent
    diagonalization (QuadLattice.pivots)."""
    pos = sum(latt.positive)
    return pos, latt.rank - pos


# ---------------------------------------------------------------------------
# Saturation and complements


def saturate(sub: Sublattice) -> Sublattice:
    """Smallest primitive sublattice containing sub: ambient ∩ Q-span, in
    its Hermite basis (linalg.saturation)."""
    return Sublattice(sub.ambient, linalg.saturation(sub.basis)[0])


def saturation_index(sub: Sublattice) -> int:
    """Order of saturate(sub)/sub: the gcd of the maximal minors of the
    basis, read off the Hermite form of its columns (linalg.saturation)."""
    return linalg.saturation(sub.basis)[1]


def orthogonal_complement(sub: Sublattice) -> Sublattice:
    """Saturated sublattice of everything pairing to zero with sub."""
    amb = sub.ambient
    if not sub.basis:
        return Sublattice(amb, linalg.freeze(linalg.identity(amb.rank)))
    a = mat_mul(amb.gram, transpose(sub.basis))
    rows = left_kernel(a)
    return Sublattice(amb, rows)


# ---------------------------------------------------------------------------
# Brute-force value enumeration: the universal representation oracle


def _check_budget(rank: int, height: int, budget: int) -> None:
    if height < 1:
        raise ValueError("height bound must be >= 1")
    total = (2 * height + 1) ** rank - 1
    if total > budget:
        raise SearchExhaustedError(
            f"enumeration of {total} vectors exceeds budget {budget}"
        )


def iter_box_values(latt: QuadLattice, height: int):
    """Yield (value, vector) over all nonzero vectors with max |coord| <= height,
    in lexicographic order of the coordinate tuple."""
    n = latt.rank
    gram = latt.gram
    rng = range(-height, height + 1)

    def rec(prefix: list[int], partial_rows: list[int], acc: int, i: int):
        # acc = q on prefix; partial_rows[j] = 2 * b(prefix, e_j) for j >= i
        if i == n:
            if any(prefix):
                yield acc, tuple(prefix)
            return
        gii = gram[i][i]
        row = gram[i]
        for x in rng:
            if i + 1 == n:
                if x or any(prefix):
                    yield acc + x * (partial_rows[i] + gii * x), tuple(prefix) + (x,)
            else:
                new_acc = acc + x * (partial_rows[i] + gii * x)
                new_partial = partial_rows[:]
                if x:
                    for j in range(i + 1, n):
                        new_partial[j] += 2 * x * row[j]
                yield from rec(prefix + [x], new_partial, new_acc, i + 1)

    yield from rec([], [0] * n, 0, 0)


def enumerate_values(
    latt: QuadLattice, height: int, budget: int = ENUM_BUDGET
) -> dict[int, Vector]:
    """All attained q-values with one witness each (first in lexicographic
    order). Errors out rather than truncating when over budget."""
    _check_budget(latt.rank, height, budget)
    out: dict[int, Vector] = {}
    for value, vec in iter_box_values(latt, height):
        if value not in out:
            out[value] = vec
    return out


def min_nonzero_abs(latt: QuadLattice, height: int) -> tuple[int | None, Vector | None]:
    """Minimum |q| over the nonzero vectors of a binary lattice with both
    coordinates in [-height, height], with its lexicographically first
    witness: the --verify cross-check of binary_cycle's minimum.

    Row x of the box is the quadratic f(y) = c y^2 + 2bx y + a x^2. Its
    real roots x(-b ± sqrt(b^2 - ac))/c and its vertex -bx/c cut
    [-height, height] into runs on which |f| is strictly monotone, so the
    row's least nonzero |f| lies at ±height or within one of the floor of
    a root or of the vertex (one step past a root that is an integer). As
    q(-v) = q(v), the first witness lies in a row x <= 0, and only those
    rows are read: O(height) values in all.
    """
    if latt.rank != 2:
        raise PreconditionError("the box minimum is for binary lattices")
    (a, b), (_, c) = latt.gram
    d4 = b * b - a * c
    best = None
    witness = None
    for x in range(-height, 1):
        # the turning points of row x are (p ± sqrt(disc)) / den with den > 0;
        # beside an irrational root t the integers floor(t) and floor(t) + 1
        # are wanted, and (p - r) // den, one of the two, serves as its floor
        if c:
            p, den = (-b * x, c) if c > 0 else (b * x, -c)
            floors = [p // den]
            disc = x * x * d4
            if disc >= 0:
                r = math.isqrt(disc)
                floors += [(p + r) // den, (p - r) // den]
        else:
            floors = [-a * x // (2 * b)] if b and x else []
        ys = {-height, height}
        ys.update(y for t in floors for y in (t - 1, t, t + 1) if -height <= y <= height)
        ax2 = a * x * x
        b2x = 2 * b * x
        for y in sorted(ys):
            v = ax2 + (b2x + c * y) * y
            if v:
                av = -v if v < 0 else v
                if best is None or av < best:
                    best = av
                    witness = (x, y)
    return best, witness


# ---------------------------------------------------------------------------
# Exact value bounds: divisibility of the Gram, the reduced-form cycle


def gram_divisible_by(gram, p: int) -> bool:
    """Gram ≡ 0 mod p. For odd p this is the same as p dividing every value
    q(x), at every height: q(x) = sum G_ii x_i^2 + 2 sum_{i<j} G_ij x_i x_j."""
    return all(x % p == 0 for row in gram for x in row)



def binary_cycle(latt: QuadLattice) -> tuple[int, Vector, tuple[Vector, Vector]]:
    """Exact min |q| over Z^2 \\ 0 of an anisotropic indefinite binary
    lattice, a witness (first nonzero coordinate positive) and a proper
    automorph of infinite order, from one walk around the rho-cycle.

    With the Gram divided by its content g, the form f = (a, 2b, c) has
    non-square discriminant D > 0. Its minimum is at most sqrt(D/5)
    (Markov), below sqrt(D)/2, and every primitive value below sqrt(D)/2
    is the first coefficient of a reduced form properly equivalent to f
    (Lagrange); those forms make up the rho-cycle of f (Buchmann-Vollmer,
    Binary Quadratic Forms, ch. 6). So walking f to its cycle and once
    around it visits the minimum. The witness is the first vector of the
    walk, from f itself on, whose value attains it.

    The walk holds the current form as f(T x) with det T = 1. With T0 at
    the first reduced form and T1 one round later, f(T1 x) = f(T0 x), so
    A = T1 T0^-1 fixes f. One round is the least unit > 1 of norm +1 of
    the primitive form f / content(f), up to sign (same reference); A is
    taken with a positive trace, and then A[1][0] has the sign of a.
    """
    if latt.rank != 2:
        raise PreconditionError("binary_cycle needs a rank-2 lattice")
    (g11, g12), (_, g22) = latt.gram
    d4 = g12 * g12 - g11 * g22
    if d4 <= 0 or is_square(d4):
        raise PreconditionError("form is definite, degenerate or isotropic")
    g = math.gcd(g11, g12, g22)
    a, b, c = g11 // g, 2 * g12 // g, g22 // g
    disc = b * b - 4 * a * c
    s = math.isqrt(disc)
    # the form (a, b, c) is f(T x) for the matrix T with columns col1, col2
    col1, col2 = (1, 0), (0, 1)
    best, witness = abs(a), col1
    start = None
    while (a, b, c) != start:
        if start is None and 0 < b <= s and 2 * abs(a) - b <= s < 2 * abs(a) + b:
            start = (a, b, c)  # the first reduced form: the cycle begins here
            t0_inv = ((col2[1], -col2[0]), (-col1[1], col1[0]))  # adj T0, as det T0 = 1
        # rho: (a, b, c) -> (c, r, a - b t + c t^2), r = -b + 2 c t in the
        # normal range, -|c| < r <= |c| if |c| > sqrt(D), else (sqrt(D) - 2|c|, sqrt(D))
        top = abs(c) if abs(c) > s else s
        r = top - (top + b) % (2 * abs(c))
        t = (r + b) // (2 * c)
        a, b, c = c, r, a - b * t + c * t * t
        col1, col2 = col2, (t * col2[0] - col1[0], t * col2[1] - col1[1])
        if abs(a) < best:
            best, witness = abs(a), col1
    if witness < (0, 0):
        witness = (-witness[0], -witness[1])
    m = g * best
    if abs(qvalue(latt, witness)) != m or 5 * best * best > disc:
        raise InternalInconsistencyError(f"cycle minimum {m} at {witness} does not check")
    auto = mat_mul(((col1[0], col2[0]), (col1[1], col2[1])), t0_inv)
    if auto[0][0] + auto[1][1] < 0:
        auto = tuple(tuple(-x for x in row) for row in auto)
    # rho runs the cycle in the direction of the unit > 1: only the sign is free
    if (auto[1][0] > 0) != (g11 > 0):
        raise InternalInconsistencyError(f"a round of the cycle gave {auto}, a unit below 1")
    return m, witness, auto
