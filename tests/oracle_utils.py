"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: local solvability
is decided by exhaustive modular search, spectral questions by Sturm
sequences, isometry sets by raw enumeration, and sums of two squares by
a scan of the smaller leg.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import signal
from fractions import Fraction

from qforge.cli import _COMMANDS
from qforge.errors import PreconditionError
from qforge.lattice import ENUM_BUDGET


# ---------------------------------------------------------------------------
# Exhaustive local solvability of a x^2 + b y^2 = z^2 mod p^k over
# primitive triples, via bitmask sumsets.

_mask_cache: dict = {}


def _square_masks(coeff: int, p: int, k: int) -> tuple[int, int]:
    """(mask of coeff*x^2 mod p^k over unit x, over all x)."""
    key = (coeff % p**k, p, k)
    if key in _mask_cache:
        return _mask_cache[key]
    m = p**k
    unit_mask = 0
    all_mask = 0
    for x in range(m):
        v = coeff * x * x % m
        all_mask |= 1 << v
        if x % p:
            unit_mask |= 1 << v
    _mask_cache[key] = (unit_mask, all_mask)
    return unit_mask, all_mask


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def local_solvable(a: int, b: int, p: int, k: int) -> bool:
    """Solvability of a x^2 + b y^2 = z^2 in the p-adics, decided by
    exhaustive search over primitive triples mod p^k.

    Square factors of p are divided out of a and b first (the elementary
    substitution x -> p*x); without it the stated moduli admit spurious
    primitive solutions that do not lift, e.g. (a, b) = (-20, -16) mod 32.
    """
    while a % (p * p) == 0:
        a //= p * p
    while b % (p * p) == 0:
        b //= p * p
    m = p**k
    full = (1 << m) - 1

    def rot(mask, r):
        r %= m
        return ((mask << r) | (mask >> (m - r))) & full

    ax_u, ax_all = _square_masks(a, p, k)
    by_u, by_all = _square_masks(b, p, k)
    sq_u, sq_all = _square_masks(1, p, k)
    # x a unit
    for u in _bits(ax_u):
        if rot(by_all, u) & sq_all:
            return True
    # y a unit
    for v in _bits(by_u):
        if rot(ax_all, v) & sq_all:
            return True
    # z a unit
    for u in _bits(ax_all):
        if rot(by_all, u) & sq_u:
            return True
    return False


# ---------------------------------------------------------------------------
# Sturm sequences over Q (square-free reduction included)


def _ptrim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _pderiv(f):
    return [i * c for i, c in enumerate(f)][1:]


def _pmod(f, g):
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while len(f) >= len(g) and _ptrim(f):
        f = _ptrim(f)
        if len(f) < len(g):
            break
        coeff = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] -= coeff * c
        f = f[:-1]
    return _ptrim(f)


def _pgcd(f, g):
    f, g = _ptrim(list(f)), _ptrim(list(g))
    while g:
        f, g = g, _pmod(f, g)
    return f


def _pdiv_exact(f, g):
    # f / g exactly, over Q
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    q = [Fraction(0)] * (len(f) - len(g) + 1)
    while _ptrim(f) and len(_ptrim(f)) >= len(g):
        f = _ptrim(f)
        coeff = f[-1] / g[-1]
        shift = len(f) - len(g)
        q[shift] = coeff
        for i, c in enumerate(g):
            f[shift + i] -= coeff * c
    return _ptrim(q)


def _peval(f, x):
    out = Fraction(0)
    for c in reversed(f):
        out = out * x + c
    return out


def sturm_count_roots(poly, lo, hi) -> int:
    """Distinct real roots of poly in (lo, hi], exact."""
    f = _ptrim([Fraction(c) for c in poly])
    g = _pgcd(f, _pderiv(f))
    if len(g) > 1:
        f = _pdiv_exact(f, g)  # square-free part
    chain = [f, _ptrim(_pderiv(f))]
    while chain[-1]:
        rem = _pmod(chain[-2], chain[-1])
        chain.append([-c for c in rem])
    chain.pop()

    def changes(x):
        signs = []
        for poly_i in chain:
            v = _peval(poly_i, x)
            if v != 0:
                signs.append(1 if v > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return changes(Fraction(lo)) - changes(Fraction(hi))


def has_root_outside_unit_interval(poly) -> bool:
    """True iff poly has a real root with |x| > 1 (exact, Sturm)."""
    bound = 2 + max(abs(Fraction(c)) for c in poly)
    return (
        sturm_count_roots(poly, 1, bound) > 0
        or sturm_count_roots(poly, -bound, -1) > 0
    )


# ---------------------------------------------------------------------------
# Raw enumeration of small isometries


def enumerate_isometries(gram, bound: int):
    """All integer matrices with entries in [-bound, bound] with
    M^T G M == G, by column-wise search with orthogonality pruning.

    The pruning only discards columns that provably violate the defining
    equations, so the output equals the brute-force set.
    """
    n = len(gram)
    values = range(-bound, bound + 1)
    cols_by_norm: dict[int, list] = {}
    for col in itertools.product(values, repeat=n):
        norm = sum(col[i] * gram[i][j] * col[j] for i in range(n) for j in range(n))
        cols_by_norm.setdefault(norm, []).append(col)

    def pair(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    out = []

    def extend(cols):
        k = len(cols)
        if k == n:
            out.append(tuple(zip(*cols)))  # columns -> matrix rows
            return
        for cand in cols_by_norm.get(gram[k][k], []):
            if all(pair(cols[i], cand) == gram[i][k] for i in range(k)):
                extend(cols + [cand])

    extend([])
    return out


def matrix_order(mat, max_order: int) -> int | None:
    """Least k <= max_order with mat^k == I, else None."""
    n = len(mat)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    power = ident
    for k in range(1, max_order + 1):
        power = tuple(
            tuple(sum(power[i][t] * mat[t][j] for t in range(n)) for j in range(n))
            for i in range(n)
        )
        if power == ident:
            return k
    return None


def brute_char_poly(mat):
    """Characteristic polynomial by cofactor expansion over Fractions."""
    n = len(mat)

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = 0
        for j, head in enumerate(rows[0]):
            if head == 0:
                continue
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * head * det(minor)
        return total

    # interpolate det(xI - M) at n+1 points
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        rows = [
            [Fraction(x * int(i == j) - mat[i][j]) for j in range(n)]
            for i in range(n)
        ]
        ys.append(det(rows))
    # Lagrange interpolation to coefficients
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                new[t] -= c * xj
                new[t + 1] += c
            basis = new
            denom *= xi - xj
        for t, c in enumerate(basis):
            coeffs[t] += ys[i] * c / denom
    return tuple(int(c) for c in coeffs)


# ---------------------------------------------------------------------------
# Sums of two squares by scanning the smaller leg, O(sqrt(p))


def binary_zero_mod_p(beta1: int, beta2: int, p: int) -> tuple[int, int] | None:
    """A nonzero (x, y) mod p with beta1 x^2 + beta2 y^2 = 0 mod p, by
    enumerating all p^2 pairs; None when there is none."""
    return next(((x, y) for x in range(p) for y in range(p)
                 if (x or y) and (beta1 * x * x + beta2 * y * y) % p == 0), None)


def two_squares_scan(p: int) -> tuple[int, int] | None:
    """(a, b), a <= b, with a^2 + b^2 == p and the least such a, else None."""
    for a in range(1, math.isqrt(p // 2) + 1):
        b = math.isqrt(p - a * a)
        if a * a + b * b == p:
            return a, b
    return None


# ---------------------------------------------------------------------------
# Divisibility of every value in a box, by direct evaluation


def all_values_divisible_by(latt, p: int, height: int) -> tuple[bool, tuple | None]:
    """For a binary lattice: (True, None) if p divides q(x, y) = a x^2 + 2b xy
    + c y^2 at every (x, y) with |x|, |y| <= height, else (False, (x, y)) for
    the first one in lexicographic order where it does not."""
    (a, b), (_, c) = latt.gram
    box = range(-height, height + 1)
    for x in box:
        for y in box:
            if (a * x * x + (2 * b * x + c * y) * y) % p:
                return False, (x, y)
    return True, None


def box_min_scan(latt, height: int) -> tuple[int | None, tuple | None]:
    """For a binary lattice: the minimum |q| over the nonzero vectors with
    both coordinates in [-height, height], and the first vector in
    lexicographic order that attains it, by evaluating the whole box;
    (None, None) when every value there is 0."""
    (a, g12), (_, c) = latt.gram
    b2 = 2 * g12
    best = None
    witness = None
    for x in range(-height, height + 1):
        ax2 = a * x * x
        b2x = b2 * x
        for y in range(-height, height + 1):
            v = ax2 + (b2x + c * y) * y
            if v and (x or y):
                av = -v if v < 0 else v
                if best is None or av < best:
                    best = av
                    witness = (x, y)
    return best, witness


# ---------------------------------------------------------------------------
# The former Fraction bisection for the dominant root's interval, verbatim


def dominant_root_interval_fractions(poly):
    """isom._dominant_root_interval as it was in Fraction arithmetic: 12
    bisection steps from (1, B) or (-B, -1), B = 1 + max |c|, with p(hi)
    evaluated again at every step."""
    from qforge.errors import InternalInconsistencyError
    from qforge.polys import poly_eval

    bound = Fraction(1 + max(abs(c) for c in poly), 1)
    if poly_eval(poly, 1) < 0:
        lo, hi = Fraction(1), bound
    elif poly_eval(poly, -1) < 0:
        lo, hi = -bound, Fraction(-1)
    else:
        raise InternalInconsistencyError("the non-cyclotomic part changes sign on neither side")
    for _ in range(12):
        mid = (lo + hi) / 2
        val = poly_eval(poly, mid)
        if val == 0:
            return (mid - (hi - lo) / 4, mid + (hi - lo) / 4)
        if (val > 0) == (poly_eval(poly, hi) > 0):
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# The canonical search order of the former vector hunts, kept as a reference:
# shell by shell in increasing L1 norm; inside a shell lexicographic with
# per-coordinate value order 1, 2, ..., 0, -1, -2, ...; only sign-canonical
# vectors (first nonzero coordinate positive), optionally only primitive ones.


def iter_search_vectors(rank: int, max_l1: int, primitive_only: bool = True):
    for m in range(1, max_l1 + 1):
        yield from _shell(rank, m, primitive_only)


def _shell(rank: int, m: int, primitive_only: bool):
    def rec(prefix: list[int], i: int, remaining: int, seen: bool):
        if i == rank - 1:
            if remaining == 0:
                if seen:
                    yield tuple(prefix + [0])
            else:
                yield tuple(prefix + [remaining])
                if seen:
                    yield tuple(prefix + [-remaining])
            return
        for x in range(1, remaining + 1):
            yield from rec(prefix + [x], i + 1, remaining - x, True)
        yield from rec(prefix + [0], i + 1, remaining, seen)
        if seen:
            for x in range(1, remaining + 1):
                yield from rec(prefix + [-x], i + 1, remaining - x, True)

    for vec in rec([], 0, m, False):
        if primitive_only and math.gcd(*vec) != 1:
            continue
        yield vec


# ---------------------------------------------------------------------------
# Pell's equation by the continued fraction of sqrt(d), squaring the
# convergents h, k on every step; and the binary automorph it gives


def pell_fundamental_squaring(d: int) -> tuple[int, int]:
    """Least (x, y), y > 0, with x^2 - d y^2 = 1, testing every convergent."""
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - d * k * k != 1:
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return h, k


def pell_automorph_matrix(gram) -> tuple[tuple[int, int], tuple[int, int]]:
    """The automorph ((t - b u)/2, -c u), (a u, (t + b u)/2)) of the Gram
    [[g11, g12], [g12, g22]] divided by its content, for the solution
    (t, u) = (2x, y) of x^2 - d y^2 = 1 above, d = g12^2 - g11 g22."""
    (g11, g12), (_, g22) = gram
    g = math.gcd(g11, g12, g22)
    a, b, c = g11 // g, 2 * g12 // g, g22 // g
    x, u = pell_fundamental_squaring((b * b - 4 * a * c) // 4)
    return ((x - b * u // 2, -c * u), (a * u, x + b * u // 2))


# ---------------------------------------------------------------------------
# Isotropy of small diagonal forms over Q, from the exhaustive local search


def _ternary_locally_isotropic(a: int, b: int, c: int, p: int) -> bool:
    """a x^2 + b y^2 + c z^2 = 0 over Q_p, as (c z)^2 = (-a c) x^2 + (-b c) y^2."""
    return local_solvable(-a * c, -b * c, p, 5 if p == 2 else 3)


def _square_class_reps(p: int) -> list[int]:
    if p == 2:
        return [1, 3, 5, 7, 2, 6, 10, 14]
    u = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    return [1, u, p, u * p]


def locally_isotropic_oracle(diag: list[int], p: int) -> bool:
    """Whether <a_1, ..., a_k>, k = 3 or 4, has a nonzero zero over Q_p:
    ternary by exhaustive search mod p^k, quaternary as two binary halves
    sharing a value t from some square class."""
    if len(diag) == 3:
        return _ternary_locally_isotropic(*diag, p)
    a, b, c, d = diag
    return any(_ternary_locally_isotropic(a, b, -t, p) and _ternary_locally_isotropic(c, d, t, p)
               for t in _square_class_reps(p))


def isotropic_over_q_oracle(diag: list[int]) -> bool:
    """Hasse-Minkowski for a diagonal form of rank 2 to 4 with integer entries:
    a zero over R and over Q_p for p = 2 and every p dividing an entry."""
    if not (any(a > 0 for a in diag) and any(a < 0 for a in diag)):
        return False
    if len(diag) == 2:
        r = math.isqrt(-diag[0] * diag[1])
        return r * r == -diag[0] * diag[1]
    primes = {2} | {p for a in diag for p in range(3, abs(a) + 1)
                    if a % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1))}
    return all(locally_isotropic_oracle(diag, p) for p in primes)


def common_value_scan(h: list[int], g: list[int]) -> int:
    """padic._common_value by its former plain scan: t = 1, -1, 2, -2, ...
    checked one by one, square classes at every place first."""
    from qforge.intmath import factorize
    from qforge.padic import _admitted_classes, _square_class, legendre

    places, admitted = _admitted_classes(h, g)
    splits = [-h[0] * h[1]] + ([-g[0] * g[1]] if len(g) == 2 else [])
    t = 1
    while True:
        if all(_square_class(t, v) in admitted[v] for v in places):
            factors = factorize(t)
            if all(e == 1 for e in factors.values()) and all(
                    legendre(d, q) == 1 for q in factors if q not in places for d in splits):
                return t
        t = -t if t > 0 else 1 - t


# ---------------------------------------------------------------------------
# The definition of the saturation, and the former rational-arithmetic
# version of the congruent diagonalization, as references for the
# fraction-free kernels


def saturation_failures(basis, sat) -> list[str]:
    """The ways in which `sat` fails to be the Hermite basis of the
    saturation Z^n ∩ Q-span of the independent rows `basis`: sat must be in
    Hermite form (pivots positive and strictly to the right of the previous
    ones, entries above a pivot in [0, pivot)), hold as many rows as basis,
    contain every basis row as an integer combination of its rows (so the
    Q-spans agree), and have maximal minors with gcd 1."""
    failures = []
    pivots = []
    for row in sat:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None or c <= (pivots[-1] if pivots else -1) or row[c] < 0:
            return ["not in Hermite form"]
        pivots.append(c)
    if any(not 0 <= sat[i][c] < sat[k][c] for k, c in enumerate(pivots) for i in range(k)):
        failures.append("entries above a pivot not reduced")
    if len(sat) != len(basis):
        failures.append("rank differs")
    for b in basis:
        x = []
        for row, c in zip(sat, pivots):
            x.append(Fraction(b[c] - sum(xi * r[c] for xi, r in zip(x, sat)), row[c]))
        comb = [sum(xi * r[j] for xi, r in zip(x, sat)) for j in range(len(b))]
        if comb != list(b) or any(xi.denominator != 1 for xi in x):
            failures.append(f"{list(b)} is not in the integer span")
    k = len(sat)
    minors = (int(_det_fractions([[row[j] for j in cs] for row in sat]))
              for cs in itertools.combinations(range(len(sat[0]) if sat else 0), k))
    if math.gcd(*minors) != 1:
        failures.append("maximal minors have a common factor")
    return failures


def symmetric_diagonalize_fractions(gram):
    """(diag, basis) with basis^T G basis = diag(entries), by elimination on
    a Fraction copy of the Gram: pivot on the first nonzero diagonal entry,
    else on e_i + e_j for the first nonzero pairing."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def col_add(dst, src, c):
        for i in range(n):
            m[i][dst] += c * m[i][src]
        for j in range(n):
            m[dst][j] += c * m[src][j]
        for i in range(n):
            basis[i][dst] += c * basis[i][src]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        m[i], m[j] = m[j], m[i]
        for row in basis:
            row[i], row[j] = row[j], row[i]

    diag = []
    for step in range(n):
        piv = next((j for j in range(step, n) if m[j][j] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in range(step, n) for j in range(step, n)
                         if i != j and m[i][j] != 0), None)
            if pair is None:
                raise ValueError("form is degenerate")
            col_add(pair[0], pair[1], 1)
            piv = pair[0]
        if piv != step:
            col_swap(step, piv)
        d = m[step][step]
        for j in range(step + 1, n):
            if m[step][j] != 0:
                col_add(j, step, -m[step][j] / d)
        diag.append(d)
    return diag, tuple(tuple(row) for row in basis)


def nondegenerate_flag_fractions(gram, least: bool = True) -> list[list[int]]:
    """Rows of the greedy unimodular flag of glue._nondegenerate_flag, with
    each projection and its q-value carried as Fractions; with least False,
    the next row is the first remaining one with q != 0 instead of the one
    of least |q|."""
    n = len(gram)

    def pair(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))

    pool = {i: [[int(i == j) for j in range(n)], [Fraction(int(i == j)) for j in range(n)],
                Fraction(gram[i][i])] for i in range(n)}
    rows = []
    while pool:
        live = [i for i in pool if pool[i][2]]
        if live:
            row, o, qo = pool.pop(min(live, key=lambda i: (abs(pool[i][2]), i) if least else i))
        else:
            i = min(pool)
            for j, sign in ((j, sign) for j in sorted(pool) if j != i for sign in (1, -1)):
                o = [a + sign * b for a, b in zip(pool[i][1], pool[j][1])]
                qo = pair(o, o)
                if qo:
                    row = [a + sign * b for a, b in zip(pool[i][0], pool[j][0])]
                    break
            del pool[i]
        rows.append(row)
        for entry in pool.values():
            b = pair(entry[1], o)
            entry[1] = [x - b / qo * y for x, y in zip(entry[1], o)]
            entry[2] -= b * b / qo
    return rows


# ---------------------------------------------------------------------------
# Pairwise definitions that the kernels of qforge shortcut


def signed_permutation_conjugate(gram, rng):
    """P G P^T for a signed permutation matrix P drawn from rng: the same
    lattice in a reordered, re-signed basis."""
    n = len(gram)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * signs[j] * gram[perm[i]][perm[j]] for j in range(n)]
            for i in range(n)]


def hasse_pairwise(diag, place) -> int:
    """The Hasse invariant as its definition: the product of the Hilbert
    symbols (a_i, a_j) over all i < j."""
    from qforge.padic import hilbert_symbol

    return math.prod(hilbert_symbol(a, b, place)
                     for i, a in enumerate(diag) for b in diag[i + 1:])


def pairing_pairwise(gram, u, v):
    """u^T G v entry by entry."""
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def _det_fractions(mat) -> Fraction:
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def invariant_factors_by_minors(mat) -> list[int]:
    """The nonzero invariant factors of an integer matrix as D_k / D_{k-1},
    D_k the gcd of its k x k minors (Cohen, GTM 138, sec. 2.4.4)."""
    rows, cols = len(mat), len(mat[0]) if mat else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        dk = math.gcd(*(int(_det_fractions([[mat[i][j] for j in cs] for i in rs]))
                        for rs in itertools.combinations(range(rows), k)
                        for cs in itertools.combinations(range(cols), k)))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


# ---------------------------------------------------------------------------
# Powers and inverses of isometries


def isometry_inverse(iso):
    from qforge.isom import Isometry
    from qforge.linalg import invert_unimodular

    return Isometry(iso.lattice, invert_unimodular(iso.matrix))


def isometry_power(iso, k: int):
    """iso^k; a negative k powers the inverse."""
    from qforge.isom import Isometry
    from qforge.linalg import mat_pow

    if k < 0:
        return isometry_power(isometry_inverse(iso), -k)
    return Isometry(iso.lattice, mat_pow(iso.matrix, k))


# ---------------------------------------------------------------------------
# Former scans and passes that qforge has replaced


def gf2_solve_reference(rows: list[list[int]], rhs: list[int], nvars: int) -> list[int] | None:
    """padic._gf2_solve as an echelon pass and a back-substitution pass:
    solve a linear system over GF(2); free variables set to 0."""
    aug = [(sum(bit << i for i, bit in enumerate(row)) | (r << nvars))
           for row, r in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []  # (row index in echelon list, var)
    echelon: list[int] = []
    for vec in aug:
        for erow, var in zip(echelon, [p for _, p in pivots]):
            if (vec >> var) & 1:
                vec ^= erow
        lead = None
        for v in range(nvars):
            if (vec >> v) & 1:
                lead = v
                break
        if lead is None:
            if (vec >> nvars) & 1:
                return None
            continue
        echelon.append(vec)
        pivots.append((len(echelon) - 1, lead))
    # back-substitute
    for idx in range(len(echelon) - 1, -1, -1):
        for jdx in range(idx):
            if (echelon[jdx] >> pivots[idx][1]) & 1:
                echelon[jdx] ^= echelon[idx]
    sol = [0] * nvars
    for erow, (_, var) in zip(echelon, pivots):
        sol[var] = (erow >> nvars) & 1
    return sol


def nikulin_glue_scan(lam, target_signature):
    """glue.nikulin_glue as a scan: partner sign patterns nearest eps first
    for P = 1 mod 4, each tested for units mod P, and SearchExhaustedError
    when no pattern fits the target signature."""
    from qforge.errors import PreconditionError, SearchExhaustedError
    from qforge.glue import _assemble_glue, _parse_scaled_diagonal, standard_lattice
    from qforge.intmath import sqrt_mod
    from qforge.lattice import diag_lattice, direct_sum, rescale, signature

    p, eps = _parse_scaled_diagonal(lam)
    pos, neg = signature(lam)
    if pos != 1:
        raise PreconditionError("lam must have signature (1, s)")
    r_t, s_t = target_signature
    rank_t = r_t + s_t
    if 2 * lam.rank >= rank_t:
        raise PreconditionError("need 2 * rank(lam) < rank(target)")
    if r_t < 1 or s_t < 1:
        raise PreconditionError("target must be indefinite")
    need_pos = r_t - pos
    need_neg = s_t - neg
    if need_pos < 0 or need_neg < 0:
        raise PreconditionError("target signature too small for lam")

    if p is None:
        lam_prime = standard_lattice(need_pos, need_neg)
        return _assemble_glue(lam, lam_prime, p=None, pairs=[])

    m = len(eps)
    k_eps = sum(1 for e in eps if e > 0)
    if p % 4 == 1:
        # sqrt(-1) exists mod p, so any elementwise pairing admits a unit;
        # scan partner sign counts nearest to eps first
        candidates = []
        for k_delta in sorted(range(m + 1), key=lambda k: (abs(k - k_eps), k)):
            delta = list(eps)
            want = k_delta - k_eps
            if want > 0:
                for i in range(m - 1, -1, -1):
                    if want and delta[i] == -1:
                        delta[i] = 1
                        want -= 1
            elif want < 0:
                want = -want
                for i in range(m - 1, -1, -1):
                    if want and delta[i] == 1:
                        delta[i] = -1
                        want -= 1
            candidates.append(delta)
    else:
        # -1 is a non-residue: -eps[i]*delta[i] must be 1, forcing delta = -eps
        candidates = [[-e for e in eps]]
    for delta in candidates:
        k_delta = sum(1 for d in delta if d > 0)
        filler_pos = need_pos - k_delta
        filler_neg = need_neg - (m - k_delta)
        if filler_pos < 0 or filler_neg < 0:
            continue
        units = []
        ok = True
        for e, d in zip(eps, delta):
            root = sqrt_mod((-e * d) % p, p)
            if root is None:
                ok = False
                break
            # the odd representative of {root, p - root} makes the glue
            # generator's q-value even, not merely integral
            units.append(root if root % 2 == 1 else p - root)
        if not ok:
            continue
        lam_prime = direct_sum(
            rescale(diag_lattice(*delta), p),
            standard_lattice(filler_pos, filler_neg),
        ) if filler_pos + filler_neg else rescale(diag_lattice(*delta), p)
        pairs = [(i, units[i], i) for i in range(m)]
        return _assemble_glue(lam, lam_prime, p=p, pairs=pairs)
    raise SearchExhaustedError(
        "no diagonal anti-isometry pattern fits the target signature"
    )


def glue_vectors(gd, p: int) -> list[tuple[Fraction, ...]]:
    """The glue vectors (e_i + u e'_j) / P of a nikulin_glue result, one
    for each pair (i, u, j) of its anti-isometry, in the coordinates of
    lam ⊕ lam_prime: e_i is the i-th basis vector of lam with diagonal
    entry +-P, and e'_j the j-th such vector of lam_prime."""
    n1 = gd.lam.rank
    lam_idx = [i for i in range(n1) if abs(gd.lam.gram[i][i]) == p]
    lp_idx = [n1 + i for i in range(gd.lam_prime.rank) if abs(gd.lam_prime.gram[i][i]) == p]
    out = []
    for i, u, j in gd.anti_isometry:
        vec = [Fraction(0)] * (n1 + gd.lam_prime.rank)
        vec[lam_idx[i]] = Fraction(1, p)
        vec[lp_idx[j]] = Fraction(u, p)
        out.append(tuple(vec))
    return out


# ---------------------------------------------------------------------------
# Hilbert symbols over Fractions: the reference the integer square-class
# symbols of qforge.padic are checked against. A rational is split into
# p**valuation times a unit, and the unit is reduced mod p or mod 8.


def valuation_fraction(q, p: int) -> int:
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


def unit_part(q, p: int) -> Fraction:
    """q / p**valuation(q, p)."""
    return Fraction(q) / Fraction(p) ** valuation_fraction(q, p)


def unit_mod(q, p_power: int, p: int) -> int:
    """Residue mod p_power of a rational with denominator coprime to p."""
    q = Fraction(q)
    if q.denominator % p == 0:
        raise ValueError("denominator not coprime to p")
    return q.numerator * pow(q.denominator, -1, p_power) % p_power


def hilbert_symbol_fraction(a, b, place) -> int:
    """+1 iff a x^2 + b y^2 = z^2 has a nonzero solution locally at place."""
    from qforge.errors import PreconditionError
    from qforge.intmath import is_prime
    from qforge.padic import INF, _eps2, _omega2, legendre

    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise PreconditionError("Hilbert symbol needs nonzero arguments")
    if place == INF:
        return -1 if a < 0 and b < 0 else 1
    p = int(place)
    if not is_prime(p):
        raise PreconditionError(f"{p} is not a prime")
    alpha = valuation_fraction(a, p)
    beta = valuation_fraction(b, p)
    u = unit_part(a, p)
    v = unit_part(b, p)
    if p != 2:
        eps = (p - 1) // 2 % 2
        sign = (-1) ** (alpha * beta * eps)
        lu = legendre(unit_mod(u, p, p), p)
        lv = legendre(unit_mod(v, p, p), p)
        return sign * lu**beta * lv**alpha

    um = unit_mod(u, 8, 2)
    vm = unit_mod(v, 8, 2)
    expo = _eps2(um) * _eps2(vm) + alpha * _omega2(vm) + beta * _omega2(um)
    return (-1) ** (expo % 2)


def is_local_square_fraction(x, place) -> bool:
    from qforge.errors import PreconditionError
    from qforge.padic import INF, legendre

    x = Fraction(x)
    if x == 0:
        raise PreconditionError("zero is not classified")
    if place == INF:
        return x > 0
    p = int(place)
    if valuation_fraction(x, p) % 2 != 0:
        return False
    u = unit_part(x, p)
    if p == 2:
        return unit_mod(u, 8, 2) == 1
    return legendre(unit_mod(u, p, p), p) == 1


# ---------------------------------------------------------------------------
# Former eager kernels, kept verbatim as references for the ones that skip
# work on zero entries


def diagonal_pivots_eager(gram, with_basis: bool = True):
    """The former lattice._diagonal_pivots: every trailing row is rescaled
    by D_{k+1} / D_k at every step, also where the pivot row has a zero."""
    from qforge import linalg
    from qforge.errors import PreconditionError

    n = len(gram)
    a = linalg.thaw(gram)
    cols = [[int(i == j) for j in range(n)] for i in range(n)] if with_basis else None
    minors: list[int] = []
    prev = 1
    for step in range(n):
        piv = next((j for j in range(step, n) if a[j][j]), None)
        if piv is None:
            # all diagonal entries vanish; borrow a nonzero pairing
            pair = next(((i, j) for i in range(step, n) for j in range(step, n)
                         if i != j and a[i][j]), None)
            if pair is None:
                raise PreconditionError("form is degenerate")
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            if cols:
                cols[i] = [x + y for x, y in zip(cols[i], cols[j])]
            piv = i
        if piv != step:
            a[step], a[piv] = a[piv], a[step]
            for row in a:
                row[step], row[piv] = row[piv], row[step]
            if cols:
                cols[step], cols[piv] = cols[piv], cols[step]
        p = a[step][step]
        top = a[step][step + 1:]
        for j in range(step + 1, n):
            f = a[step][j]
            if f or p != prev:
                # the symmetric update of row j is also that of column j
                a[j][step + 1:] = [(p * x - f * y) // prev for x, y in zip(a[j][step + 1:], top)]
                if cols:
                    cols[j] = [(p * x - f * y) // prev for x, y in zip(cols[j], cols[step])]
        minors.append(p)
        prev = p
    return minors, cols


def mat_mul_dot(a, b):
    """The former linalg.mat_mul: a dot product of every row of a with every
    column of b."""
    from operator import mul

    from qforge.errors import PreconditionError

    if a and b and len(a[0]) != len(b):
        raise PreconditionError("matrix product shape mismatch")
    bt = list(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in bt) for row in a
    )


# ---------------------------------------------------------------------------
# Former kernels, kept verbatim as references: the Hermite form by 2x2 xgcd
# steps, LLL with its Gram-Schmidt step rescaled at every index, and the
# product of a diagonal Gram formed in full


def hermite_rows_xgcd(mat) -> tuple[Matrix, int]:
    """Canonical row Hermite form of an integer matrix.

    Returns (H, rank): zero rows dropped, pivots positive, entries above a
    pivot reduced into [0, pivot). Row operations only, so the row lattice
    is preserved exactly. Column by column, each row above the current pivot
    slot is folded into it by a 2x2 unimodular xgcd step, and the rows
    holding earlier pivots are reduced modulo the new one at once (Cohen,
    GTM 138, alg. 2.4.5, with rows for columns), which keeps the entries from
    blowing up.
    """
    from qforge.intmath import xgcd
    from qforge.linalg import freeze, thaw

    a = thaw(mat)
    n = len(a[0]) if a else 0
    k = len(a)  # rows k.. hold the pivots found so far, the latest one in row k
    for col in range(n):
        if k == 0:
            break
        k -= 1
        for j in range(k - 1, -1, -1):
            if a[j][col]:
                u, v, g = xgcd(a[k][col], a[j][col])
                r, s = a[k][col] // g, a[j][col] // g
                a[k], a[j] = ([u * x + v * y for x, y in zip(a[k], a[j])],
                              [r * y - s * x for x, y in zip(a[k], a[j])])
        b = a[k][col]
        if b < 0:
            a[k] = [-x for x in a[k]]
            b = -b
        if b == 0:
            k += 1
            continue
        for j in range(k + 1, len(a)):
            q = a[j][col] // b
            if q:
                a[j] = [x - q * y for x, y in zip(a[j], a[k])]
    h = freeze(reversed(a[k:]))
    return h, len(h)


def lll_gram_eager(gram) -> tuple[list[list[int]], list[list[int]], tuple | None]:
    """Integral LLL (Cohen, GTM 138, alg. 2.6.7) on an integer Gram matrix,
    with the Lovasz test on absolute values so that indefinite forms reduce
    too (Simon, Math. Comp. 2005): swap when
    4 |d_{k-2} d_k + l^2| < 3 d_{k-1}^2. Each swap shrinks the positive
    integer prod |d_i|, so the loop ends. Returns (H, H G H^T, x): H is
    unimodular with the new basis as rows, and x is None, or an isotropic
    vector (in the input coordinates, not made primitive) when a leading
    minor of the current basis vanishes; the reduction stops there.

    A degenerate Gram always stops that way, since its last leading minor
    is its determinant. So x None proves G non-degenerate; the converse
    fails: a non-degenerate indefinite G can meet a vanishing minor too.
    """
    from qforge.intmath import round_div
    from qforge.linalg import left_kernel

    n = len(gram)
    a = [list(row) for row in gram]
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    lam = [[0] * n for _ in range(n)]
    d = [1] * (n + 1)  # d[i + 1]: leading i+1 minor; d[0] = 1

    def radical(k: int) -> tuple[int, ...]:
        """An isotropic vector in the span of h[0..k] when its Gram is degenerate."""
        c = left_kernel([row[:k + 1] for row in a[:k + 1]])[0]
        return tuple(sum(c[i] * h[i][j] for i in range(k + 1)) for j in range(n))

    def red(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > abs(d[l + 1]):
            q = round_div(lam[k][l], d[l + 1])
            h[k] = [x - q * y for x, y in zip(h[k], h[l])]
            a[k] = [x - q * y for x, y in zip(a[k], a[l])]
            for row in a:
                row[k] -= q * row[l]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        h[k], h[k - 1] = h[k - 1], h[k]
        a[k], a[k - 1] = a[k - 1], a[k]
        for row in a:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (b * t + mu * lam[i][k]) // d[k + 1]
        d[k] = b

    if a[0][0] == 0:
        return h, a, radical(0)
    d[1] = a[0][0]
    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            for j in range(k + 1):
                u = a[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    return h, a, radical(k)
                else:
                    d[k + 1] = u
        red(k, k - 1)
        if 4 * abs(d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2) < 3 * d[k] ** 2:
            swap(k)
            if d[k] == 0:
                return h, a, radical(k - 1)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return h, a, None


def gram_of_full(latt: QuadLattice, rows) -> tuple[tuple[int, ...], ...]:
    """B G B^T for the vectors B = rows, formed as B (G B^T). A diagonal G
    scales B; any other is multiplied in by mat_mul, which skips zeros, and
    G B^T is formed as (B G)^T when B has fewer nonzeros per row than G."""
    from operator import mul

    from qforge.lattice import _nonzeros, gram_apply
    from qforge.linalg import mat_mul, transpose

    if latt.diagonal is None:
        gram = latt.gram
        if _nonzeros(rows) * len(gram) < _nonzeros(gram) * len(rows):
            return mat_mul(rows, transpose(mat_mul(rows, gram)))
        return mat_mul(rows, mat_mul(gram, transpose(rows)))
    images = [gram_apply(latt, v) for v in rows]  # the columns of G B^T
    return tuple(tuple(sum(map(mul, u, gv)) for gv in images) for u in rows)



def embedding_index_unreduced(m, den: int) -> int:
    """The former glue._embedding_index: the Hermite form of m, then that of
    [H_m; den I_k] with no reduction modulo den."""
    from qforge.errors import InternalInconsistencyError
    from qforge.linalg import hermite_rows

    k = len(m[0])
    h, rank = hermite_rows(m)
    if rank != k:
        raise InternalInconsistencyError("embedding is not injective")
    h, _ = hermite_rows([*h, *([den * (i == j) for j in range(k)] for i in range(k))])
    return den ** k // math.prod(h[i][i] for i in range(k))


# ---------------------------------------------------------------------------
# The former argparse command line, kept verbatim as the reference for
# cli._parse_args. Its flag table is the former cli._FLAG_SPECS, its
# commands and flags are read from cli._COMMANDS.


def _positive_int(text: str) -> int:
    value = int(text)  # a ValueError is reported by argparse as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# argparse keyword arguments of every flag; --out is on every command
_FLAG_SPECS = {
    "--lattice": {"help": "lattice file or catalog:NAME"},
    "--other": {"help": "second lattice file or catalog:NAME"},
    "--matrix": {"help": "JSON integer matrix file"},
    "--basis": {"help": "JSON list of vectors"},
    "--certificate": {"help": "JSON certificate file"},
    "--n-bound": {"type": int, "default": 1},
    "--target-signature": {"help": "r,s"},
    "--height-bound": {"type": _positive_int, "default": 10},
    "--budget": {"type": _positive_int, "default": ENUM_BUDGET},
    "--verify": {"action": "store_true"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad argv exits 2 with JSON, like any bad input
        raise PreconditionError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qforge",
        description="exact constructions on integer quadratic lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAG_SPECS[flag])
        p.add_argument("--out", help="write the JSON report here")
    return parser


# ---------------------------------------------------------------------------
# A time limit for a block of a test


class StillRunning(Exception):
    """A block ran past its time limit. Not an OSError (as TimeoutError is),
    so the command line's handler of unreadable files does not take it."""


@contextlib.contextmanager
def within(seconds: float):
    """Fail the block with StillRunning once it has run `seconds`."""
    def expire(signum, frame):
        raise StillRunning(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
