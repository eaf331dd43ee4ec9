"""Exact integer matrix algebra.

Matrices are tuples of tuples (immutable at API borders, lists inside the
algorithms). No floating point anywhere; a rational matrix is an integer
matrix with its denominator named beside it.
"""
from __future__ import annotations

import math
from operator import mul

from .errors import PreconditionError
from .intmath import round_div

Matrix = tuple[tuple, ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def thaw(mat) -> list[list]:
    return [list(row) for row in mat]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(mat) -> Matrix:
    return tuple(zip(*mat)) if mat else ()


def mat_mul(a, b) -> Matrix:
    """a b. A row of a whose k nonzero entries are at most half the row and
    fewer than the columns of b is the combination of those k rows of b;
    any other row takes dot products with the columns of b."""
    if a and b and len(a[0]) != len(b):
        raise PreconditionError("matrix product shape mismatch")
    width = len(b[0]) if b else 0
    bt = None
    out = []
    for row in a:
        k = len(row) - row.count(0)
        if 2 * k > len(row) or k >= width:
            bt = bt or list(zip(*b))
            out.append(tuple(sum(map(mul, row, col)) for col in bt))
            continue
        acc = [0] * width
        for x, r in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, r)]
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(mat, vec) -> tuple:
    if mat and len(mat[0]) != len(vec):
        raise PreconditionError("matrix-vector shape mismatch")
    return tuple(sum(map(mul, row, vec)) for row in mat)


def bilinear(gram, u, v):
    """u^T gram v, skipping the zero entries of u."""
    return sum(ui * sum(map(mul, row, v)) for ui, row in zip(u, gram) if ui)


def mat_sub(a, b) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def is_zero(mat) -> bool:
    return all(x == 0 for row in mat for x in row)


def mat_pow(mat, k: int) -> Matrix:
    n = len(mat)
    out = identity(n)
    base = freeze(mat)
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def _bareiss(mat, pivot_cols: int | None = None) -> tuple[list[list[int]], list[int], int]:
    """Bareiss Gauss-Jordan elimination of an integer matrix, in integers
    throughout (Cohen, GTM 138, sec. 2.2).

    Pivots are taken left to right among the first `pivot_cols` columns
    (default: all). Returns (rows, pivots, sign): row i < len(pivots)
    holds the common pivot value D at column pivots[i] and zeros in every
    other pivot column, the remaining rows are zero in the searched
    columns, and sign is (-1)^(row swaps). Every division is exact, since
    each entry is a minor of the input.
    """
    a = thaw(mat)
    m = len(a)
    n = len(a[0]) if a else 0
    if pivot_cols is None:
        pivot_cols = n
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(pivot_cols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pr = a[r]
        p = pr[c]
        for i, row in enumerate(a):
            f = row[c]
            # a row that is zero in column c is only rescaled by p / prev
            if i != r and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
        pivots.append(c)
        prev = p
    return a, pivots, sign


def det_bareiss(mat) -> int:
    """Exact determinant of an integer matrix."""
    n = len(mat)
    a, pivots, sign = _bareiss(mat)
    if len(pivots) < n:
        return 0
    return sign * a[-1][-1] if n else 1


def rational_rank(mat) -> int:
    return len(_bareiss(mat)[1])


def solve_scaled(mat, rhs) -> tuple[list[list[int]], int]:
    """(X, D) with mat X == D rhs, for a nonsingular square mat and a
    matrix rhs: the reduction of [mat | rhs], so X / D is mat^-1 rhs."""
    n = len(mat)
    a, pivots, _ = _bareiss([list(row) + list(r) for row, r in zip(mat, rhs)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in a], a[n - 1][n - 1] if n else 1


def invert_unimodular(mat) -> Matrix:
    """Integer inverse of an integer matrix with determinant ±1."""
    x, d = solve_scaled(mat, identity(len(mat)))
    if d not in (1, -1):
        raise PreconditionError("matrix is not unimodular")
    return tuple(tuple(v * d for v in row) for row in x)


# ---------------------------------------------------------------------------
# Integer normal forms


def hermite_rows(mat) -> tuple[Matrix, int]:
    """Canonical row Hermite form of an integer matrix.

    Returns (H, rank): zero rows dropped, pivots positive, entries above a
    pivot reduced into [0, pivot). Row operations only, so the row lattice
    is preserved exactly. Column by column, among the rows that hold no
    pivot yet, the row with the least nonzero |entry| takes the others to
    their least remainders by a nearest-quotient multiple, until one row is
    left; made positive, it is the column's pivot, and the rows holding
    earlier pivots are reduced modulo it at once (Cohen, GTM 138, alg. 2.4.5,
    with rows for columns), which keeps the entries from blowing up.
    """
    rest = [list(row) for row in mat if any(row)]
    done: list[list[int]] = []
    for col in range(len(mat[0]) if mat else 0):
        if not rest:
            break
        live = [row for row in rest if row[col]]
        while len(live) > 1:
            piv = min(live, key=lambda row: abs(row[col]))
            b, tail = piv[col], piv[col:]
            for row in live:
                if row is not piv:
                    q = (2 * row[col] + b) // (2 * b)  # |row[col] - q b| <= |b| / 2
                    row[col:] = [x - q * y for x, y in zip(row[col:], tail)]
            live = [row for row in live if row[col]]
        if not live:
            continue
        piv = live[0]
        if piv[col] < 0:
            piv[col:] = [-x for x in piv[col:]]
        b, tail = piv[col], piv[col:]
        for row in done:
            q = row[col] // b
            if q:
                row[col:] = [x - q * y for x, y in zip(row[col:], tail)]
        done.append(piv)
        rest = [row for row in rest if row is not piv]
    h = freeze(done)
    return h, len(h)


def saturation(mat) -> tuple[Matrix, int]:
    """(S, index) for an integer matrix of full row rank k: S the Hermite
    basis of Z^n ∩ Q-span(rows), index = [Z·S : Z·rows], the gcd of the
    maximal minors.

    R, the Hermite form of the columns, is k x k upper triangular, and
    mat = R^T S' with S' the first k columns of a unimodular matrix, so
    S' spans the saturation; it follows from mat by exact forward
    substitution, and the index is the product of R's diagonal.
    """
    k = len(mat)
    r, rank = hermite_rows(transpose(mat))
    if rank != k:
        raise PreconditionError("rows are linearly dependent")
    prim: list[list[int]] = []
    for i, row in enumerate(mat):
        acc = list(row)
        for j in range(i):
            c = r[j][i]
            if c:
                acc = [x - c * y for x, y in zip(acc, prim[j])]
        prim.append([x // r[i][i] for x in acc])
    s, _ = hermite_rows(prim)
    return s, math.prod(r[i][i] for i in range(k))


def left_kernel(mat) -> Matrix:
    """Hermite basis rows of {x : x @ mat == 0}, saturated in Z^m: the
    I-parts of the rows of the Hermite form of [mat | I] whose mat-part
    is zero."""
    n = len(mat[0]) if mat else 0
    h, _ = hermite_rows([list(row) + [int(i == j) for j in range(len(mat))]
                         for i, row in enumerate(mat)])
    return freeze(row[n:] for row in h if not any(row[:n]))


def lll_gram(gram) -> tuple[list[list[int]], list[list[int]], tuple | None]:
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
                # u is carried at the scale d[m]: while the products vanish,
                # each step only multiplies it by d[i + 1] / d[i]
                u, m = a[k][j], 0
                for i in range(j):
                    t = lam[k][i] * lam[j][i]
                    if t:
                        if m < i:
                            u = u * d[i] // d[m]
                        u, m = (d[i + 1] * u - t) // d[i], i + 1
                if m < j:
                    u = u * d[j] // d[m]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    return h, a, radical(k)
                else:
                    d[k + 1] = u
        if 2 * abs(lam[k][k - 1]) > abs(d[k]):
            red(k, k - 1)
        if 4 * abs(d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2) < 3 * d[k] ** 2:
            swap(k)
            if d[k] == 0:
                return h, a, radical(k - 1)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                if 2 * abs(lam[k][l]) > abs(d[l + 1]):
                    red(k, l)
            k += 1
    return h, a, None


def char_poly(mat) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - mat), ascending coefficients.

    Faddeev-LeVerrier; all intermediate divisions are exact.
    """
    n = len(mat)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m_k = identity(n)
    c = 1
    for k in range(1, n + 1):
        am = mat_mul(mat, m_k)
        tr = sum(am[i][i] for i in range(n))
        c = -tr // k
        coeffs[n - k] = c
        m_k = tuple(
            tuple(am[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
        )
    return tuple(coeffs)
