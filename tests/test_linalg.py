"""The elimination routines of qforge.linalg against sympy's exact matrices."""
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import hermite_rows_xgcd, invariant_factors_by_minors, lll_gram_eager, mat_mul_dot
from qforge.errors import PreconditionError
from qforge.linalg import (
    det_bareiss,
    hermite_rows,
    identity,
    invert_unimodular,
    lll_gram,
    mat_mul,
    rational_rank,
    saturation,
    solve_scaled,
)

INTS = st.integers(-6, 6)


@st.composite
def matrices(draw, rows=st.integers(1, 6), cols=st.integers(1, 6), square=False,
             kinds=(INTS, st.integers(-60, 60))):
    """Integer matrices; half of them are a product through a smaller
    inner dimension, so rank-deficient inputs are common."""
    m = draw(rows)
    n = m if square else draw(cols)
    entries = draw(st.sampled_from(kinds))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(n)] for _ in range(m)]
    k = draw(st.integers(0, min(m, n)))
    left = [[draw(entries) for _ in range(k)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(k)]
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)]


def to_sympy(mat) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Integer(x) for x in row] for row in mat])


def to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@given(matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_det_matches_sympy(mat):
    det = det_bareiss(mat)
    assert type(det) is int
    assert det == int(to_sympy(mat).det())


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_sympy(mat):
    assert rational_rank(mat) == to_sympy(mat).rank()


@given(matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_solve_scaled_inverse_matches_sympy(mat):
    a = to_sympy(mat)
    if a.det() == 0:
        with pytest.raises(ZeroDivisionError):
            solve_scaled(mat, identity(len(mat)))
        return
    x, d = solve_scaled(mat, identity(len(mat)))
    inv = a.inv()
    assert [[Fraction(v, d) for v in row] for row in x] == [
        [to_fraction(inv[i, j]) for j in range(a.cols)] for i in range(a.rows)
    ]


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_invert_unimodular_matches_sympy(n, data):
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(data.draw(st.integers(0, 3 * n))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if i == j:
            mat[i] = [-x for x in mat[i]]
        else:
            c = data.draw(st.integers(-3, 3))
            mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    inv = to_sympy(mat).inv()
    got = invert_unimodular(mat)
    assert got == tuple(tuple(int(inv[i, j]) for j in range(n)) for i in range(n))
    assert all(type(x) is int for row in got for x in row)


def test_empty_and_non_unimodular_inputs():
    assert det_bareiss([]) == 1
    assert rational_rank([]) == 0
    assert solve_scaled([], []) == ([], 1)
    with pytest.raises(PreconditionError):  # det 2: no integer inverse
        invert_unimodular([[2, 1], [0, 1]])


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_saturation_index_is_the_product_of_invariant_factors(mat):
    """Wide, tall and rank-deficient integer matrices: for independent rows
    the index is the gcd of the maximal minors, the product of the
    invariant factors; dependent rows are refused."""
    if rational_rank(mat) < len(mat):
        with pytest.raises(PreconditionError, match="linearly dependent"):
            saturation(mat)
        return
    _, index = saturation(mat)
    assert index == math.prod(invariant_factors_by_minors(mat))


@st.composite
def _product_pair(draw):
    """a (m x k) and b (k x n), m, k, n from 1 to 12, each sparse or dense."""
    m, k, n = (draw(st.integers(1, 12)) for _ in range(3))

    def mat(rows, cols):
        percent = draw(st.sampled_from([10, 30, 60, 100]))
        entry = draw(st.sampled_from([INTS, st.integers(-10**9, 10**9)]))
        return [[draw(entry) if draw(st.integers(0, 99)) < percent else 0 for _ in range(cols)]
                for _ in range(rows)]

    return mat(m, k), mat(k, n)


@given(_product_pair())
@settings(max_examples=200, deadline=None)
def test_mat_mul_matches_the_dot_product_reference(pair):
    """Rows combined from b at their nonzero entries, or dotted with b's
    columns when dense, give the product of the former kernel."""
    a, b = pair
    assert mat_mul(a, b) == mat_mul_dot(a, b)


@st.composite
def _hermite_input(draw):
    """Up to 12 x 14, dense or sparse, entries up to 10^6 or a product
    through a smaller inner dimension, with zero and repeated rows."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 14))
    percent = draw(st.sampled_from([20, 50, 100]))
    entry = draw(st.sampled_from([INTS, st.integers(-10**6, 10**6)]))
    rows = [[draw(entry) if draw(st.integers(0, 99)) < percent else 0 for _ in range(n)]
            for _ in range(m)]
    if draw(st.booleans()):
        rows = mat_mul(rows, [[draw(INTS) for _ in range(n)] for _ in range(n)])
        rows = [list(row) for row in mat_mul(rows[:draw(st.integers(0, m))] or [[0] * n],
                                             [[draw(INTS) for _ in range(n)] for _ in range(n)])]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from([[0] * n, *rows]))
        rows.insert(draw(st.integers(0, len(rows))), list(row))
    return rows


@given(_hermite_input())
@settings(max_examples=300, deadline=None)
def test_hermite_rows_matches_the_xgcd_reference(mat):
    """The Hermite form by least remainders is the one the former 2x2 xgcd
    kernel gives: the form is unique, so H and the rank agree."""
    assert hermite_rows(mat) == hermite_rows_xgcd(mat)


@st.composite
def _lll_input(draw):
    """Symmetric Grams of rank 1-7: B^T D B with D definite or indefinite
    and B of full or lower rank (degenerate), or small raw entries, which
    often meet a vanishing leading minor."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("definite", "indefinite", "degenerate", "raw")))
    if kind == "raw":
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
        return gram
    k = n - draw(st.integers(1, n)) if kind == "degenerate" and n > 1 else n
    b = [[draw(st.integers(-20, 20)) for _ in range(n)] for _ in range(k)]
    sign = draw(st.sampled_from((1, -1)))
    diag = [draw(st.integers(1, 5)) * (sign if kind != "indefinite" else draw(st.sampled_from((1, -1))))
            for _ in range(k)]
    return [[sum(d * row[i] * row[j] for d, row in zip(diag, b)) for j in range(n)]
            for i in range(n)]


@given(_lll_input())
@settings(max_examples=300, deadline=None)
def test_lll_gram_matches_the_eager_reference(gram):
    """Rescaling the Gram-Schmidt step only where a product is nonzero gives
    the same (H, H G H^T, x) as rescaling at every index."""
    assert lll_gram(gram) == lll_gram_eager(gram)
