"""The elimination routines of qforge.linalg against sympy's exact matrices."""
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import invariant_factors_by_minors
from qforge.errors import PreconditionError
from qforge.linalg import (
    det_bareiss,
    identity,
    invert_unimodular,
    rational_rank,
    smith_normal_form,
    snf_invariant_factors,
    solve,
    solve_scaled,
)

INTS = st.integers(-6, 6)
FRACTIONS = st.fractions(-6, 6, max_denominator=5)


@st.composite
def matrices(draw, rows=st.integers(1, 6), cols=st.integers(1, 6), square=False,
             kinds=(INTS, FRACTIONS)):
    """Integer or Fraction matrices; half of them are a product through a
    smaller inner dimension, so rank-deficient inputs are common."""
    m = draw(rows)
    n = m if square else draw(cols)
    entries = draw(st.sampled_from(kinds))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(n)] for _ in range(m)]
    k = draw(st.integers(0, min(m, n)))
    left = [[draw(entries) for _ in range(k)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(k)]
    return [[sum((left[i][t] * right[t][j] for t in range(k)), 0) for j in range(n)]
            for i in range(m)]


def to_sympy(mat) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                          for x in row] for row in mat])


def to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@given(matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_det_matches_sympy(mat):
    det = det_bareiss(mat)
    assert det == to_fraction(to_sympy(mat).det())
    if all(isinstance(x, int) for row in mat for x in row):
        assert type(det) is int


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_sympy(mat):
    assert rational_rank(mat) == to_sympy(mat).rank()


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_matches_sympy(mat, data):
    n = len(mat[0])
    if data.draw(st.booleans()):
        # consistent by construction: rhs = mat @ x0
        x0 = data.draw(st.lists(FRACTIONS, min_size=n, max_size=n))
        rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in mat]
    else:
        rhs = data.draw(st.lists(INTS, min_size=len(mat), max_size=len(mat)))
    got = solve(mat, rhs)
    a = to_sympy(mat)
    try:
        sol, params = a.gauss_jordan_solve(to_sympy([[r] for r in rhs]))
    except ValueError:  # sympy: the system is inconsistent
        assert got is None
        return
    expected = sol.subs({p: 0 for p in params})
    assert got is not None
    assert list(got) == [to_fraction(x) for x in expected]


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
    assert solve([], []) == ()
    assert solve_scaled([], []) == ([], 1)
    with pytest.raises(PreconditionError):  # det 2: no integer inverse
        invert_unimodular([[2, 1], [0, 1]])


@given(matrices(kinds=(INTS, st.integers(-60, 60))))
@settings(max_examples=150, deadline=None)
def test_snf_invariant_factors_is_the_smith_diagonal(mat):
    """Wide, tall and rank-deficient integer matrices: the factors read from
    the Hermite form are the nonzero Smith diagonal of the matrix itself,
    and the quotients of the gcds of its minors."""
    d, _, _ = smith_normal_form(mat)
    diagonal = [d[i][i] for i in range(min(len(mat), len(mat[0]))) if d[i][i]]
    assert snf_invariant_factors(mat) == diagonal == invariant_factors_by_minors(mat)
