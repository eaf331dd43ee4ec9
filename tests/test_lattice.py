import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle_utils import (
    all_values_divisible_by,
    box_min_scan,
    diagonal_pivots_eager,
    gram_of_full,
    iter_search_vectors,
    pairing_pairwise,
    pell_automorph_matrix,
    saturation_failures,
    symmetric_diagonalize_fractions,
)
from qforge.catalog import resolve
from qforge.errors import PreconditionError, SearchExhaustedError
from qforge.isom import IsomClass, Tag
from qforge.linalg import mat_mul, rational_rank, transpose
from qforge.lattice import (
    QuadLattice,
    Sublattice,
    _diagonal_pivots,
    binary_cycle,
    diag_lattice,
    direct_sum,
    enumerate_values,
    from_rows,
    gram_of,
    min_nonzero_abs,
    orthogonal_complement,
    pairing,
    qvalue,
    rational_diagonalize,
    saturate,
    saturation_index,
    signature,
    span,
)
from qforge.padic import invariant_triple

U = from_rows([[0, 1], [1, 0]], label="U")


@pytest.mark.parametrize("record, field", [
    (U, "gram"), (U, "label"), (invariant_triple(U), "disc"),
    (IsomClass(Tag.ELLIPTIC, order=2), "tag"),
])
def test_public_records_are_immutable(record, field):
    """All public types are immutable: a record's fields are read-only."""
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_equal_lattices_hash_equal():
    """cli._lattice_hash is lru_cached on the lattice: equal Grams built
    apart are one key, whatever either has cached."""
    a, b = from_rows([[2, 1], [1, -3]]), QuadLattice(((2, 1), (1, -3)))
    assert a.pivots and "pivots" not in vars(b)  # cached on a alone
    assert a == b and hash(a) == hash(b)
    assert b != from_rows([[2, 1], [1, -3]], label="x")


def test_signature_hyperbolic_plane():
    assert signature(U) == (1, 1)


def test_signature_definite():
    assert signature(diag_lattice(2, 5)) == (2, 0)


def test_signature_k3():
    assert signature(resolve("K3")) == (3, 19)


def test_signature_degenerate_rejected():
    with pytest.raises(PreconditionError, match="form is degenerate"):
        signature(diag_lattice(1, 0))


def test_qvalue_and_pairing():
    assert qvalue(U, (1, 0)) == 0
    assert qvalue(diag_lattice(30, -10), (1, 1)) == 20
    assert qvalue(diag_lattice(5, -10), (1, 1)) == -5
    assert pairing(U, (1, 0), (0, 1)) == 1


def test_saturate_index_two():
    sub = span(diag_lattice(1, 1), [(2, 0), (0, 1)])
    sat = saturate(sub)
    assert sat.basis == ((1, 0), (0, 1))
    assert saturation_index(sub) == 2


def test_saturate_primitive_is_identity():
    sub = span(diag_lattice(1, 1), [(1, 0)])
    assert saturate(sub).basis == ((1, 0),)
    assert saturation_index(sub) == 1


def test_saturation_index_diagonal():
    assert saturation_index(span(diag_lattice(1, 1), [(2, 0), (0, 3)])) == 6


def test_saturate_in_rank5():
    # the coordinate matrix has coprime 2x2 minors, so the span is primitive
    amb = direct_sum(U, U, diag_lattice(2))
    sub = span(amb, [(3, 5, 0, 0, 0), (0, 0, 1, -5, 0)])
    assert saturation_index(sub) == 1
    sat = saturate(sub)
    assert sat.rank == 2
    assert saturation_index(sat) == 1


def test_orthogonal_complement_isotropic():
    comp = orthogonal_complement(span(U, [(1, 0)]))
    assert comp.basis == ((1, 0),)


def test_orthogonal_complement_definite():
    comp = orthogonal_complement(span(diag_lattice(1, -1, -1), [(1, 0, 0)]))
    assert comp.basis == ((0, 1, 0), (0, 0, 1))


def test_orthogonal_complement_block():
    amb = direct_sum(U, U, diag_lattice(2))
    comp = orthogonal_complement(span(amb, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]))
    assert comp.basis == ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


def test_enumerate_values_hyperbolic_plane():
    assert set(enumerate_values(U, 1)) == {-2, 0, 2}


def test_enumerate_values_minus_two():
    assert set(enumerate_values(diag_lattice(-2), 3)) == {-2, -8, -18}


def test_enumerate_values_min_abs():
    best, witness = min_nonzero_abs(diag_lattice(30, -10), 100)
    assert best == 10
    assert abs(qvalue(diag_lattice(30, -10), witness)) == 10


def test_enumerate_budget_guard():
    with pytest.raises(SearchExhaustedError, match="exceeds budget 1000000"):
        enumerate_values(diag_lattice(*([1] * 8)), 100, budget=10**6)


def test_enumerate_witnesses_verify():
    latt = from_rows([[2, 1], [1, -4]])
    for value, witness in enumerate_values(latt, 3).items():
        assert qvalue(latt, witness) == value


def test_enumerate_monotone_in_height():
    latt = from_rows([[2, 1], [1, -4]])
    small = set(enumerate_values(latt, 2))
    big = set(enumerate_values(latt, 4))
    assert small <= big


def test_divisibility_scan():
    ok, _ = all_values_divisible_by(diag_lattice(20, -10), 5, 50)
    assert ok
    ok, witness = all_values_divisible_by(diag_lattice(20, -9), 5, 50)
    assert not ok and witness is not None


_SCALED_ENTRIES = st.integers(1, 6).flatmap(
    lambda k: st.tuples(*[st.integers(-50 // k, 50 // k).map(lambda x: k * x)] * 3))


@settings(max_examples=200, deadline=None)
@given(entries=_SCALED_ENTRIES)
@example(entries=(6, 3, -6))  # content 3, off-diagonal
@example(entries=(2, 1, -2))  # 2x^2 + 2xy - 2y^2: Markov's bound is attained
@example(entries=(30, 0, -10))
def test_binary_minimum_against_box(entries):
    """The cycle-walk minimum against the box oracle on anisotropic
    indefinite binary Grams with entries |.| <= 50, contents > 1 included."""
    a, b, c = entries
    d4 = b * b - a * c
    assume(d4 > 0 and math.isqrt(d4) ** 2 != d4)
    latt = from_rows([[a, b], [b, c]])
    height = 30
    m, witness, _ = binary_cycle(latt)
    box_min, _ = min_nonzero_abs(latt, height)
    assert abs(qvalue(latt, witness)) == m
    assert m <= box_min
    if max(abs(x) for x in witness) <= height:
        assert m == box_min


@pytest.mark.parametrize("gram", [
    [[0, 1], [1, 0]],  # U: D/4 = 1
    [[1, 0], [0, -4]],  # D/4 = 4
    [[3, 3], [3, 0]],  # D/4 = 9, off-diagonal
    [[1, 1], [1, 1]],  # degenerate: D = 0
    [[0, 0], [0, 0]],
    [[1, 0], [0, 1]],  # definite
    [[-4, 2], [2, -6]],  # negative definite
])
def test_binary_minimum_rejects_isotropic_and_definite(gram):
    with pytest.raises(PreconditionError, match="form is definite, degenerate or isotropic"):
        binary_cycle(from_rows(gram))


def test_min_nonzero_abs_is_for_binary_lattices():
    with pytest.raises(PreconditionError, match="the box minimum is for binary lattices"):
        min_nonzero_abs(diag_lattice(1, -1, -1), 2)


_ENTRY = st.one_of(st.integers(-10, 10), st.integers(-10**12, 10**12))


def _factored(u, v, s, w, t):
    """t (u x + v y)(s x + w y) as (g11, g12, g22), doubled when u w + v s is odd."""
    mid = u * w + v * s
    k = 2 * t if mid % 2 else t
    return k * u * s, k * mid // 2, k * v * w


_BINARY_ENTRIES = st.one_of(
    st.tuples(_ENTRY, _ENTRY, _ENTRY),
    # a = 0, b = 0 or c = 0
    st.tuples(_ENTRY, _ENTRY, _ENTRY, st.integers(0, 2)).map(
        lambda e: tuple(0 if i == e[3] else x for i, x in enumerate(e[:3]))),
    # isotropic: a product of two linear forms, t (u x + v y)(s x + w y)
    st.tuples(*[st.integers(-30, 30)] * 4, _ENTRY).map(lambda e: _factored(*e)),
    # degenerate: t (u x + v y)^2, the zero Gram among them
    st.tuples(st.integers(-30, 30), st.integers(-30, 30), _ENTRY).map(
        lambda e: _factored(e[0], e[1], e[0], e[1], e[2])),
)


@settings(max_examples=300, deadline=None)
@given(entries=_BINARY_ENTRIES, height=st.integers(0, 60))
@example(entries=(0, 1, 0), height=60)  # U: isotropic, both coordinate axes zero
@example(entries=(0, 0, 0), height=60)  # the zero Gram: no nonzero value
@example(entries=(0, 0, 5), height=3)  # diag(0, 5): degenerate
@example(entries=(3, 1, -7), height=0)  # height 0: only the zero vector
def test_min_nonzero_abs_matches_the_scan(entries, height):
    """The row-by-row minimum equals the full box scan: the same least
    nonzero |q| and the same lexicographically first witness, on binary
    Grams with entries up to 10^12 in absolute value, isotropic and
    degenerate ones included."""
    a, b, c = entries
    latt = from_rows([[a, b], [b, c]])
    assert min_nonzero_abs(latt, height) == box_min_scan(latt, height)


_ANISOTROPIC_INDEFINITE = st.integers(1, 4).flatmap(
    lambda k: st.tuples(*[st.integers(-10**4 // k, 10**4 // k).map(lambda x: k * x)] * 3)
).filter(lambda e: e[1] ** 2 - e[0] * e[2] > 0
         and math.isqrt(e[1] ** 2 - e[0] * e[2]) ** 2 != e[1] ** 2 - e[0] * e[2])


@settings(max_examples=300, deadline=None)
@given(entries=_ANISOTROPIC_INDEFINITE)
@example(entries=(50, -31, 10))  # content 2 after dividing: a cube root of the Pell matrix
@example(entries=(2, 5, 4))  # content 2, but the Pell matrix itself
@example(entries=(1, 0, -2))
@example(entries=(-3, 1, 2))  # g11 < 0
def test_cycle_automorph_is_the_least_unit(entries):
    """The walk's automorph fixes the Gram, has det 1 and trace > 2, and
    A[1][0] has the sign of g11. Against x^2 - d y^2 = 1 (squaring loop),
    whose matrix has the even trace 2x: A equals it when its trace t is
    even. An odd t needs (g11, 2 g12, g22) / content of content 2, whose
    primitive form has the unit (t + u sqrt(d)) / 2 with t, u odd; its cube
    is then the least unit of Z[sqrt(d)], so A^3 equals the Pell matrix."""
    a, b, c = entries
    gram = ((a, b), (b, c))
    auto = binary_cycle(from_rows(gram))[2]
    (p, q), (r, s) = auto
    assert mat_mul(mat_mul(transpose(auto), gram), auto) == gram
    assert p * s - q * r == 1 and p + s > 2
    assert (r > 0) == (a > 0) and r != 0
    pell = pell_automorph_matrix(gram)
    if (p + s) % 2 == 0:
        assert auto == pell
    else:
        g = math.gcd(a, b, c)
        assert (a // g) % 2 == 0 and (c // g) % 2 == 0
        assert mat_mul(mat_mul(auto, auto), auto) == pell


def test_cycle_automorph_content_two_example():
    minimum, witness, auto = binary_cycle(from_rows([[50, -31], [-31, 10]]))
    assert (minimum, witness) == (2, (1, 1))
    assert auto == ((162791, -31025), (155125, -29564))
    assert mat_mul(mat_mul(auto, auto), auto) == (
        (2889448033323421, -550676175206200), (2753380876031000, -524744252955019))


def test_search_order_canon():
    first = list(iter_search_vectors(2, 2))
    assert first == [(1, 0), (0, 1), (1, 1), (1, -1)]


def _random_lattice(rng: random.Random, rank: int) -> QuadLattice:
    while True:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                rows[i][j] = rows[j][i] = rng.randint(-9, 9)
        latt = from_rows(rows)
        if latt.det() != 0:
            return latt


@given(st.integers(0, 10**6), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_saturate_properties(seed, rank):
    rng = random.Random(seed)
    latt = _random_lattice(rng, rank)
    k = rng.randint(1, rank)
    rows = []
    while len(rows) < k:
        cand = tuple(rng.randint(-4, 4) for _ in range(rank))
        from qforge.linalg import mat_mul, rational_rank, transpose

        if any(cand) and rational_rank(rows + [cand]) == len(rows) + 1:
            rows.append(cand)
    sub = span(latt, rows)
    sat = saturate(sub)
    # idempotent and primitive
    assert saturate(sat).basis == sat.basis
    assert saturation_index(sat) == 1
    # index relation between determinants
    idx = saturation_index(sub)
    from qforge.linalg import det_bareiss

    det_sub = det_bareiss(sub.gram())
    det_sat = det_bareiss(sat.gram())
    assert det_sub == idx * idx * det_sat
    # sub is contained in its saturation: adding its vectors leaves the
    # canonical Hermite basis of the saturation as it is
    from qforge.linalg import hermite_rows

    assert hermite_rows(sat.basis + sub.basis) == (sat.basis, sat.rank)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_double_complement_is_saturation(seed):
    rng = random.Random(seed)
    latt = _random_lattice(rng, 4)
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(4))
        if any(v) and qvalue(latt, v) != 0:
            break
    sub = span(latt, [v])
    double = orthogonal_complement(orthogonal_complement(sub))
    assert double.basis == saturate(sub).basis


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_signature_additivity(seed, r1, r2):
    rng = random.Random(seed)
    a = _random_lattice(rng, r1)
    b = _random_lattice(rng, r2)
    sa, sb = signature(a), signature(b)
    assert signature(direct_sum(a, b)) == (sa[0] + sb[0], sa[1] + sb[1])


def test_dimension_mismatch_errors():
    with pytest.raises(PreconditionError, match="vector length != lattice rank"):
        qvalue(U, (1, 0, 0))
    with pytest.raises(PreconditionError, match="vector length != lattice rank"):
        pairing(U, (1, 0), (1,))
    with pytest.raises(PreconditionError, match="gram matrix must be symmetric"):
        from_rows([[0, 1], [2, 0]])  # not symmetric


@st.composite
def _independent_basis(draw):
    """k independent rows in Z^n, n <= 8, entries within +-10^6: raw draws,
    or a small k x k multiplier times narrower rows, so that the
    saturation index is often above 1."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        entry = st.one_of(st.integers(-10**6, 10**6), st.integers(-3, 3))
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    else:
        bound = 10**6 // (3 * k)
        entry = st.one_of(st.integers(-bound, bound), st.integers(-3, 3))
        base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
        mult = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                             min_size=k, max_size=k))
        rows = [[sum(m * r[j] for m, r in zip(mrow, base)) for j in range(n)] for mrow in mult]
    from qforge.linalg import mat_mul, rational_rank, transpose

    assume(rational_rank(rows) == k)
    return rows


@given(_independent_basis())
@settings(max_examples=150, deadline=None)
@example([[2, 4, 6], [0, 3, 9]])
@example([[10**6, -10**6], [3, -3 * 10**5]])
def test_saturate_meets_its_definition(rows):
    latt = diag_lattice(*([1] * len(rows[0])))
    assert saturation_failures(rows, saturate(span(latt, rows)).basis) == []


@st.composite
def _symmetric_matrix(draw):
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))
    upper = draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    it = iter(upper)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    perm = draw(st.one_of(st.none(), st.permutations(range(n))))
    return rows, perm


@given(_symmetric_matrix())
@settings(max_examples=200, deadline=None)
@example(([[0, 1], [1, 0]], None))
@example(([[0, 0, 1], [0, 0, 2], [1, 2, 0]], [2, 0, 1]))
def test_symmetric_diagonalize_matches_fraction_reference(case):
    """Same diagonal, same basis and same signature as elimination on a
    Fraction copy, or degenerate for both; the Gram is conjugated by the
    drawn permutation P, P G P^T, which changes the elimination order."""
    rows, perm = case
    perm = perm or range(len(rows))
    gram = [[rows[i][j] for j in perm] for i in perm]
    try:
        want = symmetric_diagonalize_fractions(gram)
    except ValueError:
        with pytest.raises(PreconditionError, match="degenerate"):
            rational_diagonalize(gram)
        return
    assert rational_diagonalize(gram) == want
    pos = sum(1 for d in want[0] if d > 0)
    assert signature(from_rows(gram)) == (pos, len(gram) - pos)


@st.composite
def _sparse_symmetric(draw):
    """Symmetric integer matrices of rank 1 to 12, sparse or dense, with
    small or large entries; half have a zero diagonal, which takes the
    borrow branch of the elimination."""
    n = draw(st.integers(1, 12))
    percent = draw(st.sampled_from([10, 30, 100]))
    hollow = draw(st.booleans())
    entry = draw(st.sampled_from([st.integers(-3, 3), st.integers(-10**6, 10**6)]))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + hollow, n):
            if draw(st.integers(0, 99)) < percent:
                rows[i][j] = rows[j][i] = draw(entry)
    return rows


@given(_sparse_symmetric())
@settings(max_examples=300, deadline=None)
@example(resolve("U+U").gram)
@example(resolve("K3").gram)
# row 4 sees only zeros in the pivot rows for three steps, row 3 for the
# last two, then the pair is borrowed: rows held at D_0 = 1 and D_1 = 2
# must both be brought to D_3 = 30 before they are added
@example([[2, 0, 0, 2, 0], [0, 3, 0, 0, 0], [0, 0, 5, 0, 0], [2, 0, 0, 2, 1], [0, 0, 0, 1, 0]])
def test_diagonal_pivots_match_the_eager_reference(gram):
    """The lazily scaled elimination gives the same minors and basis as the
    former one that rescaled every trailing row at every step, and the same
    error on a degenerate form."""
    try:
        want = diagonal_pivots_eager(gram)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=str(exc)):
            _diagonal_pivots(gram)
        return
    assert _diagonal_pivots(gram) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairing_qvalue_and_gram_match_pairwise(data):
    """Dense and diagonal Grams (the diagonal ones take the scaling path):
    pairing, qvalue and Sublattice.gram against u^T G v entry by entry. The
    Gram and the basis are each drawn dense or about half zero, so gram_of
    forms G B^T both directly and as (B G)^T."""
    n = data.draw(st.integers(1, 7))
    small = st.integers(-9, 9)
    sparse = st.one_of(st.just(0), small)
    gram_entry, basis_entry = (data.draw(st.sampled_from([small, sparse])) for _ in range(2))
    gram = [[0] * n for _ in range(n)]
    dense = data.draw(st.booleans())
    for i in range(n):
        for j in range(i, n if dense else i + 1):
            gram[i][j] = gram[j][i] = data.draw(gram_entry)
    latt = from_rows(gram)
    assert (latt.diagonal is not None) == all(
        gram[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    u, v = ([data.draw(small) for _ in range(n)] for _ in range(2))
    assert pairing(latt, u, v) == pairing_pairwise(gram, u, v)
    assert qvalue(latt, u) == pairing_pairwise(gram, u, u)
    basis = [tuple(data.draw(basis_entry) for _ in range(n)) for _ in range(data.draw(st.integers(1, n)))]
    assume(rational_rank(basis) == len(basis))
    assert Sublattice(latt, tuple(basis)).gram() == tuple(
        tuple(pairing_pairwise(gram, a, b) for b in basis) for a in basis)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gram_of_diagonal_matches_the_full_reference(data):
    """On a diagonal Gram, the upper triangle mirrored is the product the
    former kernel formed in full, for any rows, dependent or zero ones too."""
    n = data.draw(st.integers(1, 10))
    latt = diag_lattice(*(data.draw(st.integers(-10**6, 10**6)) for _ in range(n)))
    entry = data.draw(st.sampled_from([st.integers(-3, 3), st.integers(-10**6, 10**6)]))
    rows = [tuple(data.draw(entry) for _ in range(n)) for _ in range(data.draw(st.integers(0, 8)))]
    assert gram_of(latt, rows) == gram_of_full(latt, rows)
