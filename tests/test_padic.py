import itertools
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle_utils import (
    common_value_scan,
    gf2_solve_reference,
    hasse_pairwise,
    hilbert_symbol_fraction,
    is_local_square_fraction,
    isotropic_over_q_oracle,
    local_solvable,
    signed_permutation_conjugate,
)
from qforge import padic
from qforge.catalog import resolve
from qforge.errors import PreconditionError
from qforge.intmath import squarefree_part
from qforge.lattice import diag_lattice, from_rows
from qforge.linalg import left_kernel, mat_mul, mat_vec, transpose
from qforge.padic import (
    INF,
    hilbert_symbol,
    invariant_triple,
    is_local_square,
    isotropic_vector,
    legendre,
    rational_diagonalize,
    rationally_equivalent,
    solve_prescribed_hilbert,
    symbol_support,
)

U = from_rows([[0, 1], [1, 0]], label="U")


def test_legendre_basic():
    assert legendre(1, 5) == 1
    assert legendre(2, 5) == -1  # squares mod 5 are {0, 1, 4}
    assert legendre(10, 5) == 0


def test_legendre_rejects_two():
    with pytest.raises(PreconditionError, match="2 is not an odd prime"):
        legendre(3, 2)


def test_hilbert_one_is_always_plus():
    for place in (2, 3, 5, INF):
        assert hilbert_symbol(1, -7, place) == 1


def test_hilbert_minus_one_pairs():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 2, 2) == 1


def test_hilbert_rejects_zero():
    with pytest.raises(PreconditionError, match="Hilbert symbol needs nonzero arguments"):
        hilbert_symbol(0, 3, 5)


def test_hilbert_matches_local_oracle_spot():
    # small spot check; the exhaustive sweep is acceptance criterion 2
    for p, k in [(2, 5), (3, 3), (5, 3)]:
        for a in range(-6, 7):
            for b in range(-6, 7):
                if a == 0 or b == 0:
                    continue
                want = 1 if local_solvable(a, b, p, k) else -1
                assert hilbert_symbol(a, b, p) == want, (a, b, p)


@given(
    st.integers(-300, 300).filter(lambda x: x != 0),
    st.integers(-300, 300).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7, 11, INF]),
)
@settings(max_examples=150, deadline=None)
def test_hilbert_symmetry(a, b, place):
    assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)


@given(
    st.integers(-60, 60).filter(lambda x: x != 0),
    st.integers(-60, 60).filter(lambda x: x != 0),
    st.integers(-60, 60).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7, INF]),
)
@settings(max_examples=150, deadline=None)
def test_hilbert_bimultiplicative(a, a2, b, place):
    lhs = hilbert_symbol(a * a2, b, place)
    rhs = hilbert_symbol(a, b, place) * hilbert_symbol(a2, b, place)
    assert lhs == rhs


@given(st.integers(-80, 80).filter(lambda x: x != 0), st.sampled_from([2, 3, 5, 7, INF]))
@settings(max_examples=100, deadline=None)
def test_hilbert_a_minus_a(a, place):
    assert hilbert_symbol(a, -a, place) == 1


@given(st.integers(-80, 80).filter(lambda x: x not in (0, 1)))
@settings(max_examples=60, deadline=None)
def test_hilbert_a_one_minus_a(a):
    for place in (2, 3, 5, INF):
        assert hilbert_symbol(a, 1 - a, place) == 1


def _product_over_places(a, b) -> int:
    from qforge.padic import symbol_support

    prod = 1
    for place in symbol_support(a, b):
        prod *= hilbert_symbol(a, b, place)
    return prod


@given(
    st.fractions(
        min_value=Fraction(-10**4), max_value=Fraction(10**4), max_denominator=10**4
    ).filter(lambda q: q != 0),
    st.fractions(
        min_value=Fraction(-10**4), max_value=Fraction(10**4), max_denominator=10**4
    ).filter(lambda q: q != 0),
)
@settings(max_examples=120, deadline=None)
def test_hilbert_product_formula(a, b):
    assert _product_over_places(a, b) == 1


_RATIONALS = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
).filter(lambda q: q != 0)


@given(_RATIONALS, _RATIONALS)
@settings(max_examples=300, deadline=None)
@example(Fraction(1, 3), 3)  # (1/3, 3) at 3 is -1, a float where 1/3 has valuation -1
@example(Fraction(-7, 32), Fraction(5, 48))
def test_symbols_match_the_fraction_reference(a, b):
    """The square-class symbols agree with the Fraction reference (units
    split off as rationals) at every place where a symbol of a and b can
    be -1, and are ints there."""
    for place in symbol_support(a, b):
        value = hilbert_symbol(a, b, place)
        assert type(value) is int and value == hilbert_symbol_fraction(a, b, place), place
        assert is_local_square(a, place) == is_local_square_fraction(a, place), place
        assert is_local_square(b, place) == is_local_square_fraction(b, place), place


def test_rational_diagonalize_diag_input():
    diag, basis = rational_diagonalize(diag_lattice(3, -7).gram)
    assert diag == [3, -7]
    assert basis == ((1, 0), (0, 1))


def test_rational_diagonalize_hyperbolic():
    diag, basis = rational_diagonalize(U.gram)
    check = mat_mul(transpose(basis), mat_mul(U.gram, basis))
    assert [check[i][i] for i in range(2)] == diag
    assert check[0][1] == check[1][0] == 0
    triple = invariant_triple(U)
    assert triple.signature == (1, 1)
    assert triple.disc == -1
    assert triple.minus_places == ()


def test_invariant_triple_e8():
    t = invariant_triple(resolve("E8"))
    assert t.signature == (8, 0)
    assert t.disc == 1


def test_invariant_triple_examples():
    assert invariant_triple(diag_lattice(1, 1)) == invariant_triple(diag_lattice(2, 2))
    t = invariant_triple(diag_lattice(2, 5))
    assert 5 in t.minus_places  # (2,5)_5 = (2/5) = -1
    # the product formula forces a second minus place
    assert len(t.minus_places) % 2 == 0


def test_rationally_equivalent():
    assert rationally_equivalent(diag_lattice(1, 1), diag_lattice(2, 2))
    assert not rationally_equivalent(diag_lattice(1, 1), diag_lattice(1, -1))
    with pytest.raises(PreconditionError, match="forms have different ranks"):
        rationally_equivalent(diag_lattice(1), diag_lattice(1, 1))


def test_explicit_isometry_for_equivalence_example():
    # x' = x + y, y' = x - y realizes diag(1,1) ~ diag(2,2) up to scaling
    t = ((1, 1), (1, -1))
    g = mat_mul(transpose(t), mat_mul(diag_lattice(1, 1).gram, t))
    assert g == diag_lattice(2, 2).gram


def test_diagonalization_invariance_randomized():
    rng = random.Random(2024)
    for _ in range(20):
        rank = rng.randint(2, 5)
        while True:
            rows = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for j in range(i, rank):
                    rows[i][j] = rows[j][i] = rng.randint(-9, 9)
            latt = from_rows(rows)
            if latt.det() != 0:
                break
        base = invariant_triple(latt)
        for seed in (1, 2, 3):
            conjugate = signed_permutation_conjugate(latt.gram, random.Random(seed))
            assert invariant_triple(conjugate) == base


def test_solve_prescribed_trivial():
    assert solve_prescribed_hilbert(7, {}) == 1


def test_solve_prescribed_minus_one():
    y = solve_prescribed_hilbert(-1, {2: -1, INF: -1})
    assert y == -1


def test_solve_prescribed_five():
    y = solve_prescribed_hilbert(5, {5: -1, 2: -1})
    assert hilbert_symbol(5, y, 5) == -1
    assert hilbert_symbol(5, y, 2) == -1
    assert hilbert_symbol(5, y, INF) == 1
    assert hilbert_symbol(5, y, 3) == 1


def test_solve_prescribed_rejects_local_square():
    with pytest.raises(PreconditionError, match="local square"):
        solve_prescribed_hilbert(4, {5: -1, 2: -1})  # 4 is a square everywhere


def test_solve_prescribed_rejects_odd_product():
    with pytest.raises(PreconditionError, match="product"):
        solve_prescribed_hilbert(5, {5: -1})


def test_solve_prescribed_verified_at_unspecified_places():
    y = solve_prescribed_hilbert(Fraction(15), {3: -1, 5: -1})
    for place in (2, 3, 5, 7, 11, 13, INF):
        want = -1 if place in (3, 5) else 1
        assert hilbert_symbol(15, y, place) == want


def test_solve_prescribed_rejects_sign_against_the_real_place():
    # (x, y) at the real place is -1 exactly when x < 0 and y < 0
    with pytest.raises(PreconditionError, match="real place"):
        solve_prescribed_hilbert(-1, {2: -1, INF: -1}, sign=1)
    with pytest.raises(PreconditionError, match="real place"):
        solve_prescribed_hilbert(-3, {}, sign=-1)


def test_solve_prescribed_auxiliary_prime_beyond_25():
    """No auxiliary prime among the first 25 outside the base works here:
    the solver goes on to 173 instead of giving up."""
    x = -3 * 5 * 7 * 11 * 17 * 19 * 23 * 29 * 41
    y = solve_prescribed_hilbert(x, {5: -1, 11: -1})
    assert y == 36157 == 11 * 19 * 173
    for place in symbol_support(x, y):
        assert hilbert_symbol(x, y, place) == (-1 if place in (5, 11) else 1)


PRIMES_TO_43 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def _preconditions_fail(x, targets, sign) -> bool:
    return (math.prod(targets.values()) != 1
            or any(d == -1 and is_local_square(x, v) for v, d in targets.items())
            # (x, y) is -1 at the real place exactly when x < 0 and y < 0
            or (sign is not None and (x < 0 and sign < 0) != (targets.get(INF, 1) == -1)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, -1]), st.sets(st.sampled_from(PRIMES_TO_43)),
       st.dictionaries(st.sampled_from(PRIMES_TO_43 + [47, INF]), st.sampled_from([1, -1])),
       st.sampled_from([None, 1, -1]))
def test_solve_prescribed_property(x_sign, x_primes, targets, sign):
    """Either a y verified at every place with the requested sign, or a
    PreconditionError exactly when the product, a local square or the real
    place rules every y out; the solve ends in both cases (an alarm guards
    it)."""
    x = x_sign * math.prod(x_primes)
    previous = signal.signal(signal.SIGALRM, _loop_alarm)
    signal.alarm(20)
    try:
        if _preconditions_fail(x, targets, sign):
            with pytest.raises(PreconditionError):
                solve_prescribed_hilbert(x, targets, sign=sign)
            return
        y = solve_prescribed_hilbert(x, targets, sign=sign)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert sign is None or (y > 0) == (sign > 0)
    for place in set(symbol_support(x, y)) | set(targets):
        assert hilbert_symbol(x, y, place) == targets.get(place, 1)


def _loop_alarm(signum, frame):
    raise AssertionError("solve_prescribed_hilbert did not end within 20 s")


def test_is_local_square():
    assert is_local_square(4, 5)
    assert not is_local_square(2, 5)
    assert not is_local_square(-1, INF)
    assert is_local_square(17, 2)  # 17 = 1 mod 8
    assert not is_local_square(5, 2)


# ---------------------------------------------------------------------------
# Isotropic vectors


def _q(gram, x):
    return sum(x[i] * gram[i][j] * x[j] for i in range(len(x)) for j in range(len(x)))


@st.composite
def _scrambled_diagonal(draw, ranks):
    """(diagonal entries, A D A^T) for a random unimodular A: the Gram is
    non-diagonal unless A is a signed permutation, and isotropic exactly
    when the diagonal is."""
    n = draw(ranks)
    diag = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=n, max_size=n))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            c = draw(st.sampled_from([1, -1, 2]))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    gram = [[sum(rows[i][k] * diag[k] * rows[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return diag, gram


def _isotropic_per_oracle(diag):
    if len(diag) >= 5:  # Meyer: isotropic iff indefinite
        return any(a > 0 for a in diag) and any(a < 0 for a in diag)
    return isotropic_over_q_oracle(diag)


@settings(max_examples=250, deadline=None)
@given(_scrambled_diagonal(st.integers(2, 8)))
def test_isotropic_vector_contract(case):
    diag, gram = case
    if _isotropic_per_oracle(diag):
        x = isotropic_vector(gram)
        assert _q(gram, x) == 0 and math.gcd(*x) == 1
    else:
        with pytest.raises(PreconditionError, match="anisotropic"):
            isotropic_vector(gram)


@settings(max_examples=250, deadline=None)
@given(_scrambled_diagonal(st.integers(2, 4)))
def test_isotropic_vector_agrees_with_local_oracle(case):
    """Rank 2 to 4, where anisotropic forms exist: the construction raises
    exactly when the exhaustive local search finds an obstruction."""
    diag, gram = case
    try:
        x = isotropic_vector(gram)
    except PreconditionError:
        assert not isotropic_over_q_oracle(diag)
    else:
        assert isotropic_over_q_oracle(diag) and _q(gram, x) == 0


_SQUAREFREE = st.integers(-40, 40).filter(lambda a: a and squarefree_part(a) == a)


@settings(max_examples=150, deadline=None)
@given(st.lists(_SQUAREFREE, min_size=2, max_size=2), st.lists(_SQUAREFREE, min_size=2, max_size=3))
def test_common_value_matches_scan(h, g):
    """The sieved scan finds the plain scan's t; again with the sieve from
    t = 1 in blocks of 8 and places above 7 checked one by one, so that
    every path of padic._admitted_values is taken, and then its values below
    300 are those of a check one by one."""
    if padic._obstruction(h + g) is not None:
        return
    expected = common_value_scan(h, g)
    assert padic._common_value(h, g) == expected
    places, admitted = padic._admitted_classes(h, g)
    plain = [t for k in range(1, 300) for t in (k, -k)
             if all(padic._square_class(t, v) in admitted[v] for v in places)]
    saved = padic._SIEVE_START, padic._SIEVE_BLOCK, padic._SIEVE_PRIME
    padic._SIEVE_START, padic._SIEVE_BLOCK, padic._SIEVE_PRIME = 1, 8, 7
    try:
        assert list(itertools.takewhile(lambda t: abs(t) < 300,
                                        padic._admitted_values(places, admitted))) == plain
        assert padic._common_value(h, g) == expected
    finally:
        padic._SIEVE_START, padic._SIEVE_BLOCK, padic._SIEVE_PRIME = saved


def test_common_value_far_from_zero():
    # the split met on a rank-7 complement: ten places, and the least t lies
    # near 5 * 10^7 (about 10^8 candidates, minutes one by one)
    h, g = [-1137, -2604515667], [-2078348525682, 1123693527]
    t = padic._common_value(h, g)
    assert abs(t) > 10**6
    assert padic._obstruction(h + [-t]) is None and padic._obstruction(g + [t]) is None


def test_isotropic_vector_worked_examples():
    assert isotropic_vector(U.gram) == (1, 0)
    assert isotropic_vector(diag_lattice(1, -1).gram) == (1, 1)
    # x^2 + y^2 = 3 z^2 has no solution mod 4
    with pytest.raises(PreconditionError, match="anisotropic at 2"):
        isotropic_vector(diag_lattice(1, 1, -3).gram)
    with pytest.raises(PreconditionError, match="anisotropic at the real place"):
        isotropic_vector(diag_lattice(1, 2, 3, 5, 7, 11).gram)
    x = isotropic_vector(resolve("K3").gram)
    assert x == (1,) + (0,) * 21  # the first basis vector of U
    with pytest.raises(PreconditionError, match="rank 0"):
        isotropic_vector([])


_NONZERO = st.one_of(st.integers(-60, 60), st.fractions(-60, 60, max_denominator=12)).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.lists(_NONZERO, max_size=9), st.sampled_from([2, 3, 5, 7, 11, INF]))
def test_hasse_invariant_matches_pairwise_product(diag, place):
    """n - 1 symbols of prefix products give the product over all pairs."""
    assert padic.hasse_invariant(diag, place) == hasse_pairwise(diag, place)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_isotropic_or_obstruction_degenerate_gives_radical_vector(data):
    """A degenerate form with no zero diagonal entry, so that the answer
    cannot come from the basis: the reduction stops at a vanishing minor
    and the answer is still the first radical vector of the Hermite kernel."""
    n = data.draw(st.integers(2, 6))
    rank = data.draw(st.integers(1, n - 1))
    rows = [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(rank)]
    entries = [data.draw(st.sampled_from([1, -1, 2, -3, 5])) for _ in range(rank)]
    gram = [[sum(r[i] * a * r[j] for r, a in zip(rows, entries)) for j in range(n)]
            for i in range(n)]
    assume(all(gram[i][i] for i in range(n)) and any(map(any, gram)))
    content = math.gcd(*(x for row in gram for x in row))
    kernel = left_kernel([[x // content for x in row] for row in gram])
    x = padic.isotropic_or_obstruction(gram)
    assert any(x) and math.gcd(*x) == 1 and not any(mat_vec(gram, x))
    assert x == tuple(padic._primitive(kernel[0]))


@st.composite
def _gf2_system(draw):
    """(rows, rhs, nvars): up to 16 equations in up to 14 variables over
    GF(2), consistent or not."""
    nvars = draw(st.integers(1, 14))
    nrows = draw(st.integers(0, 16))
    bits = st.integers(0, 1)
    rows = draw(st.lists(st.lists(bits, min_size=nvars, max_size=nvars),
                         min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(bits, min_size=nrows, max_size=nrows))
    return rows, rhs, nvars


@given(_gf2_system())
@settings(max_examples=400, deadline=None)
@example(([[1, 1], [1, 1]], [0, 1], 2))
@example(([[0, 1, 1], [1, 1, 0], [1, 0, 1]], [1, 0, 1], 3))
def test_gf2_solve_matches_the_back_substitution(system):
    """One fully reduced pass keeps the pivots of the echelon pass with
    back-substitution, so the solution with free variables 0, or None for an
    inconsistent system, is the same."""
    assert padic._gf2_solve(*system) == gf2_solve_reference(*system)
