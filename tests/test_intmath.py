import math

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.ntheory.residue_ntheory import sqrt_mod as sympy_sqrt_mod
from sympy.solvers.diophantine.diophantine import ldescent as sympy_ldescent

from oracle_utils import two_squares_scan
from qforge.errors import PreconditionError
from qforge.intmath import (
    factorize,
    four_squares,
    is_prime,
    ldescent,
    next_prime,
    primes_from,
    sqrt_mod,
    two_squares,
)

# The least strong pseudoprimes to the first 4, 9, 12 and 13 primes: a
# base table that stops one range too early, or a BPSW branch that is
# never reached, lets one of them through.
PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461,
                3317044064679887385961981)
SQUAREFREE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 97, 101,
                     1009, 65537, 1000003)


@st.composite
def squarefree(draw, max_primes=4):
    """A squarefree integer > 1: a product of distinct primes, with the
    primes small enough that sympy's factorint lists them ascending."""
    primes = draw(st.sets(st.sampled_from(SQUAREFREE_PRIMES), min_size=1, max_size=max_primes))
    return math.prod(primes)


@given(st.integers(0, 10**40) | st.sampled_from(PSEUDOPRIMES))
@settings(max_examples=500, deadline=None)
@example(3317044064679887385961981)
def test_is_prime_and_next_prime_match_sympy(n):
    assert is_prime(n) == sympy.isprime(n)
    assert next_prime(n) == sympy.nextprime(n)


def test_is_prime_below_1e5_matches_sympy():
    assert [n for n in range(10**5) if is_prime(n)] == list(sympy.primerange(10**5))


@given(st.integers(1, 10**20) | st.builds(lambda a, b: a * b, st.integers(1, 10**8),
                                          st.integers(1, 10**8)))
@settings(max_examples=300, deadline=None)
def test_factorize_matches_factorint(n):
    f = factorize(n)
    assert f == sympy.factorint(n)
    assert list(f) == sorted(f)


@given(squarefree(), st.integers(-10**6, 10**6), st.booleans())
@settings(max_examples=500, deadline=None)
@example(15, 4, False)  # 7 = 15 // 2 is a root, and 2 is returned
@example(21, 1, False)
def test_sqrt_mod_matches_sympy(m, a, square):
    if square:
        a = a * a
    assert sqrt_mod(a, m) == sympy_sqrt_mod(a, m)


def _sympy_ldescent(a, b):
    try:
        return sympy_ldescent(a, b)
    except TypeError:  # the descent reached an unsolvable equation
        return None


@given(squarefree(3), squarefree(3), st.sampled_from([(1, 1), (1, -1), (-1, 1)]))
@settings(max_examples=500, deadline=None)
def test_ldescent_matches_sympy(a, b, signs):
    a, b = signs[0] * a, signs[1] * b
    expected = _sympy_ldescent(a, b)
    solution = ldescent(a, b)
    assert solution == expected
    if solution is not None:
        w, x, y = solution
        assert (w, x, y) != (0, 0, 0) and w * w == a * x * x + b * y * y


def test_two_squares_matches_scan_below_1e5():
    primes = [p for p in range(5, 10**5, 4) if is_prime(p)]
    assert len(primes) > 4000
    for p in primes:
        assert two_squares(p) == two_squares_scan(p), p
    assert two_squares(2) == two_squares_scan(2) == (1, 1)


def test_two_squares_near_1e30():
    """Out of reach of the scan: about 10^15 candidate legs."""
    found = 0
    for p in primes_from(10**30):
        if p % 4 == 1:
            a, b = two_squares(p)
            assert 0 < a <= b and a * a + b * b == p
            found += 1
            if found == 5:
                break


@pytest.mark.parametrize("n", [3, 7, 9, 21, 25, 10**6 + 3])
def test_two_squares_rejects_non_primes_and_3_mod_4(n):
    with pytest.raises(PreconditionError, match="not a sum of two coprime squares"):
        two_squares(n)


@given(st.integers(0, 10**40))
@settings(max_examples=300, deadline=None)
@example(0)
@example(7 * 4**20)
@example(214)  # no x leaves 214 - x^2 a square or (twice) a prime: four squares
def test_four_squares(n):
    roots = four_squares(n)
    assert len(roots) <= 4 and all(r > 0 for r in roots)
    assert sum(r * r for r in roots) == n
    assert roots == sorted(roots, reverse=True) == four_squares(n)


def test_four_squares_never_factors(monkeypatch):
    import qforge.intmath as intmath

    def refuse(n):
        raise AssertionError(f"factorize({n})")

    monkeypatch.setattr(intmath, "factorize", refuse)
    for n in (1, 2, 3, 6, 7, 14, 10**40 - 1, 2**127 - 1):
        assert sum(r * r for r in four_squares(n)) == n
