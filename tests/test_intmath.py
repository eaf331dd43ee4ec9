import math

import pytest

from oracle_utils import pell_fundamental_squaring, two_squares_scan
from qforge.errors import PreconditionError
from qforge.intmath import is_prime, pell_fundamental, primes_from, two_squares


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


def test_pell_fundamental_matches_the_squaring_loop():
    for d in range(2, 10**4):
        if math.isqrt(d) ** 2 != d:
            assert pell_fundamental(d) == pell_fundamental_squaring(d), d
