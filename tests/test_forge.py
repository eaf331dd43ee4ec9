import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_utils import all_values_divisible_by, binary_zero_mod_p
from qforge.catalog import resolve
from qforge.errors import PreconditionError
from qforge.forge import (
    SmallnessCertificate,
    check_certificate,
    find_isotropic_pair,
    find_rank2_avoiding,
    find_w_odd_valuation,
)
from qforge.lattice import (
    diag_lattice,
    direct_sum,
    from_rows,
    min_nonzero_abs,
    orthogonal_complement,
    pairing,
    qvalue,
    saturation_index,
    signature,
    span,
)
from qforge.padic import isotropic_vector

U = from_rows([[0, 1], [1, 0]], label="U")
UU2 = direct_sum(U, U, diag_lattice(2), label="U+U+<2>")


def test_find_isotropic_examples():
    # the isotropic vector find_isotropic_pair starts from
    assert isotropic_vector(U.gram) == (1, 0)
    assert isotropic_vector(diag_lattice(1, -1).gram) == (1, 1)
    assert isotropic_vector(diag_lattice(1, 1, -1, -1, -1).gram) == (1, 0, 1, 0, 0)


def test_find_isotropic_output_contract():
    for latt in (U, diag_lattice(2, -3, 5, -7, 11)):
        v = isotropic_vector(latt.gram)
        assert qvalue(latt, v) == 0
        assert math.gcd(*v) == 1


def test_find_isotropic_not_found():
    # 5 x^2 - 15 y^2 = 0 needs x^2 = 3 y^2: anisotropic, decided with no budget
    with pytest.raises(PreconditionError, match="anisotropic"):
        isotropic_vector(diag_lattice(5, -15).gram)


def test_find_isotropic_pair_u():
    v, vp = find_isotropic_pair(U)
    assert (v, vp) == ((1, 0), (0, 1))
    assert pairing(U, v, vp) == 1


def test_find_isotropic_pair_uu():
    v, vp = find_isotropic_pair(direct_sum(U, U))
    assert (v, vp) == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_find_isotropic_pair_generic():
    latt = diag_lattice(1, -1, -1, 1, -1)
    v, vp = find_isotropic_pair(latt)
    assert qvalue(latt, v) == 0
    assert qvalue(latt, vp) == 0
    assert pairing(latt, v, vp) != 0


@pytest.mark.parametrize(
    "name", ["U+U+<2>", "K3", "U+E8(-1)", "diag(1,-1,-1,1,-1)", "diag(2,-3,5,-7,11)"]
)
def test_find_isotropic_pair_contract(name):
    latt = resolve(name)
    v, vp = find_isotropic_pair(latt)
    assert qvalue(latt, v) == 0 and qvalue(latt, vp) == 0
    assert pairing(latt, v, vp) != 0
    assert math.gcd(*v) == 1 and math.gcd(*vp) == 1


@st.composite
def _nondegenerate_grams(draw):
    n = draw(st.integers(3, 6))
    entries = st.integers(-6, 6)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entries)
    latt = from_rows(rows)
    assume(latt.det() != 0)
    return latt


@settings(max_examples=150, deadline=None)
@given(
    latt=_nondegenerate_grams(),
    p=st.sampled_from([3, 5, 7, 11, 13, 31, 101, 1009]),
)
def test_find_w_odd_valuation_contract(latt, p):
    """q(w) < 0 whenever the lattice has a negative vector, else q(w) > 0."""
    assume(latt.det() % p != 0)
    comp = span(latt, [tuple(int(i == j) for j in range(latt.rank)) for i in range(latt.rank)])
    w, beta = find_w_odd_valuation(comp, p)
    value = qvalue(latt, w)
    assert math.gcd(*w) == 1
    assert value == beta * p and beta % p != 0
    _, neg = signature(latt)
    assert (value < 0) == (neg > 0)


def test_find_w_worked_instance():
    comp = orthogonal_complement(span(UU2, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]))
    w, beta = find_w_odd_valuation(comp, 5)
    assert w == (1, -5, 0)
    assert comp.to_ambient(w) == (0, 0, 1, -5, 0)
    assert beta == -2


def test_find_w_rank1():
    # diag(2) has no negative vector, so q(w) > 0
    comp = span(diag_lattice(2), [(1,)])
    w, beta = find_w_odd_valuation(comp, 2)
    assert w == (1,) and beta == 1


def test_find_w_unreachable_valuation():
    # x^2 + y^2 is anisotropic mod 3, so no primitive w has q(w) divisible by 3
    comp = span(diag_lattice(1, 1), [(1, 0), (0, 1)])
    with pytest.raises(PreconditionError):
        find_w_odd_valuation(comp, 3)


def test_certificate_worked_example():
    cert = SmallnessCertificate(p=5, alpha1=30, alpha2=-10, beta1=6, beta2=-2, n1=0, n2=0)
    assert check_certificate(cert, 4)[0]
    assert not check_certificate(cert, 5)[0]  # p > N must be strict


def test_certificate_isotropic_rejected():
    cert = SmallnessCertificate(p=5, alpha1=5, alpha2=-5, beta1=1, beta2=-1, n1=0, n2=0)
    ok, reason = check_certificate(cert, 1)
    assert not ok
    assert "isotropic" in reason or "zero" in reason


ODD_PRIMES_TO_97 = [p for p in range(3, 98, 2) if all(p % d for d in range(3, p, 2))]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), isotropic=st.booleans())
def test_certificate_verdict_matches_the_mod_p_enumeration(data, isotropic):
    """For an odd prime p <= 97 and beta1, beta2 prime to p, check_certificate
    accepts exactly when a search over all (x, y) mod p finds no nonzero zero
    of beta1 x^2 + beta2 y^2. beta2 = -beta1 c mod p with c a square mod p
    (isotropic) or a non-square (anisotropic), so both kinds are drawn."""
    p = data.draw(st.sampled_from(ODD_PRIMES_TO_97))
    squares = {x * x % p for x in range(1, p)}
    c = data.draw(st.sampled_from(sorted(squares if isotropic else set(range(1, p)) - squares)))
    beta1 = data.draw(st.integers(-10**6, 10**6).filter(lambda b: b % p))
    beta2 = -beta1 * c % p + p * data.draw(st.integers(-1000, 1000))
    n1, n2 = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    cert = SmallnessCertificate(p=p, alpha1=beta1 * p ** (2 * n1 + 1),
                                alpha2=beta2 * p ** (2 * n2 + 1),
                                beta1=beta1, beta2=beta2, n1=n1, n2=n2)
    zero = binary_zero_mod_p(beta1, beta2, p)
    assert (zero is not None) == isotropic
    assert check_certificate(cert, p - 1)[0] == (zero is None)


def test_certificate_malformed_rejected():
    cert = SmallnessCertificate(p=5, alpha1=30, alpha2=-10, beta1=6, beta2=-2, n1=1, n2=0)
    assert not check_certificate(cert, 1)[0]
    cert = SmallnessCertificate(p=5, alpha1=25, alpha2=-10, beta1=5, beta2=-2, n1=0, n2=0)
    assert not check_certificate(cert, 1)[0]


def test_certificate_huge_exponent_rejected_at_once():
    # |alpha| >= p^(2n+1) has more than 2n + 1 bits, so 30 cannot be 6 * 5^(2 10^12 + 1)
    cert = SmallnessCertificate(p=5, alpha1=30, alpha2=-10, beta1=6, beta2=-2, n1=10**12, n2=0)
    assert check_certificate(cert, 4) == (False, "alpha != beta * p^(2n+1)")
    huge = SmallnessCertificate(p=5, alpha1=6 * 5**201, alpha2=-10, beta1=6, beta2=-2,
                                n1=100, n2=0)
    assert check_certificate(huge, 4)[0]  # a large n that does hold still verifies


def test_rank2_preconditions():
    with pytest.raises(PreconditionError):
        find_rank2_avoiding(diag_lattice(1, 1), 3)
    with pytest.raises(PreconditionError):
        find_rank2_avoiding(diag_lattice(1, 1, 1, 1, 1), 3)


def test_rank2_worked_instance():
    res = find_rank2_avoiding(UU2, 4)
    cert = res.certificate
    assert cert.p == 5
    assert res.w == (0, 0, 1, -5, 0)
    assert qvalue(UU2, res.v1) == cert.alpha1
    assert qvalue(UU2, res.w) == cert.alpha2
    assert pairing(UU2, res.v1, res.w) == 0
    assert check_certificate(cert, 4)[0]
    latt = res.lattice.as_lattice()
    assert signature(latt) == (1, 1)
    assert saturation_index(res.lattice) == 1
    best, _ = min_nonzero_abs(latt, 200)
    assert best is not None and best >= 5


def test_rank2_k3():
    res = find_rank2_avoiding(resolve("K3"), 2)
    assert res.certificate.p >= 3
    latt = res.lattice.as_lattice()
    assert signature(latt) == (1, 1)
    best, _ = min_nonzero_abs(latt, 200)
    assert best is not None and best >= 3


def test_rank2_values_multiples_of_p():
    res = find_rank2_avoiding(UU2, 4)
    ok, _ = all_values_divisible_by(res.lattice.as_lattice(), res.certificate.p, 100)
    assert ok


def test_select_prime():
    assert find_rank2_avoiding(UU2, 4).certificate.p == 5
    assert find_rank2_avoiding(UU2, 0).certificate.p == 3
    # the complement U + diag(-1, -17) has determinant -17, the last minor of
    # its pivots (the first is -1): p skips 17
    assert find_rank2_avoiding(resolve("U+U+diag(-1,-17)"), 13).certificate.p == 19


def test_av_bvp_identity():
    # q(a v + b v') = 2 a b q(v, v') for isotropic v, v'
    rng = random.Random(11)
    latt = direct_sum(U, U)
    v, vp = find_isotropic_pair(latt)
    for _ in range(25):
        a = rng.randint(-9, 9)
        b = rng.randint(-9, 9)
        combo = tuple(a * x + b * y for x, y in zip(v, vp))
        assert qvalue(latt, combo) == 2 * a * b * pairing(latt, v, vp)


def test_rank2_deterministic():
    first = find_rank2_avoiding(UU2, 4)
    second = find_rank2_avoiding(UU2, 4)
    assert first == second
