import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_utils import (
    brute_char_poly,
    dominant_root_interval_fractions,
    isometry_inverse,
    isometry_power,
    matrix_order,
)
from qforge.errors import InternalInconsistencyError, PreconditionError
from qforge.isom import (
    Isometry,
    Tag,
    _dominant_root_interval,
    classify,
    eichler_transvection,
    find_hyperbolic,
    find_parabolic,
    is_isometry,
)
from qforge.lattice import binary_cycle, diag_lattice, from_rows, qvalue
from qforge.linalg import char_poly, identity, mat_mul, mat_pow, mat_sub, is_zero
from qforge.polys import strip_cyclotomic

L12 = diag_lattice(1, -2)
U_MINUS2 = from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -2]])


def pell_automorph(latt):
    """The automorph of the least unit > 1 of norm +1, from binary_cycle."""
    return Isometry(latt, binary_cycle(latt)[2])


def test_is_isometry():
    assert is_isometry(identity(2), L12)
    assert is_isometry(((3, 4), (2, 3)), L12)
    assert not is_isometry(((2, 0), (0, 1)), L12)


def test_isometry_constructor_validates():
    with pytest.raises(PreconditionError, match="does not preserve the Gram matrix"):
        Isometry(L12, ((2, 0), (0, 1)))


def test_char_poly_matches_brute_force():
    for mat in [((3, 4), (2, 3)), ((1, 1, -2), (0, 1, 0), (0, -1, 1))]:
        assert char_poly(mat) == brute_char_poly(mat)


def test_classify_identity():
    cls = classify(Isometry(L12, identity(2)))
    assert cls.tag is Tag.ELLIPTIC and cls.order == 1


def test_classify_minus_identity():
    cls = classify(Isometry(diag_lattice(1, -1), ((-1, 0), (0, -1))))
    assert cls.tag is Tag.ELLIPTIC and cls.order == 2


def test_classify_hyperbolic():
    iso = Isometry(L12, ((3, 4), (2, 3)))
    cls = classify(iso)
    assert cls.tag is Tag.HYPERBOLIC
    assert cls.dominant_factor == (1, -6, 1)
    lo, hi = cls.dominant_interval
    # contains 3 + 2*sqrt(2)
    assert lo < hi and lo > 1
    assert (lo * lo - 6 * lo + 1) * (hi * hi - 6 * hi + 1) <= 0


_QUADRATICS = st.integers(-10**6, 10**6).map(lambda t: (1, -t, 1))  # x^2 - t x + 1
_MONIC = st.integers(4, 8).flatmap(
    lambda d: st.lists(st.integers(-50, 50), min_size=d, max_size=d).map(lambda c: (*c, 1)))


def _outcome(interval, poly):
    try:
        return interval(poly)
    except InternalInconsistencyError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(poly=st.one_of(_QUADRATICS, _MONIC))
@example(poly=(-2, 1))  # x - 2 on (1, 3): the first midpoint is the root
@example(poly=(1, -3, 1))  # lambda = (3 + sqrt 5) / 2
@example(poly=(1, 3, 1))  # lambda = -(3 + sqrt 5) / 2, on (-B, -1)
@example(poly=(1, -2, 1))  # (x - 1)^2 changes sign on neither side
def test_dominant_root_interval_matches_the_fraction_bisection(poly):
    """The integer bisection gives the Fraction bisection's interval, or its
    error, on quadratics x^2 - t x + 1 with |t| <= 10^6 and on monic
    polynomials of degree 4 to 8."""
    assert _outcome(_dominant_root_interval, poly) == _outcome(
        dominant_root_interval_fractions, poly)


def test_classify_parabolic_transvection():
    iso = eichler_transvection(U_MINUS2, (1, 0, 0), (0, 0, 1))
    cls = classify(iso)
    assert cls.tag is Tag.PARABOLIC
    assert cls.quasi_unipotent_order == 1
    assert cls.fixed_isotropic == (1, 0, 0)


def test_classify_orientation_reversing_hyperbolic():
    """-g for the Pell automorph g of diag(2, -3) has char poly x^2 + 10x + 1,
    whose root off the unit circle is -5 - 2 sqrt(6) < -1."""
    g = Isometry(diag_lattice(2, -3), ((-5, -6), (-4, -5)))
    cls = classify(g)
    assert cls.tag is Tag.HYPERBOLIC and cls.dominant_factor == (1, 10, 1)
    assert cls.preserves_positive_cone is False
    lo, hi = cls.dominant_interval
    assert lo < hi < -1
    p = lambda x: x * x + 10 * x + 1  # noqa: E731
    assert p(lo) * p(hi) <= 0


def test_cyclotomic_test():
    assert strip_cyclotomic((-1, 1)) == ((1,), {1: 1})  # x - 1
    assert strip_cyclotomic((1, -6, 1))[0] == (1, -6, 1)  # x^2 - 6x + 1
    assert strip_cyclotomic((1, 1, 1)) == ((1,), {3: 1})  # x^2 + x + 1
    with pytest.raises(PreconditionError, match="expected a monic polynomial"):
        strip_cyclotomic((1, 2))


def test_pell_automorph_example():
    iso = pell_automorph(L12)
    assert iso.matrix == ((3, 4), (2, 3))
    assert classify(iso).tag is Tag.HYPERBOLIC


def test_pell_automorph_worked_lattice():
    latt = diag_lattice(30, -10)
    iso = pell_automorph(latt)
    assert is_isometry(iso.matrix, latt)
    assert classify(iso).tag is Tag.HYPERBOLIC
    cp = char_poly(iso.matrix)
    assert cp[0] == 1 and abs(cp[1]) > 2  # x^2 - t x + 1 with |t| > 2


def test_pell_rejects_isotropic():
    with pytest.raises(PreconditionError, match="form is definite, degenerate or isotropic"):
        binary_cycle(diag_lattice(1, -1))


def test_pell_rejects_definite():
    with pytest.raises(PreconditionError, match="form is definite, degenerate or isotropic"):
        binary_cycle(diag_lattice(1, 2))


def test_transvection_worked_matrix():
    iso = eichler_transvection(U_MINUS2, (1, 0, 0), (0, 0, 1))
    # e -> e, f -> e + f - g, g -> -2e + g
    assert iso.matrix == ((1, 1, -2), (0, 1, 0), (0, -1, 1))
    assert qvalue(U_MINUS2, iso.apply((0, 1, 0))) == 0
    b = mat_sub(iso.matrix, identity(3))
    b2 = mat_mul(b, b)
    assert not is_zero(b2)
    assert is_zero(mat_mul(b2, b))


def test_transvection_bad_inputs():
    with pytest.raises(PreconditionError, match="a must not be proportional to v"):
        eichler_transvection(U_MINUS2, (1, 0, 0), (1, 0, 0))
    with pytest.raises(PreconditionError, match="a must pair to zero with v"):
        eichler_transvection(U_MINUS2, (0, 1, 0), (1, 0, 0))  # pairing 1, not 0
    with pytest.raises(PreconditionError, match=r"rank >= 3 required"):
        eichler_transvection(from_rows([[0, 1], [1, 0]]), (1, 0), (0, 1))
    with pytest.raises(PreconditionError, match="rank-2 Jordan cell"):
        # q(a) = 0 gives (g - I)^2 = 0
        eichler_transvection(
            from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
            (1, 0, 0, 0),
            (0, 0, 1, 0),
        )


def test_transvection_odd_direction_doubles():
    latt = diag_lattice(1, -1, -1)
    v = (1, 1, 0)
    a = (0, 0, 1)  # q(a) = -1 odd, gets doubled internally
    iso = eichler_transvection(latt, v, a)
    assert classify(iso).tag is Tag.PARABOLIC


def test_transvection_powers_stay_parabolic():
    iso = eichler_transvection(U_MINUS2, (1, 0, 0), (0, 0, 1))
    for m in (2, 3, 5):
        power = isometry_power(iso, m)
        b = mat_sub(power.matrix, identity(3))
        assert not is_zero(mat_mul(b, b))
        assert classify(power).tag is Tag.PARABOLIC
    assert classify(isometry_inverse(iso)).tag is Tag.PARABOLIC


def test_hyperbolic_powers_and_inverse():
    iso = pell_automorph(L12)
    assert classify(isometry_power(iso, 3)).tag is Tag.HYPERBOLIC
    assert classify(isometry_power(iso, -2)).tag is Tag.HYPERBOLIC
    assert classify(isometry_inverse(iso)).tag is Tag.HYPERBOLIC


def test_find_parabolic_worked():
    iso, cls = find_parabolic(U_MINUS2, (1, 0, 0), (0, 0, 1))
    assert cls.tag is Tag.PARABOLIC
    assert iso.matrix == ((1, 1, -2), (0, 1, 0), (0, -1, 1))


def test_find_parabolic_rank2_fails():
    with pytest.raises(PreconditionError, match="rank >= 3"):
        find_parabolic(from_rows([[0, 1], [1, 0]]), (1, 0), (0, 1))


def test_find_hyperbolic():
    latt = diag_lattice(20, -10)
    iso, cls = find_hyperbolic(latt, binary_cycle(latt)[2])
    assert cls.tag is Tag.HYPERBOLIC and classify(iso) == cls


def test_find_hyperbolic_rejects_a_finite_order_automorph():
    with pytest.raises(InternalInconsistencyError, match="classified Tag.ELLIPTIC"):
        find_hyperbolic(L12, ((-1, 0), (0, -1)))


@given(st.integers(1, 4))
@settings(max_examples=4, deadline=None)
def test_classify_powers_same_tag(m):
    hyp = pell_automorph(L12)
    assert classify(isometry_power(hyp, m)).tag is Tag.HYPERBOLIC


def test_small_isometry_oracle_agreement_spot():
    # entries in [-1, 1]: a quick version of the exhaustive acceptance run
    from oracle_utils import enumerate_isometries, has_root_outside_unit_interval

    gram = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    latt = from_rows(gram)
    mats = enumerate_isometries(gram, 1)
    assert identity(3) in mats
    for mat in mats:
        tag = classify(Isometry(latt, mat)).tag
        order = matrix_order(mat, 6)
        if order is not None:
            expected = Tag.ELLIPTIC
        elif has_root_outside_unit_interval(brute_char_poly(mat)):
            expected = Tag.HYPERBOLIC
        else:
            expected = Tag.PARABOLIC
            g12 = mat_pow(mat, 12)
            b = mat_sub(g12, identity(3))
            assert is_zero(mat_mul(mat_mul(b, b), b))
        assert tag is expected, mat


def test_positive_cone_flag():
    flip = Isometry(diag_lattice(1, -1), ((-1, 0), (0, -1)))
    assert classify(flip).preserves_positive_cone is False
    keep = Isometry(diag_lattice(1, -1), ((1, 0), (0, -1)))
    assert classify(keep).preserves_positive_cone is True


def test_classify_requires_isometry_signature():
    with pytest.raises(PreconditionError, match=r"classification needs signature \(1, n\)"):
        classify(Isometry(diag_lattice(1, 1), identity(2)))
