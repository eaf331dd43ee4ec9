import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle_utils import (
    embedding_index_unreduced,
    glue_vectors,
    invariant_factors_by_minors,
    nikulin_glue_scan,
    nondegenerate_flag_fractions,
    within,
)
from qforge import glue, linalg, padic
from qforge.catalog import resolve
from qforge.errors import InternalInconsistencyError, PreconditionError, SearchExhaustedError
from qforge.glue import (
    _cancel_plane,
    _embedding_index,
    _nondegenerate_flag,
    _target_options,
    embed_pipeline,
    explicit_rational_isometry,
    extend_to_standard,
    nikulin_glue,
    standard_lattice,
)
from qforge.lattice import (
    QuadLattice,
    diag_lattice,
    direct_sum,
    enumerate_values,
    from_rows,
    rescale,
    saturation_index,
    signature,
    span,
)
from qforge.linalg import (
    det_bareiss,
    freeze,
    left_kernel,
    mat_mul,
    rational_rank,
    transpose,
)


def test_extend_rank1_to_definite():
    ext = extend_to_standard(diag_lattice(2), (4, 0))
    assert (ext.b0, ext.b1, ext.b2) == (1, 1, 2)
    assert ext.augmented_triple == ext.standard_triple


def test_extend_standard_input_pads_with_units():
    ext = extend_to_standard(diag_lattice(1, -1), (2, 3))
    assert abs(ext.b0) == abs(ext.b1) == abs(ext.b2) == 1
    assert ext.augmented_triple == ext.standard_triple


def test_extend_rejects_wrong_target():
    with pytest.raises(PreconditionError):
        extend_to_standard(diag_lattice(1, -1), (5, 1))


def test_extend_k3_to_3_22():
    ext = extend_to_standard(resolve("K3"), (3, 22))
    assert ext.augmented_triple == ext.standard_triple


def test_extend_all_targets_random():
    rng = random.Random(7)
    for _ in range(6):
        rank = rng.randint(1, 5)
        while True:
            rows = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for j in range(i, rank):
                    rows[i][j] = rows[j][i] = rng.randint(-9, 9)
            latt = from_rows(rows)
            if latt.det() != 0:
                break
        r, s = signature(latt)
        for target in [(r + 3, s), (r + 2, s + 1), (r + 1, s + 2), (r, s + 3)]:
            ext = extend_to_standard(latt, target)
            assert ext.augmented_triple == ext.standard_triple, (latt.gram, target)


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_extend_entries_of_a_thousand(seed):
    # the discriminant of these forms is a product of large primes; its square
    # class is read from the entries' valuations, where factoring the product
    # ran past 12 s
    rng = random.Random(seed)
    rows = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i, 6):
            rows[i][j] = rows[j][i] = rng.randint(-1000, 1000)
    latt = from_rows(rows)
    r, s = signature(latt)
    with within(2):
        ext = extend_to_standard(latt, (r + 3, s))
    assert ext.augmented_triple == ext.standard_triple


def _witness(g1, g2):
    """explicit_rational_isometry's (M, d), checked in integers: d > 0 and
    M^T G2 M == d^2 G1, so that T = M / d has T^T G2 T == G1."""
    m, d = explicit_rational_isometry(g1, g2)
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in m for x in row)
    assert mat_mul(transpose(m), mat_mul(g2, m)) == freeze([[d * d * x for x in row] for row in g1])
    return m, d


def test_explicit_isometry_identity():
    g = diag_lattice(3, -5).gram
    _witness(g, g)


def test_explicit_isometry_scaled_pair():
    m, d = _witness(diag_lattice(1, 1).gram, diag_lattice(2, 2).gram)
    assert (m, d) == (((1, 1), (1, -1)), 2)


def test_explicit_isometry_2112():
    _witness(diag_lattice(2, 1, 1, 2).gram, diag_lattice(1, 1, 1, 1).gram)


def test_explicit_isometry_requires_equivalence():
    """The public entry point refuses forms that are not rationally
    equivalent: another signature, and the same signature with another
    discriminant class."""
    for first, second in (((1, 1), (1, -1)), ((1, 1), (1, 3))):
        with pytest.raises(PreconditionError, match="forms are not rationally equivalent"):
            explicit_rational_isometry(diag_lattice(*first).gram, diag_lattice(*second).gram)


def test_explicit_isometry_exhaustion():
    # representing 13 by x^2 + y^2 needs (2, 3): constructed, not searched
    _witness(diag_lattice(13, 13).gram, diag_lattice(1, 1).gram)


def _scrambled(gram, rng: random.Random):
    """The Gram in the basis given by the rows of a seeded unimodular
    matrix: a signed permutation, then 2 * rank row additions of +-1."""
    n = len(gram)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return mat_mul(mat_mul(rows, gram), transpose(rows))


# Small diagonal entries: with entries in the hundreds the extension's
# entries reach 10^10, and some witnesses then take half a minute or more.
_CATALOG_FORMS = ("U", "U+U", "U+<2>", "diag(1,1,-1)", "diag(2,-3,5)", "E8", "E8(-1)",
                  "U+E8(-1)", "U+U+U+E8(-1)")


@st.composite
def _equivalent_pair(draw):
    """(G1, G2) rationally equivalent, G1 not diagonal: a scramble of a
    catalog form against the form or another scramble, or a scrambled
    diagonal form plus its extension against the standard form of the
    extension's signature."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        gram = resolve(draw(st.sampled_from(_CATALOG_FORMS))).gram
        return _scrambled(gram, rng), gram if draw(st.booleans()) else _scrambled(gram, rng)
    entries = draw(st.lists(st.integers(-12, 12).filter(bool), min_size=1, max_size=4))
    r, s = signature(diag_lattice(*entries))
    target = draw(st.sampled_from(_target_options(r, s)))
    ext = extend_to_standard(diag_lattice(*entries), target)
    g1 = diag_lattice(*entries, ext.b0, ext.b1, ext.b2).gram
    return _scrambled(g1, rng), standard_lattice(*target).gram


@given(_equivalent_pair())
@settings(max_examples=60, deadline=None)
def test_explicit_isometry_non_diagonal_pairs(pair):
    _witness(*pair)


def test_explicit_isometry_anisotropic_complements():
    # complements that turn anisotropic above rank 2 (definite from the
    # start, or after two steps): representing there made denominators of
    # hundreds of digits, whose square classes took minutes to factor
    rng = random.Random(29)
    e8 = resolve("E8(-1)").gram
    ext = extend_to_standard(diag_lattice(21, -22, -9, -3, -17), (2, 6))
    g1 = diag_lattice(21, -22, -9, -3, -17, ext.b0, ext.b1, ext.b2).gram
    pairs = [(_scrambled(e8, rng), _scrambled(e8, rng)),
             (_scrambled(g1, random.Random(53)), standard_lattice(2, 6).gram)]
    for g1, g2 in pairs:
        _witness(g1, g2)


@pytest.mark.parametrize("seed", [36, 184, 30, 278, 282])
def test_explicit_isometry_scrambled_images_stay_small(seed):
    # two scrambles of one form that never leave G2: without the Eichler
    # reduction there, image entries doubled from step to step, up to 14.8k
    # bits, and these took 7 s to past 20 s
    rng = random.Random(seed)
    gram = resolve("U+U+U+E8(-1)").gram
    g1 = _scrambled(gram, rng)
    g2 = _scrambled(gram, rng)
    with within(2):
        m, d = _witness(g1, g2)
    # the entries of T = M / d in lowest terms
    t = [Fraction(x, d) for row in m for x in row]
    assert max(max(abs(x.numerator), x.denominator) for x in t).bit_length() < 4096


# hyperbolic planes W of (U + <1>) + U, in the coordinates e1, e2, e3, h1, h2:
# inside the first summand, the last U itself, and planes meeting both, so
# that w1 pairs with h1, only with h2, or with neither and w2 with h1 or not
_PLANES = (
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
    ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 1)),
    ((0, 1, 0, 0, 1), (1, 0, 0, 0, 0)),
    ((1, 0, 0, 0, 0), (0, 1, 0, 1, 0)),
    ((0, 1, 0, 1, 0), (1, 0, 0, 0, 0)),
    ((1, 0, 0, 0, 0), (0, 1, 0, 1, 1)),
    ((0, 0, 0, 1, 0), (0, 0, 1, 0, 1)),
    ((1, 0, 0, 0, 1), (0, 1, 0, 0, 0)),
    ((0, 1, 0, 0, 0), (1, 0, 0, 0, 1)),
)


@pytest.mark.parametrize("plane", _PLANES)
def test_cancel_plane_moves_images_into_g2(plane):
    ambient = direct_sum(resolve("U+<1>"), resolve("U"))
    w = [list(v) for v in plane]
    images = left_kernel(transpose(mat_mul(w, ambient.gram)))  # W's complement
    moved = _cancel_plane(ambient, [(x, 1) for x in images])
    rows = [[Fraction(c, s) for c in x] for x, s in moved]
    g2 = resolve("U+<1>").gram
    assert mat_mul(rows, mat_mul(g2, transpose(rows))) == mat_mul(
        images, mat_mul(ambient.gram, transpose(images)))


@st.composite
def _nondegenerate_gram(draw):
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-10**4, 10**4))
    upper = iter(draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(upper)
    gram = freeze(rows)
    assume(det_bareiss(gram) != 0)
    return gram


@given(_nondegenerate_gram())
@settings(max_examples=150, deadline=None)
@example(resolve("U+U").gram)
@example(resolve("K3").gram)
@example(((0, -1), (-1, 0)))
def test_nondegenerate_flag_matches_fraction_reference(gram):
    assert _nondegenerate_flag(QuadLattice(gram)) == nondegenerate_flag_fractions(gram)


@st.composite
def _rational_embedding(draw):
    """(m, den): an n x k integer matrix m over den, for n >= k."""
    k = draw(st.integers(1, 4))
    n = k + draw(st.integers(0, 2))
    entry = st.fractions(-6, 6, max_denominator=draw(st.sampled_from((1, 2, 4, 6))))
    mat = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    den = math.lcm(*(x.denominator for row in mat for x in row))
    return [[int(x * den) for x in row] for row in mat], den


@given(_rational_embedding())
@settings(max_examples=100, deadline=None)
def test_embedding_index_matches_invariant_factors(case):
    """On rational n x k matrices m / den: d = prod den / gcd(den, f_i),
    f_i the invariant factors of m (the oracle's own minors); a matrix of
    lower column rank is refused."""
    m, den = case
    if rational_rank(m) < len(m[0]):
        with pytest.raises(InternalInconsistencyError, match="not injective"):
            _embedding_index(m, den)
        return
    factors = invariant_factors_by_minors(m)
    assert _embedding_index(m, den) == math.prod(den // math.gcd(den, f) for f in factors)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_embedding_index_matches_the_unreduced_reference(data):
    """Dense n x k matrices with entries up to 10^6 over den up to 10^4: the
    Hermite form of [m mod den; den I] gives the index of the former
    unreduced one, and both refuse a matrix of lower column rank."""
    k = data.draw(st.integers(1, 5))
    n = k + data.draw(st.integers(0, 4))
    m = [[data.draw(st.integers(-10**6, 10**6)) for _ in range(k)] for _ in range(n)]
    if k > 1 and data.draw(st.integers(0, 9)) == 0:
        c = data.draw(st.integers(-3, 3))
        m = [row[:-1] + [c * row[0]] for row in m]
    den = data.draw(st.integers(1, 10**4))
    try:
        want = embedding_index_unreduced(m, den)
    except InternalInconsistencyError:
        with pytest.raises(InternalInconsistencyError, match="not injective"):
            _embedding_index(m, den)
    else:
        assert _embedding_index(m, den) == want


def test_embedding_index_runs_no_bareiss(monkeypatch):
    """The rank of m comes from its Hermite form, which is then reduced mod
    den: no Bareiss elimination runs, on K3's embedding or on a refused m."""
    rep = embed_pipeline(resolve("K3"), 2)
    calls = []
    original = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda *args: calls.append(args) or original(*args))
    assert _embedding_index(rep.embedding, rep.embedding_den) == rep.index_d
    with pytest.raises(InternalInconsistencyError, match="not injective"):
        _embedding_index([[1, 2], [2, 4], [3, 6]], 5)
    assert calls == []


@given(_rational_embedding(), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_embedding_index_ignores_the_scale(case, c):
    """The pipeline passes columns of the witness (M, d), which need not be
    in lowest terms: c m / (c den) gives the same index as m / den."""
    m, den = case
    assume(rational_rank(m) == len(m[0]))
    assert _embedding_index([[c * x for x in row] for row in m], c * den) == _embedding_index(m, den)


def _assert_factors_embedded(gd):
    """The embeddings E, E' carry the factors into the overlattice O:
    E O E^T == lam, E' O E'^T == lam', and E O E'^T == 0."""
    o = gd.overlattice.gram
    e, ep = gd.lam_embedding, gd.lam_prime_embedding
    assert mat_mul(e, mat_mul(o, transpose(e))) == gd.lam.gram
    assert mat_mul(ep, mat_mul(o, transpose(ep))) == gd.lam_prime.gram
    assert not any(map(any, mat_mul(e, mat_mul(o, transpose(ep)))))


def test_nikulin_glue_balanced():
    gd = nikulin_glue(rescale(diag_lattice(1, -1), 5), (3, 3))
    over = gd.overlattice
    assert abs(det_bareiss(over.gram)) == 1
    assert signature(over) == (3, 3)
    assert not over.is_even()
    assert saturation_index(span(gd.overlattice, gd.lam_embedding)) == 1
    _assert_factors_embedded(gd)


def test_nikulin_glue_unimodular_input():
    gd = nikulin_glue(diag_lattice(1), (2, 1))
    assert gd.anti_isometry == ()
    assert abs(det_bareiss(gd.overlattice.gram)) == 1
    _assert_factors_embedded(gd)


def test_nikulin_glue_filler_block():
    # a partner of two scaled entries and a +-1 filler block, as `qforge glue`
    # builds it for diag(13, -13, -1) at signature (4, 4)
    gd = nikulin_glue(diag_lattice(13, -13, -1), (4, 4))
    assert abs(det_bareiss(gd.overlattice.gram)) == 1
    assert gd.lam_embedding[0] == (13, 0, 0, -5, 0, 0, 0, 0)
    _assert_factors_embedded(gd)


@st.composite
def _glue_case(draw):
    """(lam, target): lam diagonal of signature (1, s) with up to 4 entries
    +-P and up to 3 entries +-1, in any order, and an indefinite target of
    rank at most 16."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    scaled = draw(st.integers(0, 4))
    units = draw(st.integers(0 if scaled else 1, 3))
    entries = [p] * scaled + [1] * units
    plus = draw(st.integers(0, len(entries) - 1))
    entries = draw(st.permutations([e if i == plus else -e for i, e in enumerate(entries)]))
    rank_t = draw(st.integers(2 * len(entries) + 1, 16))
    r_t = draw(st.integers(1, rank_t - 1))
    return diag_lattice(*entries), (r_t, rank_t - r_t)


@given(_glue_case())
@settings(max_examples=300, deadline=None)
@example((diag_lattice(7, -7, -7), (2, 5)))
@example((diag_lattice(13, 13, -13), (3, 5)))
def test_nikulin_glue_matches_the_sign_scan(case):
    """The partner's signs in closed form give the GlueData of the former
    scan over sign patterns wherever the scan succeeds, the same
    precondition errors, and a PreconditionError naming P where the scan ran
    out: then P = 3 mod 4 forces the signs."""
    lam, target = case
    try:
        expected = nikulin_glue_scan(lam, target)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as err:
            nikulin_glue(lam, target)
        assert str(err.value) == str(exc)
        return
    except SearchExhaustedError:
        p = max(abs(lam.gram[i][i]) for i in range(lam.rank))
        assert p % 4 == 3
        with pytest.raises(PreconditionError, match=f"P = {p} is 3 mod 4, which forces"):
            nikulin_glue(lam, target)
        return
    gd = nikulin_glue(lam, target)
    assert gd.lam_prime.gram == expected.lam_prime.gram
    assert gd.anti_isometry == expected.anti_isometry
    assert gd == expected


def test_nikulin_glue_rejects_2_torsion():
    with pytest.raises(PreconditionError, match="discriminant group has 2-torsion"):
        nikulin_glue(diag_lattice(-2), (3, 3))


def test_nikulin_glue_rejects_small_target():
    with pytest.raises(PreconditionError):
        nikulin_glue(rescale(diag_lattice(1, -1), 5), (2, 2))


def test_glue_generator_isotropy():
    gd = nikulin_glue(rescale(diag_lattice(1, -1, -1), 5), (4, 4))
    lam, lam_p = gd.lam, gd.lam_prime
    vectors = glue_vectors(gd, 5)
    assert len(vectors) == 3
    for vec in vectors:
        n1 = lam.rank
        qv = sum(
            vec[i] * (lam.gram[i][j] if i < n1 and j < n1 else 0) * vec[j]
            for i in range(n1)
            for j in range(n1)
        ) + sum(
            vec[n1 + i] * lam_p.gram[i][j] * vec[n1 + j]
            for i in range(lam_p.rank)
            for j in range(lam_p.rank)
        )
        assert qv % 2 == 0  # isotropic in Q/2Z


def test_glue_complement_relation():
    # lam_prime's image is the orthogonal complement of lam's image
    from qforge.lattice import orthogonal_complement

    gd = nikulin_glue(rescale(diag_lattice(1, -1), 5), (3, 3))
    over = gd.overlattice
    lam_sub = span(over, gd.lam_embedding)
    comp = orthogonal_complement(lam_sub)
    from qforge.linalg import hermite_rows

    expected, _ = hermite_rows(gd.lam_prime_embedding)
    assert comp.basis == expected


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("rank", [2, 4, 6])
def test_glue_family(p, rank):
    lam = rescale(diag_lattice(*([1] + [-1] * (rank - 1))), p)
    if p % 4 == 1:
        target = (3, 2 * (rank - 1) + 1)
    else:
        target = (rank + 1, rank + 1)
    gd = nikulin_glue(lam, target)
    over = gd.overlattice
    assert abs(det_bareiss(over.gram)) == 1
    assert signature(over) == target
    assert not over.is_even()
    assert saturation_index(span(gd.overlattice, gd.lam_embedding)) == 1
    assert saturation_index(span(gd.overlattice, gd.lam_prime_embedding)) == 1
    _assert_factors_embedded(gd)


def test_embed_pipeline_desk_run():
    source = diag_lattice(*([1] * 3 + [-1] * 11))
    rep = embed_pipeline(source, 3)
    assert rep.index_d == 1
    assert rep.prime == 5
    final = rep.lambda_in_source
    assert signature(final.as_lattice()) == (1, 4)
    assert saturation_index(final) == 1
    gram = final.gram()
    assert all(x % rep.prime == 0 for row in gram for x in row)
    assert all(v == 0 or abs(v) >= 3 for v in enumerate_values(final.as_lattice(), 6))


def test_embed_pipeline_trivial_index():
    source = diag_lattice(*([1] * 3 + [-1] * 11))
    rep = embed_pipeline(source, 1)
    assert rep.index_d == 1  # integral inclusion by construction
    assert rep.embedding_den == 1
    emb = rep.embedding
    # columns embed the source isometrically into the standard lattice
    amb = standard_lattice(3, 14)
    assert mat_mul(transpose(emb), mat_mul(amb.gram, emb)) == source.gram


def test_embed_pipeline_rejects_wrong_signature():
    with pytest.raises(PreconditionError):
        embed_pipeline(diag_lattice(*([1] * 14)), 3)
    with pytest.raises(PreconditionError):
        embed_pipeline(diag_lattice(1, 1, 1, -1), 3)


def test_embed_pipeline_k3_explicit():
    source = resolve("K3")
    rep = embed_pipeline(source, 2)
    assert rep.extension.augmented_triple == rep.extension.standard_triple
    emb, den = rep.embedding, rep.embedding_den
    m = mat_mul(transpose(emb), mat_mul(standard_lattice(3, 22).gram, emb))
    assert m == freeze([[den * den * x for x in row] for row in source.gram])
    assert _embedding_index(emb, den) == rep.index_d
    assert rep.prime > rep.index_d**2 * 2
    final = rep.lambda_in_source
    assert signature(final.as_lattice()) == (1, 8)
    assert saturation_index(final) == 1
    assert all(x % rep.prime == 0 for row in final.gram() for x in row)


@st.composite
def _negative_definite_gram(draw):
    """A negative definite symmetric Gram of rank 1 to 3, entries in +-10:
    each pairing is drawn below the geometric mean of its two diagonal
    entries, so that every 2 x 2 minor is positive."""
    n = draw(st.integers(1, 3))
    diag = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    rows = [[-d if i == j else 0 for j in range(n)] for i, d in enumerate(diag)]
    for i in range(n):
        for j in range(i + 1, n):
            bound = math.isqrt(diag[i] * diag[j] - 1)
            rows[i][j] = rows[j][i] = draw(st.integers(-bound, bound))
    assume(det_bareiss(rows) != 0)
    latt = from_rows(rows)
    assume(signature(latt) == (0, n))
    return latt


@given(_negative_definite_gram())
@settings(max_examples=40, deadline=None)
@example(diag_lattice(-8))  # both exited 4 when the witness placed the extension
@example(diag_lattice(-4, -6))
def test_embed_pipeline_beside_a_definite_summand(extra):
    """On U+U+U+E8(-1) plus a negative definite summand the pipeline ends in
    a result or a PreconditionError, never in an InternalInconsistencyError:
    the extension's image stays orthogonal to the scaled lattice's positive
    vector, so the intersection keeps its signature."""
    source = direct_sum(resolve("U+U+U+E8(-1)"), extra)
    try:
        rep = embed_pipeline(source, 10)
    except PreconditionError:
        return
    final = rep.lambda_in_source
    assert signature(final.as_lattice()) == (1, source.rank // 2 - 3)
    assert all(x % rep.prime == 0 for row in final.gram() for x in row)
    assert saturation_index(final) == 1


@pytest.mark.parametrize("name, n_bound, witness_rank", [
    ("diag(1,1,1,-1^11)", 3, None), ("U+U+U+diag(-1^8)", 3, 6),
    ("K3", 2, 22), ("U+U+U+E8(-1)", 3, 14),
])
def test_embed_pipeline_witnesses_only_the_rest(monkeypatch, name, n_bound, witness_rank):
    """The extension goes onto the last negative coordinates and each +-1
    summand onto a coordinate of its own, so the witness sees only the rest
    of the source (none of an all-unit source), and the unit summands'
    columns are coordinate vectors over the embedding's denominator."""
    ranks = []
    witness = explicit_rational_isometry

    def recorded(g1, g2):
        ranks.append(len(g1))
        return witness(g1, g2)

    monkeypatch.setattr("qforge.glue.explicit_rational_isometry", recorded)
    source = resolve(name)
    rep = embed_pipeline(source, n_bound)
    assert ranks == ([] if witness_rank is None else [witness_rank])
    cols = transpose(rep.embedding)
    units = [i for i, row in enumerate(source.gram)
             if abs(row[i]) == 1 and sum(map(abs, row)) == 1]
    for i in units:
        assert sorted(map(abs, cols[i])) == [0] * (len(cols[i]) - 1) + [rep.embedding_den]
    amb = standard_lattice(3, source.rank)
    assert mat_mul(cols, mat_mul(amb.gram, transpose(cols))) == freeze(
        [[rep.embedding_den ** 2 * x for x in row] for row in source.gram])


def test_witness_asks_each_complement_once(monkeypatch):
    """On K3's witness block (the rest R of the source and the complement C
    that _coordinates_first hands to the witness), no Gram goes to
    isotropic_or_obstruction twice: the last step represents its value on
    the complement it has just found anisotropic without asking again."""
    blocks = []

    def recorded(g1, g2):
        blocks.append((g1, g2))
        return explicit_rational_isometry(g1, g2)

    monkeypatch.setattr(glue, "explicit_rational_isometry", recorded)
    embed_pipeline(resolve("K3"), 2)
    grams = []
    original = padic.isotropic_or_obstruction

    def recording(gram):
        grams.append(freeze(gram))
        return original(gram)

    for module in (glue, padic):
        monkeypatch.setattr(module, "isotropic_or_obstruction", recording)
    _witness(*blocks[0])
    assert len(blocks) == 1 and grams
    assert len(set(grams)) == len(grams)


def test_standard_lattice_shape():
    latt = standard_lattice(2, 3)
    assert signature(latt) == (2, 3)
    assert abs(det_bareiss(latt.gram)) == 1
