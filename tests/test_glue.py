import random
from fractions import Fraction

import pytest

from qforge.catalog import resolve
from qforge.errors import PreconditionError
from qforge.glue import (
    build_scaled_lattice,
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
    from_rows,
    min_nonzero_abs,
    rescale,
    saturation_index,
    signature,
    span,
)
from qforge.linalg import (
    det_bareiss,
    freeze,
    mat_mul,
    snf_invariant_factors,
    transpose,
)
from qforge.padic import invariant_triple, rationally_equivalent


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


def test_explicit_isometry_identity():
    g = diag_lattice(3, -5).gram
    t = explicit_rational_isometry(g, g)
    assert mat_mul(transpose(t), mat_mul(g, t)) == freeze(
        [[Fraction(x) for x in row] for row in g]
    )


def test_explicit_isometry_scaled_pair():
    g1 = diag_lattice(1, 1).gram
    g2 = diag_lattice(2, 2).gram
    t = explicit_rational_isometry(g1, g2)
    assert t == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)))


def test_explicit_isometry_2112():
    g1 = diag_lattice(2, 1, 1, 2).gram
    g2 = diag_lattice(1, 1, 1, 1).gram
    t = explicit_rational_isometry(g1, g2)
    product = mat_mul(transpose(t), mat_mul(g2, t))
    assert product == freeze([[Fraction(x) for x in row] for row in g1])


def test_explicit_isometry_requires_equivalence():
    with pytest.raises(PreconditionError):
        explicit_rational_isometry(diag_lattice(1, 1).gram, diag_lattice(1, -1).gram)


def test_explicit_isometry_exhaustion():
    # representing 13 by x^2 + y^2 needs (2, 3): constructed, not searched
    g1 = diag_lattice(13, 13).gram
    g2 = diag_lattice(1, 1).gram
    t = explicit_rational_isometry(g1, g2)
    assert mat_mul(transpose(t), mat_mul(g2, t)) == freeze(
        [[Fraction(x) for x in row] for row in g1]
    )


def test_build_scaled_lattice():
    latt = build_scaled_lattice(5, (1, 1))
    assert latt.gram == ((5, 0), (0, -5))
    best, _ = min_nonzero_abs(latt, 30)
    assert best == 5
    assert build_scaled_lattice(3, (1, 0)).gram == ((3,),)
    big = build_scaled_lattice(7, (1, 7))
    values = [row[i] % 7 for i, row in enumerate(big.gram)]
    assert all(v == 0 for v in values)


def test_nikulin_glue_balanced():
    gd = nikulin_glue(rescale(diag_lattice(1, -1), 5), (3, 3))
    over = gd.overlattice
    assert abs(det_bareiss(over.gram)) == 1
    assert signature(over) == (3, 3)
    assert not over.is_even()
    assert all(f == 1 for f in snf_invariant_factors(gd.lam_embedding))


def test_nikulin_glue_unimodular_input():
    gd = nikulin_glue(diag_lattice(1), (2, 1))
    assert gd.anti_isometry == ()
    assert abs(det_bareiss(gd.overlattice.gram)) == 1


def test_nikulin_glue_rejects_2_torsion():
    with pytest.raises(PreconditionError, match="discriminant group has 2-torsion"):
        nikulin_glue(diag_lattice(-2), (3, 3))


def test_nikulin_glue_rejects_small_target():
    with pytest.raises(PreconditionError):
        nikulin_glue(rescale(diag_lattice(1, -1), 5), (2, 2))


def test_glue_generator_isotropy():
    gd = nikulin_glue(rescale(diag_lattice(1, -1, -1), 5), (4, 4))
    lam, lam_p = gd.lam, gd.lam_prime
    for vec in gd.glue_vectors:
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
    assert all(f == 1 for f in snf_invariant_factors(gd.lam_embedding))
    assert all(f == 1 for f in snf_invariant_factors(gd.lam_prime_embedding))


def test_embed_pipeline_desk_run():
    source = diag_lattice(*([1] * 3 + [-1] * 11))
    rep = embed_pipeline(source, 3)
    assert rep.index_d == 1
    assert rep.prime == 5
    assert rep.sat_index <= rep.index_d
    final = rep.lambda_in_source
    assert signature(final.as_lattice()) == (1, 4)
    assert saturation_index(final) == 1
    gram = final.gram()
    assert all(x % rep.prime == 0 for row in gram for x in row)
    best, _ = min_nonzero_abs(final.as_lattice(), 6)
    assert best is None or best >= 3


def test_embed_pipeline_trivial_index():
    source = diag_lattice(*([1] * 3 + [-1] * 11))
    rep = embed_pipeline(source, 1)
    assert rep.index_d == 1  # integral inclusion by construction
    assert rep.embedding is not None
    emb = rep.embedding
    # columns embed the source isometrically into the standard lattice
    amb = rep.ambient
    m = mat_mul(transpose(emb), mat_mul(amb.gram, emb))
    assert m == freeze([[Fraction(x) for x in row] for row in source.gram])


def test_embed_pipeline_rejects_wrong_signature():
    with pytest.raises(PreconditionError):
        embed_pipeline(diag_lattice(*([1] * 14)), 3)
    with pytest.raises(PreconditionError):
        embed_pipeline(diag_lattice(1, 1, 1, -1), 3)


def test_embed_pipeline_k3_certificate_level():
    # the name is historical: K3 used to end at certificate level, and is explicit now
    source = resolve("K3")
    rep = embed_pipeline(source, 2)
    assert rep.extension.augmented_triple == rep.extension.standard_triple
    emb = rep.embedding
    m = mat_mul(transpose(emb), mat_mul(rep.ambient.gram, emb))
    assert m == freeze([[Fraction(x) for x in row] for row in source.gram])
    assert rep.prime > rep.index_d**2 * 2
    final = rep.lambda_in_source
    assert signature(final.as_lattice()) == (1, 8)
    assert saturation_index(final) == 1
    assert all(x % rep.prime == 0 for row in final.gram() for x in row)


def test_standard_lattice_shape():
    latt = standard_lattice(2, 3)
    assert signature(latt) == (2, 3)
    assert abs(det_bareiss(latt.gram)) == 1
