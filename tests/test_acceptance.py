"""Acceptance suite: one test per criterion, exact tolerances, with a
printed PASS line each (run with -s or -rA to see them)."""
import json
import random
import time
from fractions import Fraction

from oracle_utils import (
    all_values_divisible_by,
    brute_char_poly,
    enumerate_isometries,
    glue_vectors,
    has_root_outside_unit_interval,
    local_solvable,
    matrix_order,
    signed_permutation_conjugate,
)
from qforge.catalog import resolve
from qforge.cli import main as cli_main
from qforge.forge import check_certificate, find_rank2_avoiding
from qforge.glue import (
    embed_pipeline,
    explicit_rational_isometry,
    extend_to_standard,
    nikulin_glue,
)
from qforge.isom import (
    Isometry,
    Tag,
    classify,
    eichler_transvection,
    find_parabolic,
)
from qforge.jsonio import dump_json
from qforge.lattice import (
    binary_cycle,
    diag_lattice,
    enumerate_values,
    from_rows,
    min_nonzero_abs,
    rescale,
    saturation_index,
    signature,
    span,
)
from qforge.linalg import (
    char_poly,
    det_bareiss,
    freeze,
    identity,
    is_zero,
    mat_mul,
    mat_pow,
    mat_sub,
    transpose,
)
from qforge.padic import hilbert_symbol, invariant_triple, symbol_support

U = from_rows([[0, 1], [1, 0]], label="U")


def _report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def _random_nondegenerate(rng, max_rank=6, entries=9):
    rank = rng.randint(1, max_rank)
    while True:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                rows[i][j] = rows[j][i] = rng.randint(-entries, entries)
        latt = from_rows(rows)
        if latt.det() != 0:
            return latt


def test_c01_hilbert_product_formula():
    start = time.monotonic()
    rng = random.Random(101)
    checked = 0
    while checked < 500:
        a = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        b = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        if a == 0 or b == 0:
            continue
        prod = 1
        for place in symbol_support(a, b):
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1, (a, b)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"product formula on {checked} rational pairs in {elapsed:.2f}s")


def test_c02_local_oracle_agreement():
    start = time.monotonic()
    checked = 0
    for p, k in [(2, 5), (3, 3), (5, 3), (7, 3), (11, 3), (13, 3)]:
        for a in range(-20, 21):
            if a == 0:
                continue
            for b in range(-20, 21):
                if b == 0:
                    continue
                want = 1 if local_solvable(a, b, p, k) else -1
                assert hilbert_symbol(a, b, p) == want, (a, b, p)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(2, f"symbols match mod-p^k solvability on {checked} triples in {elapsed:.2f}s")


def test_c03_diagonalization_invariance():
    rng = random.Random(303)
    for i in range(100):
        latt = _random_nondegenerate(rng)
        base = invariant_triple(latt)
        for seed in (3 * i + 1, 3 * i + 2, 3 * i + 3):
            conjugate = signed_permutation_conjugate(latt.gram, random.Random(seed))
            assert invariant_triple(conjugate) == base
    _report(3, "invariant triple stable under signed permutations, 100 lattices x 3")


def test_c04_rank2_theorem_reproduction():
    for name, n_bound, floor in [("U+U+<2>", 4, 5), ("K3", 2, 3)]:
        start = time.monotonic()
        latt = resolve(name)
        res = find_rank2_avoiding(latt, n_bound)
        sub = res.lattice
        assert signature(sub.as_lattice()) == (1, 1)
        assert saturation_index(sub) == 1
        assert check_certificate(res.certificate, n_bound)[0]
        smallest, _ = min_nonzero_abs(sub.as_lattice(), 1000)
        assert smallest is not None and smallest >= floor
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        _report(
            4,
            f"{name}: rank-2 lattice, certificate p={res.certificate.p}, "
            f"min |value| = {smallest} >= {floor} at height 1000, {elapsed:.2f}s",
        )


def test_c05_certificate_soundness():
    issued = [
        find_rank2_avoiding(resolve("U+U+<2>"), 4),
        find_rank2_avoiding(resolve("K3"), 2),
    ]
    for res in issued:
        ok, witness = all_values_divisible_by(
            res.lattice.as_lattice(), res.certificate.p, 1000
        )
        assert ok, witness
    _report(5, f"all enumerated values at height 1000 divisible by p, {len(issued)} certificates")


def test_c06_extension_reproduction():
    start = time.monotonic()
    rng = random.Random(606)
    count = 0
    for _ in range(20):
        latt = _random_nondegenerate(rng)
        r, s = signature(latt)
        for target in [(r + 3, s), (r + 2, s + 1), (r + 1, s + 2), (r, s + 3)]:
            ext = extend_to_standard(latt, target)
            assert ext.augmented_triple == ext.standard_triple
            count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(6, f"{count} extensions verified via invariant triples in {elapsed:.2f}s")


def test_c07_explicit_isometry_witnesses():
    pairs = [
        (diag_lattice(2, 1, 1, 2).gram, diag_lattice(1, 1, 1, 1).gram),
        (diag_lattice(1, 1).gram, diag_lattice(2, 2).gram),
        (diag_lattice(3, -1).gram, diag_lattice(-1, 3).gram),
        (from_rows([[0, 1], [1, 0]]).gram, diag_lattice(2, -2).gram),
        (diag_lattice(1, -1, 2, -2, 3).gram, diag_lattice(3, -2, 2, -1, 1).gram),
    ]
    for g1, g2 in pairs:
        m, d = explicit_rational_isometry(g1, g2)
        assert d > 0
        assert mat_mul(transpose(m), mat_mul(g2, m)) == freeze([[d * d * x for x in row]
                                                                for row in g1])
    _report(7, f"{len(pairs)} exact congruence witnesses, including <2,1,1,2> vs <1,1,1,1>")


def test_c08_gluing_soundness():
    count = 0
    for p in (3, 5, 7):
        for rank in range(2, 7):
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
            # the embeddings carry both factors, orthogonal to each other
            e, ep, o = gd.lam_embedding, gd.lam_prime_embedding, over.gram
            assert mat_mul(e, mat_mul(o, transpose(e))) == gd.lam.gram
            assert mat_mul(ep, mat_mul(o, transpose(ep))) == gd.lam_prime.gram
            assert not any(map(any, mat_mul(e, mat_mul(o, transpose(ep)))))
            n1 = gd.lam.rank
            for vec in glue_vectors(gd, p):
                qv = sum(
                    vec[i] * gd.lam.gram[i][j] * vec[j]
                    for i in range(n1)
                    for j in range(n1)
                ) + sum(
                    vec[n1 + i] * gd.lam_prime.gram[i][j] * vec[n1 + j]
                    for i in range(gd.lam_prime.rank)
                    for j in range(gd.lam_prime.rank)
                )
                assert qv % 2 == 0  # isotropy in Q/2Z
            count += 1
    _report(8, f"{count} gluings: unimodular, odd, primitive, isotropic glue group")


def test_c09_embedding_desk_run():
    start = time.monotonic()
    source = diag_lattice(*([1] * 3 + [-1] * 11))
    rep = embed_pipeline(source, 3)
    final = rep.lambda_in_source
    assert signature(final.as_lattice()) == (1, 4)
    assert saturation_index(final) == 1
    assert rep.sat_index <= rep.index_d
    # every Gram entry is divisible by P, so every represented value is a
    # multiple of P = 5 > 3 at every height
    gram = final.gram()
    assert all(x % rep.prime == 0 for row in gram for x in row)
    assert rep.prime > rep.index_d**2 * 3
    # independent spot enumeration: the rank-5 box of height 8 has 17^5 - 1 vectors
    assert all(v == 0 or abs(v) >= 3 for v in enumerate_values(final.as_lattice(), 8))
    iso, cls = find_parabolic(final.as_lattice(), rep.v, rep.a)
    assert cls.tag is Tag.PARABOLIC and classify(iso) == cls
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        9,
        f"signature (1,4) primitive sublattice, sat index {rep.sat_index} <= d={rep.index_d}, "
        f"values all ≡ 0 mod {rep.prime} (none in (0,3) at height 8), "
        f"parabolic isometry found, {elapsed:.2f}s",
    )


def test_c10_classification_vs_oracle():
    start = time.monotonic()
    gram = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    latt = from_rows(gram)
    mats = enumerate_isometries(gram, 2)
    assert identity(3) in mats
    assert len(mats) == 16  # signed permutations fixing the first axis
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
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(10, f"classification agrees with the direct oracle on {len(mats)} isometries, {elapsed:.2f}s")


def test_c11_constructor_correctness():
    l12 = diag_lattice(1, -2)
    auto = Isometry(l12, binary_cycle(l12)[2])
    assert auto.matrix == ((3, 4), (2, 3))
    assert char_poly(auto.matrix) == (1, -6, 1)  # x^2 - 6x + 1
    assert classify(auto).tag is Tag.HYPERBOLIC

    latt = from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
    tv = eichler_transvection(latt, (1, 0, 0), (0, 0, 1))
    assert tv.matrix == ((1, 1, -2), (0, 1, 0), (0, -1, 1))
    b = mat_sub(tv.matrix, identity(3))
    assert not is_zero(mat_mul(b, b))
    assert is_zero(mat_mul(mat_mul(b, b), b))
    assert classify(tv).tag is Tag.PARABOLIC
    _report(11, "Pell automorph and transvection match the worked matrices exactly")


def test_c12_end_to_end_determinism(tmp_path, capsys):
    def run(cmd, name):
        outputs = []
        for i in range(2):
            out = tmp_path / f"{name}{i}.json"
            rc = cli_main(cmd + ["--out", str(out)])
            capsys.readouterr()
            assert rc == 0
            obj = json.loads(out.read_text())
            obj.pop("timings")
            outputs.append(dump_json(obj))
        assert outputs[0] == outputs[1]

    run(["hyperbolic", "--lattice", "catalog:U+U+<2>", "--n-bound", "4"], "hyp")
    run(["parabolic", "--lattice", "catalog:diag(1,1,1,-1^11)", "--n-bound", "3"], "par")
    with capsys.disabled():
        _report(12, "hyperbolic and parabolic reports byte-identical modulo timings")
