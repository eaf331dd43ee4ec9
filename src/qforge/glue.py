"""Rational extension to a standard form, unimodular gluing, and the
high-rank embedding pipeline.

The pipeline: extend H rationally to a standard diagonal +-1 form three
ranks up, embed a P-scaled lattice primitively into the standard integral
lattice, intersect with the image of H, and saturate. The scaled lattice
keeps every integral value divisible by P, so the saturation represents
no nonzero number below P / d^2 where d is the embedding index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import lattice as lat
from .errors import (
    InconsistentTargetsError,
    InternalInconsistencyError,
    PreconditionError,
    SearchExhaustedError,
)
from .intmath import (
    first_primes_excluding,
    is_prime,
    is_rational_square,
    prime_support,
    primes_from,
    sqrt_mod,
    squarefree_part,
    two_squares,
)
from .lattice import (
    QuadLattice,
    Sublattice,
    diag_lattice,
    direct_sum,
    gram_divisible_by,
    rescale,
    saturate,
    saturation_index,
    signature,
    span,
)
from .limits import DEFAULT_LIMITS, SearchLimits
from .linalg import (
    det_bareiss,
    freeze,
    hermite_rows,
    invert,
    left_kernel,
    mat_mul,
    rational_rank,
    snf_invariant_factors,
    solve,
    transpose,
)
from .padic import (
    INF,
    InvariantTriple,
    hilbert_symbol,
    invariant_triple,
    is_local_square,
    rational_diagonalize,
    rationally_equivalent,
    solve_prescribed_hilbert,
)


def standard_lattice(pos: int, neg: int, label: str | None = None) -> QuadLattice:
    return diag_lattice(*([1] * pos + [-1] * neg),
                        label=label or f"st({pos},{neg})")


@dataclass(frozen=True)
class ExtensionResult:
    """Three extra diagonal entries making H rationally standard."""

    b0: int
    b1: int
    b2: int
    target_signature: tuple[int, int]
    augmented_triple: InvariantTriple
    standard_triple: InvariantTriple


def _target_options(r: int, s: int) -> list[tuple[int, int]]:
    return [(r + 3, s), (r + 2, s + 1), (r + 1, s + 2), (r, s + 3)]


def _eps_of_diag(diag, place) -> int:
    eps = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            eps *= hilbert_symbol(diag[i], diag[j], place)
    return eps


_SIGN_PATTERNS = {0: (1, 1, 1), 1: (1, 1, -1), 2: (-1, -1, 1), 3: (-1, -1, -1)}


def extend_to_standard(
    latt: QuadLattice, target_signature: tuple[int, int]
) -> ExtensionResult:
    """(b0, b1, b2) with diag(H) + (b0, b1, b2) rationally equivalent to the
    +-1 diagonal form of the target signature; always re-verified through
    the full invariant triple."""
    diag, _ = rational_diagonalize(latt.gram)
    r = sum(1 for d in diag if d > 0)
    s = len(diag) - r
    if target_signature not in _target_options(r, s):
        raise PreconditionError(
            f"target {target_signature} is not reachable by adding three entries"
        )
    t = target_signature[1]
    k = t - s
    signs = _SIGN_PATTERNS[k]

    disc = Fraction(1)
    for d in diag:
        disc *= d
    d_class = squarefree_part(disc)
    c = squarefree_part(Fraction((-1) ** (t - 1) * d_class))

    places: set = {2, INF}
    for d in diag:
        places.update(prime_support(d))
    places.update(prime_support(c))
    std_diag = [1] * target_signature[0] + [-1] * t
    s_map: dict = {}
    for place in sorted(places):
        s_map[place] = (
            _eps_of_diag(std_diag, place)
            * _eps_of_diag(diag, place)
            * hilbert_symbol(d_class, (-1) ** (t - 1), place)
        )
    prod = 1
    for v in s_map.values():
        prod *= v
    if prod != 1:
        raise InternalInconsistencyError("required local signs violate the product formula")

    std_triple = invariant_triple(std_diag)
    for b0 in _square_class_pool(s_map, c, sign=signs[0]):
        check_places = sorted(set(s_map) | set(prime_support(b0)) | {2, INF},
                              key=lambda p: (p == INF, p))
        targets = {}
        feasible = True
        for place in check_places:
            delta = s_map.get(place, 1) * hilbert_symbol(b0, c, place)
            if delta == -1 and is_local_square(c * b0, place):
                feasible = False
                break
            targets[place] = delta
        if not feasible:
            continue
        try:
            b1 = solve_prescribed_hilbert(Fraction(c * b0), targets, sign=signs[1])
        except (InconsistentTargetsError, SearchExhaustedError):
            continue
        b2 = squarefree_part(Fraction((-1) ** t * d_class * b0 * b1))
        augmented = list(diag) + [b0, b1, b2]
        aug_triple = invariant_triple(augmented)
        if aug_triple == std_triple:
            return ExtensionResult(
                b0=b0, b1=b1, b2=b2,
                target_signature=target_signature,
                augmented_triple=aug_triple,
                standard_triple=std_triple,
            )
    raise InternalInconsistencyError(
        "no extension found although one must exist; this is a bug"
    )


def _square_class_pool(s_map, c, sign: int):
    """Deterministic candidate square classes for b0 with the given sign."""
    primes = sorted(
        {int(p) for p in s_map if p != INF} | set(prime_support(c)) | {2}
    )
    primes += first_primes_excluding(4, set(primes))
    seen = set()
    singles = [1] + primes
    pairs = sorted(
        {p * q for i, p in enumerate(primes) for q in primes[i + 1:]}
    )
    for magnitude in singles + pairs:
        if magnitude in seen:
            continue
        seen.add(magnitude)
        yield sign * magnitude


# ---------------------------------------------------------------------------
# Explicit rational isometry witnesses


def explicit_rational_isometry(
    g1, g2, limits: SearchLimits = DEFAULT_LIMITS
) -> tuple[tuple[Fraction, ...], ...]:
    """Rational T with T^T G2 T == G1, found by representing the diagonal
    values of G1 in G2 one at a time and recursing on complements.

    Working bases are kept as primitive integer vectors so the inner value
    scans run in pure integer arithmetic; the scan budget is shared across
    all recursion levels.
    """
    g1 = freeze(g1)
    g2 = freeze(g2)
    if not rationally_equivalent(g1, g2):
        raise PreconditionError("forms are not rationally equivalent")
    n = len(g1)
    diag1, c1 = rational_diagonalize(g1)

    def bilinear(u, v):
        return sum(
            u[i] * g2[i][j] * v[j] for i in range(n) for j in range(n) if g2[i][j]
        )

    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    columns: list[tuple[Fraction, ...]] = []
    budget = limits.witness_budget
    for delta in diag1:
        m = len(basis)
        gram_cur = [[bilinear(basis[i], basis[j]) for j in range(m)] for i in range(m)]
        w = None
        for x in lat.iter_search_vectors(m, limits.witness_max_l1):
            budget -= 1
            if budget < 0:
                break
            support = [i for i in range(m) if x[i]]
            value = sum(
                x[i] * gram_cur[i][j] * x[j] for i in support for j in support
            )
            ratio = Fraction(value) / delta
            if ratio <= 0:
                continue
            if is_rational_square(ratio):
                scale = _fraction_sqrt(ratio)
                w = tuple(
                    Fraction(sum(x[i] * basis[i][r] for i in support)) / scale
                    for r in range(n)
                )
                break
        if w is None:
            raise SearchExhaustedError(
                "no witness vector within the height bound; equivalence still holds"
            )
        columns.append(w)
        projected = []
        for b in basis:
            coeff = Fraction(bilinear(b, w)) / delta
            projected.append(_primitive_int_vector(
                tuple(bi - coeff * wi for bi, wi in zip(b, w))
            ))
        basis = _independent_subset([v for v in projected if any(v)],
                                    len(basis) - 1)

    s = transpose(columns)  # columns as matrix
    t_mat = mat_mul(s, invert(c1))
    check = mat_mul(transpose(t_mat), mat_mul(g2, t_mat))
    if check != freeze([[Fraction(x) for x in row] for row in g1]):
        raise InternalInconsistencyError("witness fails the exact congruence")
    return t_mat


def _primitive_int_vector(vec) -> tuple[int, ...]:
    den = math.lcm(*[Fraction(x).denominator for x in vec])
    ints = [int(Fraction(x) * den) for x in vec]
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    for x in ints:
        if x:
            return tuple(ints) if x > 0 else tuple(-y for y in ints)
    return tuple(ints)


def _fraction_sqrt(q: Fraction) -> Fraction:
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def _independent_subset(vectors, count: int):
    out = []
    for v in vectors:
        if len(out) == count:
            break
        if rational_rank(out + [v]) == len(out) + 1:
            out.append(v)
    if len(out) != count:
        raise InternalInconsistencyError("projection lost too much rank")
    return out


# ---------------------------------------------------------------------------
# Scaled lattices and Nikulin-style gluing


def build_scaled_lattice(p: int, sig: tuple[int, int],
                         label: str | None = None) -> QuadLattice:
    """P times the odd unimodular diagonal lattice of signature (1, s):
    represents no nonzero number of absolute value < P, discriminant group
    (Z/P)^(s+1) without 2-torsion for odd P."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    pos, neg = sig
    if pos != 1:
        raise PreconditionError("scaled lattices are built with signature (1, s)")
    base = diag_lattice(*([1] + [-1] * neg))
    return rescale(base, p, label=label or f"{p}*st(1,{neg})")


@dataclass(frozen=True)
class GlueData:
    """Unimodular overlattice of lam ⊕ lam_prime along a graph of an
    anti-isometry of discriminant groups."""

    lam: QuadLattice
    lam_prime: QuadLattice
    overlattice: QuadLattice
    # anti-isometry on dual generators (e_i / P -> u_i * e'_j / P)
    anti_isometry: tuple[tuple[int, int, int], ...]  # (i, unit, j)
    glue_vectors: tuple[tuple[Fraction, ...], ...]
    lam_embedding: tuple[tuple[int, ...], ...]  # lam basis in overlattice coords
    lam_prime_embedding: tuple[tuple[int, ...], ...]


def _parse_scaled_diagonal(latt: QuadLattice) -> tuple[int | None, list[int], list[int]]:
    """(P, eps, unimodular_signs) for a diagonal lattice with entries in
    {+-1, +-P}, P an odd prime."""
    n = latt.rank
    for i in range(n):
        for j in range(n):
            if i != j and latt.gram[i][j] != 0:
                raise PreconditionError("gluing supports diagonal lattices only")
    p = None
    eps: list[int] = []
    units: list[int] = []
    for i in range(n):
        e = latt.gram[i][i]
        if abs(e) == 1:
            units.append(e)
        else:
            if not is_prime(abs(e)):
                raise PreconditionError(f"diagonal entry {e} is not +-1 or +-prime")
            if abs(e) == 2:
                raise PreconditionError("discriminant group has 2-torsion")
            if p is None:
                p = abs(e)
            elif p != abs(e):
                raise PreconditionError("multiple scaling primes are unsupported")
            eps.append(1 if e > 0 else -1)
    return p, eps, units


def nikulin_glue(
    lam: QuadLattice, target_signature: tuple[int, int]
) -> GlueData:
    """Glue lam with a partner of opposite discriminant form into an odd
    unimodular overlattice of the target signature.

    Supported family: P * (odd unimodular diagonal) ⊕ (unimodular
    diagonal) for a single odd prime P. The anti-isometry is searched over
    diagonal sign patterns and units mod P; every output is verified
    (determinant, signature, oddness, primitivity, glue isotropy).
    """
    p, eps, _units = _parse_scaled_diagonal(lam)
    pos, neg = signature(lam)
    if pos != 1:
        raise PreconditionError("lam must have signature (1, s)")
    r_t, s_t = target_signature
    rank_t = r_t + s_t
    if 2 * lam.rank >= rank_t:
        raise PreconditionError("need 2 * rank(lam) < rank(target)")
    if r_t < 1 or s_t < 1:
        raise PreconditionError("target must be indefinite")
    need_pos = r_t - pos
    need_neg = s_t - neg
    if need_pos < 0 or need_neg < 0:
        raise PreconditionError("target signature too small for lam")

    if p is None:
        lam_prime = standard_lattice(need_pos, need_neg)
        return _assemble_glue(lam, lam_prime, p=None, pairs=[])

    m = len(eps)
    k_eps = sum(1 for e in eps if e > 0)
    if p % 4 == 1:
        # sqrt(-1) exists mod p, so any elementwise pairing admits a unit;
        # scan partner sign counts nearest to eps first
        candidates = []
        for k_delta in sorted(range(m + 1), key=lambda k: (abs(k - k_eps), k)):
            delta = list(eps)
            want = k_delta - k_eps
            if want > 0:
                for i in range(m - 1, -1, -1):
                    if want and delta[i] == -1:
                        delta[i] = 1
                        want -= 1
            elif want < 0:
                want = -want
                for i in range(m - 1, -1, -1):
                    if want and delta[i] == 1:
                        delta[i] = -1
                        want -= 1
            candidates.append(delta)
    else:
        # -1 is a non-residue: -eps[i]*delta[i] must be 1, forcing delta = -eps
        candidates = [[-e for e in eps]]
    for delta in candidates:
        k_delta = sum(1 for d in delta if d > 0)
        filler_pos = need_pos - k_delta
        filler_neg = need_neg - (m - k_delta)
        if filler_pos < 0 or filler_neg < 0:
            continue
        units = []
        ok = True
        for e, d in zip(eps, delta):
            root = sqrt_mod((-e * d) % p, p)
            if root is None:
                ok = False
                break
            # the odd representative of {root, p - root} makes the glue
            # generator's q-value even, not merely integral
            units.append(root if root % 2 == 1 else p - root)
        if not ok:
            continue
        lam_prime = direct_sum(
            rescale(diag_lattice(*delta), p),
            standard_lattice(filler_pos, filler_neg),
        ) if filler_pos + filler_neg else rescale(diag_lattice(*delta), p)
        pairs = [(i, units[i], i) for i in range(m)]
        return _assemble_glue(lam, lam_prime, p=p, pairs=pairs)
    raise SearchExhaustedError(
        "no diagonal anti-isometry pattern fits the target signature"
    )


def _assemble_glue(lam, lam_prime, p, pairs) -> GlueData:
    n1, n2 = lam.rank, lam_prime.rank
    n = n1 + n2
    total = direct_sum(lam, lam_prime)
    lam_p_indices = [i for i in range(n1) if abs(lam.gram[i][i]) != 1]
    lp_p_indices = [i for i in range(n2) if abs(lam_prime.gram[i][i]) != 1]
    glue_rows: list[list[int]] = []
    glue_fracs: list[tuple[Fraction, ...]] = []
    for idx, (i, u, j) in enumerate(pairs):
        row = [0] * n
        row[lam_p_indices[i]] = 1
        row[n1 + lp_p_indices[j]] = u
        glue_rows.append(row)
        glue_fracs.append(tuple(Fraction(x, p) for x in row))
        # glue isotropy: integral, and even thanks to the odd-unit choice
        qsum = Fraction(lam.gram[lam_p_indices[i]][lam_p_indices[i]], p * p) + Fraction(
            u * u * lam_prime.gram[lp_p_indices[j]][lp_p_indices[j]], p * p
        )
        if qsum % 2 != 0:
            raise InternalInconsistencyError("glue generator is not isotropic mod 2Z")

    scale = p if pairs else 1
    gen_rows = [[scale * int(i == j) for j in range(n)] for i in range(n)]
    for row in glue_rows:
        gen_rows.append([x for x in row])
    h, rank = hermite_rows(gen_rows)
    if rank != n:
        raise InternalInconsistencyError("overlattice generators do not span")
    basis = [[Fraction(x, scale) for x in row] for row in h]
    gram_o = []
    for u_row in basis:
        gram_row = []
        for v_row in basis:
            val = sum(
                u_row[i] * total.gram[i][j] * v_row[j]
                for i in range(n)
                for j in range(n)
                if total.gram[i][j]
            )
            if val % 1 != 0:
                raise InternalInconsistencyError("overlattice is not integral")
            gram_row.append(int(val))
        gram_o.append(gram_row)
    over = QuadLattice(freeze(gram_o), label="glued overlattice")

    if abs(det_bareiss(over.gram)) != 1:
        raise InternalInconsistencyError("overlattice is not unimodular")
    if over.is_even():
        raise InternalInconsistencyError("overlattice is not odd")
    sig_l, sig_lp = signature(lam), signature(lam_prime)
    if signature(over) != (sig_l[0] + sig_lp[0], sig_l[1] + sig_lp[1]):
        raise InternalInconsistencyError("signature is not additive")

    basis_mat = freeze(basis)
    lam_embed = _integral_coordinates(basis_mat, n1, n, offset=0)
    lp_embed = _integral_coordinates(basis_mat, n2, n, offset=n1)
    for embed in (lam_embed, lp_embed):
        if any(f != 1 for f in snf_invariant_factors(embed)):
            raise InternalInconsistencyError("factor is not primitively embedded")
    return GlueData(
        lam=lam,
        lam_prime=lam_prime,
        overlattice=over,
        anti_isometry=tuple((i, u, j) for (i, u, j) in pairs),
        glue_vectors=tuple(glue_fracs),
        lam_embedding=lam_embed,
        lam_prime_embedding=lp_embed,
    )


def _integral_coordinates(basis_mat, count, n, offset):
    rows = []
    bt = transpose(basis_mat)
    for i in range(count):
        e = tuple(Fraction(int(j == offset + i)) for j in range(n))
        x = solve(bt, e)
        if x is None or any(f.denominator != 1 for f in x):
            raise InternalInconsistencyError("factor does not sit inside the overlattice")
        rows.append(tuple(int(f) for f in x))
    return freeze(rows)


# ---------------------------------------------------------------------------
# The embedding pipeline


@dataclass(frozen=True)
class EmbeddingReport:
    source: QuadLattice
    ambient: QuadLattice  # standard integral lattice
    extension: ExtensionResult
    embedding: tuple[tuple[Fraction, ...], ...] | None  # source basis -> ambient coords
    index_d: int | None
    prime: int | None
    lambda_in_source: Sublattice | None
    sat_index: int | None
    certificate_level: bool


def _is_standard_diagonal(latt: QuadLattice) -> bool:
    n = latt.rank
    return all(
        (abs(latt.gram[i][j]) == 1 if i == j else latt.gram[i][j] == 0)
        for i in range(n)
        for j in range(n)
    )


def _standard_inclusion(latt: QuadLattice, ambient_pos: int, ambient_rank: int):
    """Signature-sorted coordinate inclusion for a +-1 diagonal lattice."""
    pos_slots = iter(range(ambient_pos))
    neg_slots = iter(range(ambient_pos, ambient_rank))
    cols = []
    for i in range(latt.rank):
        slot = next(pos_slots) if latt.gram[i][i] > 0 else next(neg_slots)
        cols.append(tuple(Fraction(int(r == slot)) for r in range(ambient_rank)))
    return transpose(cols)


def _embedding_index(embedding, ambient_rank: int) -> int:
    """|H / (H ∩ L)| from the denominators of the embedding matrix."""
    ncols = len(embedding[0])
    den = 1
    for row in embedding:
        for x in row:
            den = math.lcm(den, Fraction(x).denominator)
    m = [[int(Fraction(embedding[r][c]) * den) for c in range(ncols)]
         for r in range(ambient_rank)]
    factors = snf_invariant_factors(m)
    if len(factors) != ncols:
        raise InternalInconsistencyError("embedding is not injective")
    d = 1
    for f in factors:
        d *= den // math.gcd(den, f)
    return d


def _two_squares_embedding(p: int, count_neg: int, ambient: QuadLattice) -> Sublattice:
    """Primitive copy of p*st(1, count_neg) inside the standard lattice,
    one coordinate 2-block per basis vector."""
    a, b = two_squares(p)
    n = ambient.rank
    pos_rank = sum(1 for i in range(n) if ambient.gram[i][i] > 0)
    rows = []
    v = [0] * n
    v[0], v[1] = a, b
    rows.append(tuple(v))
    for j in range(count_neg):
        w = [0] * n
        w[pos_rank + 2 * j] = a
        w[pos_rank + 2 * j + 1] = b
        rows.append(tuple(w))
    sub = span(ambient, rows)
    expected = rescale(diag_lattice(*([1] + [-1] * count_neg)), p)
    if sub.gram() != expected.gram:
        raise InternalInconsistencyError("scaled block embedding has wrong Gram")
    if saturation_index(sub) != 1:
        raise InternalInconsistencyError("scaled block embedding is not primitive")
    return sub


def _intersect_with_image(
    embedding, h_rank: int, lam_sub: Sublattice, source: QuadLattice
) -> Sublattice:
    """{h in H : embedding(h) lies in the embedded scaled lattice}."""
    amb_rank = lam_sub.ambient.rank
    den = 1
    for row in embedding:
        for x in row:
            den = math.lcm(den, Fraction(x).denominator)
    cols = []
    for c in range(h_rank):
        cols.append([int(Fraction(embedding[r][c]) * den) for r in range(amb_rank)])
    for vec in lam_sub.basis:
        cols.append([-den * x for x in vec])
    a = transpose(freeze(cols))  # (amb_rank) x (h_rank + lam_rank)
    kernel = left_kernel(transpose(a))
    h_rows = [row[:h_rank] for row in kernel]
    h_basis, _ = hermite_rows(h_rows)
    return span(source, h_basis)


def _trim_to_signature(
    sub: Sublattice, want_neg: int
) -> Sublattice:
    """Primitive sublattice of signature (1, want_neg) picked from a
    rational diagonalization basis and re-saturated."""
    gram = sub.gram()
    diag, basis = rational_diagonalize(gram)
    pos_idx = [i for i, d in enumerate(diag) if d > 0]
    neg_idx = [i for i, d in enumerate(diag) if d < 0]
    if not pos_idx or len(neg_idx) < want_neg:
        raise InternalInconsistencyError(
            "intersection misses the required signature"
        )
    chosen = [pos_idx[0]] + neg_idx[:want_neg]
    vectors = []
    for col in chosen:
        coords = [basis[r][col] for r in range(sub.rank)]
        den = math.lcm(*[f.denominator for f in coords])
        ints = [int(f * den) for f in coords]
        vectors.append(sub.to_ambient(tuple(ints)))
    return saturate(span(sub.ambient, vectors))


def embed_pipeline(
    source: QuadLattice,
    n_bound: int,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> EmbeddingReport:
    """Primitive sublattice of signature (1, rank/2 - 3) of `source`
    representing no nonzero number of absolute value < n_bound: its Gram
    is 0 mod a prime P > d^2 N, so every nonzero value is a multiple of P.

    Falls back to a certificate-level report (invariants proven, explicit
    matrices absent) when the witness search for the rational embedding
    exceeds its budget.
    """
    b2 = source.rank
    r, s = signature(source)
    if r != 3 or s != b2 - 3:
        raise PreconditionError("source must have signature (3, rank - 3)")
    if b2 < 14:
        raise PreconditionError("rank >= 14 required for the parabolic target")
    if n_bound < 1:
        raise PreconditionError("bound must be >= 1")

    target = (3, b2)
    ambient = standard_lattice(*target)
    ext = extend_to_standard(source, target)

    embedding = None
    certificate_level = False
    if _is_standard_diagonal(source):
        embedding = _standard_inclusion(source, 3, b2 + 3)
    else:
        try:
            t_mat = explicit_rational_isometry(
                direct_sum(source, diag_lattice(ext.b0, ext.b1, ext.b2)).gram,
                ambient.gram,
                limits,
            )
            embedding = tuple(tuple(row[:b2]) for row in t_mat)
        except SearchExhaustedError:
            certificate_level = True

    if certificate_level:
        return EmbeddingReport(
            source=source, ambient=ambient, extension=ext,
            embedding=None, index_d=None, prime=None, lambda_in_source=None,
            sat_index=None, certificate_level=True,
        )

    d = _embedding_index(embedding, b2 + 3)
    p = _next_glue_prime(d * d * n_bound)
    s_lam = b2 // 2
    lam_sub = _two_squares_embedding(p, s_lam, ambient)
    raw = _intersect_with_image(embedding, b2, lam_sub, source)
    sat_idx = saturation_index(raw)
    if sat_idx > d:
        raise InternalInconsistencyError("saturation index exceeds the embedding index")
    sat = saturate(raw)
    want_neg = s_lam - 3
    trimmed = _trim_to_signature(sat, want_neg)
    final_gram = trimmed.gram()
    if signature(QuadLattice(final_gram)) != (1, want_neg):
        raise InternalInconsistencyError("trimmed lattice has wrong signature")
    if not gram_divisible_by(final_gram, p):
        raise InternalInconsistencyError(
            "Gram of the saturation is not divisible by the scaling prime"
        )
    if saturation_index(trimmed) != 1:
        raise InternalInconsistencyError("result is not primitive")
    return EmbeddingReport(
        source=source, ambient=ambient, extension=ext,
        embedding=embedding, index_d=d, prime=p, lambda_in_source=trimmed,
        sat_index=sat_idx, certificate_level=False,
    )


def _next_glue_prime(bound: int) -> int:
    """Smallest prime p > bound with p ≡ 1 (mod 4), so that p is a sum of
    two squares (needed by the two-squares blocks)."""
    for p in primes_from(max(bound + 1, 5)):
        if p % 4 == 1:
            return p
    raise InternalInconsistencyError("unreachable")
