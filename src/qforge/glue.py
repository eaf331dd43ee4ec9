"""Rational extension to a standard form, unimodular gluing, and the
high-rank embedding pipeline.

The pipeline: find three entries b_i with H + <b0, b1, b2> rationally
equivalent to the standard +-1 form I(3, b2), and embed it there
coordinates first: each b_i on negative coordinates of its own as a sum
of at most four squares, each +-1 summand of H on a free coordinate, and
only the rest of H through an explicit rational isometry witness into
the complement of those images. Then embed a P-scaled lattice of
signature (1, s) primitively into I(3, b2), its first two vectors u and
n_0 on coordinates the extension's image misses, so that u +- n_0 are
isotropic vectors of the image of H over Q; the final sublattice is
built around that plane, not searched for an isotropic vector. The
scaled lattice keeps every integral value divisible by P, so the
saturation represents no nonzero number below P / d^2 where d is the
embedding index.
"""
from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from .errors import InternalInconsistencyError, PreconditionError
from .intmath import (
    bezout,
    four_squares,
    is_prime,
    lowest_terms,
    prime_support,
    primes_from,
    product_square_class,
    round_div,
    sqrt_mod,
    two_squares,
)
from .lattice import (
    QuadLattice,
    Sublattice,
    diag_lattice,
    direct_sum,
    gram_apply,
    gram_divisible_by,
    gram_of,
    pairing,
    qvalue,
    rescale,
    saturate,
    saturation_index,
    signature,
    span,
)
from .linalg import (
    det_bareiss,
    freeze,
    hermite_rows,
    identity,
    invert_unimodular,
    left_kernel,
    lll_gram,
    mat_mul,
    mat_vec,
    saturation,
    solve_scaled,
    transpose,
)
from .padic import (
    INF,
    _diag_of,
    _least_admitted,
    _square_classes,
    _triple,
    hasse_invariant,
    hilbert_symbol,
    invariant_triple,
    is_local_square,
    isotropic_or_obstruction,
    isotropic_vector,
    rationally_equivalent,
    solve_prescribed_hilbert,
)


def standard_lattice(pos: int, neg: int) -> QuadLattice:
    return diag_lattice(*([1] * pos + [-1] * neg))


class ExtensionResult(namedtuple("ExtensionResult", "b0 b1 b2 target_signature "
                                                    "augmented_triple standard_triple")):
    """Three extra diagonal entries making H rationally standard, with the
    InvariantTriples of H + <b0, b1, b2> and of the standard form."""

    __slots__ = ()


def _target_options(r: int, s: int) -> list[tuple[int, int]]:
    return [(r + 3, s), (r + 2, s + 1), (r + 1, s + 2), (r, s + 3)]


_SIGN_PATTERNS = {0: (1, 1, 1), 1: (1, 1, -1), 2: (-1, -1, 1), 3: (-1, -1, -1)}


def extend_to_standard(
    latt: QuadLattice, target_signature: tuple[int, int]
) -> ExtensionResult:
    """(b0, b1, b2) with diag(H) + (b0, b1, b2) rationally equivalent to the
    +-1 diagonal form of the target signature; always re-verified through
    the full invariant triple."""
    diag, primes = _diag_of(latt)
    r = sum(1 for d in diag if d > 0)
    s = len(diag) - r
    if target_signature not in _target_options(r, s):
        raise PreconditionError(
            f"target {target_signature} is not reachable by adding three entries"
        )
    t = target_signature[1]
    k = t - s
    signs = _SIGN_PATTERNS[k]

    d_class = product_square_class(diag, primes)
    c = (-1) ** (t + 1) * d_class
    places = primes | {INF}
    std_diag = [1] * target_signature[0] + [-1] * t
    s_map: dict = {}
    for place in sorted(places):
        s_map[place] = (
            hasse_invariant(std_diag, place)
            * hasse_invariant(diag, place)
            * hilbert_symbol(d_class, (-1) ** (t + 1), place)
        )
    if math.prod(s_map.values()) != 1:
        raise InternalInconsistencyError("required local signs violate the product formula")

    # b1 must have (c b0, b1)_v = s_v (b0, c)_v at every place, and -1 is
    # possible only where c b0 is not a square. At a prime of b0 outside the
    # places c b0 has odd valuation, so b0 is the least squarefree number
    # with an admitted class at each place and the sign of the pattern.
    admitted = {v: {b for b in _square_classes(v)
                    if s_map[v] * hilbert_symbol(b, c, v) == 1 or not is_local_square(c * b, v)}
                for v in s_map if v != INF}
    admitted[INF] = {signs[0]}
    b0 = _least_admitted(list(s_map), admitted)
    targets = {v: s_map.get(v, 1) * hilbert_symbol(b0, c, v)
               for v in set(s_map) | set(prime_support(b0))}
    b1 = solve_prescribed_hilbert(c * b0, targets, sign=signs[1])
    primes |= prime_support(b0) | prime_support(b1)
    b2 = product_square_class([(-1) ** t * d_class, b0, b1], primes)
    aug_triple = _triple(diag + [b0, b1, b2], primes)
    std_triple = invariant_triple(std_diag)
    if aug_triple != std_triple:
        raise InternalInconsistencyError(
            f"the extension ({b0}, {b1}, {b2}) is not rationally standard")
    return ExtensionResult(
        b0=b0, b1=b1, b2=b2,
        target_signature=target_signature,
        augmented_triple=aug_triple,
        standard_triple=std_triple,
    )


# ---------------------------------------------------------------------------
# Explicit rational isometry witnesses


def explicit_rational_isometry(g1, g2) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, d) with T = M / d a rational T with T^T G2 T == G1, M integral and
    d > 0, built one basis vector at a time.

    The basis of G1 is first changed unimodularly so that no leading minor
    vanishes; then each basis vector gets an image with the prescribed
    pairings to the earlier images and the prescribed q-value
    (_next_image). Witt cancellation makes every step possible. The
    earlier images' pairings are carried from step to step as one
    triangular system and a reduced basis of their common kernel (_Flag),
    which each image updates by one row: no step takes a Smith form or
    reduces a fresh kernel. The images are kept as near to integral as the
    construction allows: their denominators make up the embedding index d,
    and Eichler transformations keep their entries small (_eichler_reduce)
    on both routes below. Everything is carried as integer vectors over a
    common denominator.

    A step whose complement is anisotropic has to represent its value
    there, and the representation's denominator enters every later
    complement's discriminant; chained, those grow to hundreds of digits
    and their square classes cannot be factored. So representing is left to
    the last two steps. When an earlier complement is anisotropic, the
    images are made again in G2 + U, where every complement keeps a
    hyperbolic plane, and then all are moved back into G2 (_cancel_plane).
    """
    g1 = freeze(g1)
    g2 = freeze(g2)
    if not rationally_equivalent(g1, g2):
        raise PreconditionError("forms are not rationally equivalent")
    u = _nondegenerate_flag(QuadLattice(g1))
    h = mat_mul(u, mat_mul(g1, transpose(u)))
    images = _flag_images(QuadLattice(g2), h)
    if len(images) < len(h):
        ambient = direct_sum(QuadLattice(g2), QuadLattice(((0, 1), (1, 0))))
        images = _cancel_plane(ambient, _flag_images(ambient, h))
    # T u_k = images_k for the rows u_k of U, so T = M U^-T with M's columns
    # the images; with their common denominator d, dT = (dM) U^-T is integral
    d = math.lcm(*(s for _, s in images))
    dm = transpose([[c * (d // s) for c in x] for x, s in images])
    dt = mat_mul(dm, transpose(invert_unimodular(u)))
    if gram_of(QuadLattice(g2), transpose(dt)) != freeze([[d * d * x for x in row] for row in g1]):
        raise InternalInconsistencyError("witness fails the exact congruence")
    return dt, d


def _flag_images(ambient: QuadLattice, h):
    """The images (x, s) in ambient, x / s in lowest terms, of the flag with
    Gram h; they stop short before the first complement of rank above 2
    that is anisotropic, which never comes in G2 + U. One _Flag carries
    the earlier images' pairings from step to step."""
    images = []
    n = ambient.rank
    flag = _Flag(dens=[], pivots=[], lower=[], kernel=identity(n), euclid=identity(n))
    for k, row in enumerate(h):
        image = _next_image(ambient, flag, row[:k], row[k])
        if image is None:
            break
        images.append(image)
        if k + 1 < len(h):
            _flag_extend(flag, *lowest_terms(gram_apply(ambient, image[0]), image[1]))
    return images


class _Flag:
    """The integer pairings of the images made so far, f_i / den_i = G2
    image_i in lowest terms, kept as a unimodular basis [v | Z] of the
    ambient: pivots v_j with f_i . v_j = 0 for i < j, so that lower[i][j] =
    f_i . v_j (j <= i) is lower triangular with a positive diagonal, and the
    complement Z = {z : f_i . z = 0 for all i} as LLL-reduced rows (kernel)
    with their Euclidean Gram (euclid). Hermite and kernels: Cohen, GTM 138,
    sec. 2.4."""

    __slots__ = ("dens", "pivots", "lower", "kernel", "euclid")

    def __init__(self, dens: list, pivots: list, lower: list, kernel: tuple, euclid: tuple):
        self.dens, self.pivots, self.lower, self.kernel, self.euclid = (
            dens, pivots, lower, kernel, euclid)


def _flag_extend(flag: _Flag, f, den: int) -> None:
    """Add the functional f / den. Row operations on Z (Euclid on f's values,
    the least nonzero value reducing the others) leave one row, the new
    pivot, pairing gcd(values) with f, and the others in f's kernel; the
    reduction then takes that nearly reduced basis to a reduced one."""
    rows = [list(z) for z in flag.kernel]
    gram = [list(r) for r in flag.euclid]
    values = [_dot(z, f) for z in rows]
    while True:
        live = [i for i, a in enumerate(values) if a]
        if not live:
            raise InternalInconsistencyError("the images are linearly dependent")
        p = min(live, key=lambda i: (abs(values[i]), i))
        if len(live) == 1:
            break
        for i in live:
            q = round_div(values[i], values[p]) if i != p else 0
            if q:  # z_i -= q z_p, in the rows, the values and the Gram
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[p])]
                values[i] -= q * values[p]
                gram[i] = [a - q * b for a, b in zip(gram[i], gram[p])]
                for row in gram:
                    row[i] -= q * row[p]
    sign = 1 if values[p] > 0 else -1
    flag.lower.append([_dot(f, v) for v in flag.pivots] + [sign * values[p]])
    flag.pivots.append([sign * a for a in rows.pop(p)])
    flag.dens.append(den)
    del gram[p]
    for row in gram:
        del row[p]
    h, flag.euclid, _ = lll_gram(gram)
    flag.kernel = mat_mul(h, rows)


def _flag_solve(flag: _Flag, pairs) -> tuple[list[int], int]:
    """(x0, den) with b(x0 / den, image_i) = pairs_i for every image of the
    flag, den > 0 the least such: x0 = sum t_j v_j with L t = (pairs_i
    den_i), forward substitution carried over one denominator, which takes
    on only the factor each pivot forces."""
    coeffs, den = [], 1  # t_j = coeffs_j / den
    for row, p, fden in zip(flag.lower, pairs, flag.dens):
        num = den * p * fden - _dot(row, coeffs)  # row's last entry meets no coefficient
        q = row[-1] // math.gcd(num, row[-1])
        coeffs = [c * q for c in coeffs] + [num * q // row[-1]]
        den *= q
    x0 = [_dot(col, coeffs) for col in zip(*flag.pivots)] or [0] * len(flag.kernel[0])
    return x0, den


def _cancel_plane(ambient: QuadLattice, images) -> list[tuple[list[int], int]]:
    """The images, made in ambient = G2 + U, moved into G2 by an isometry.

    Their complement W is a hyperbolic plane (Witt), so its two isotropic
    lines are the roots of its binary form. With w1, w2 a hyperbolic pair
    of W and h1, h2 that of U (the last two coordinates), at most two
    reflections take w1 to h1 (Scharlau, Quadratic and Hermitian Forms,
    ch. 1, 5.3: through an isotropic z pairing nonzero with both), and the
    Eichler transformation E(x) = x + b(x, h1) u - b(x, u) h1 -
    q(u) / 2 b(x, h1) h1 with u = h2 - w2', which fixes h1, takes the moved
    w2' to h2. The isometry maps W onto U, so the images into G2, where
    their last two coordinates are 0."""
    n = ambient.rank
    g = ambient.gram
    kernel = left_kernel(transpose([mat_vec(g, x) for x, _ in images]))
    (a, b0), (_, c) = gram_of(ambient, kernel)
    r = math.isqrt(max(b0 * b0 - a * c, 0))
    if r == 0 or r * r != b0 * b0 - a * c:
        raise InternalInconsistencyError("the complement of the images is not a hyperbolic plane")
    lines = [(1, 0), (c, -2 * b0)] if a == 0 else [(r - b0, a), (-r - b0, a)]
    w1, w2 = (mat_vec(transpose(kernel), e) for e in lines)
    beta = _dot(w1, mat_vec(g, w2))  # (w1, w2 / beta) is a hyperbolic pair
    # the images, w1 and w2 / beta as integer rows over one denominator
    den = math.lcm(beta, *(s for _, s in images))
    rows = [[c * (den // s) for c in x] for x, s in images]
    rows += [[den * c for c in w1], [den // beta * c for c in w2]]
    h1, h2 = ([int(i == j) for i in range(n)] for j in (n - 2, n - 1))
    gh1, gh2 = mat_vec(g, h1), mat_vec(g, h2)

    def reflect(rows, den, v):  # x - 2 b(x, v) / q(v) v
        gv = mat_vec(g, v)
        qv = _dot(v, gv)
        rows = [[qv * xi - 2 * _dot(x, gv) * vi for xi, vi in zip(x, v)] for x in rows]
        return _reduce_rows(rows, den * qv)

    x, y = rows[-2], rows[-1]
    hd1, hd2 = [den * c for c in h1], [den * c for c in h2]
    if _dot(x, gh1):
        mirrors = [_sub(x, hd1)]
    elif _dot(x, gh2):
        mirrors = [_sub(x, hd2), _sub(hd2, hd1)]
    elif _dot(y, gh1):
        mirrors = [_sub(x, y), _sub(y, hd1)]
    else:  # z = w2 + h2 - b(w2, h2) / 2 (w1 + h1) is isotropic, b(w1, z) = b(z, h1) = 1
        z = [2 * den * (yi + ai) - _dot(y, gh2) * (xi + ci)
             for xi, yi, ai, ci in zip(x, y, hd2, hd1)]  # over 2 den^2
        mirrors = [_sub([2 * den * xi for xi in x], z), _sub(z, [2 * den * c for c in hd1])]
    for v in mirrors:
        rows, den = reflect(rows, den, v)
    # the Eichler transformation with u = U / den, U = den h2 - w2', over 2 den^3
    big_u = _sub([den * c for c in h2], rows[-1])
    gu = mat_vec(g, big_u)
    quu = _dot(big_u, gu)
    rows = [[2 * den * den * xi + 2 * den * _dot(x, gh1) * ui
             - (2 * den * _dot(x, gu) + quu * _dot(x, gh1)) * hi
             for xi, ui, hi in zip(x, big_u, h1)] for x in rows]
    rows, den = _reduce_rows(rows, 2 * den * den * den)
    if rows[-2] != [den * c for c in h1] or rows[-1] != [den * c for c in h2]:
        raise InternalInconsistencyError("the plane was not moved onto U")
    if any(x[-2:] != [0, 0] for x in rows[:-2]):
        raise InternalInconsistencyError("the moved images leave G2")
    return [lowest_terms(x[:-2], den) for x in rows[:-2]]


def _sub(x, y):
    return [a - c for a, c in zip(x, y)]


def _reduce_rows(rows, den):
    g = math.gcd(den, *(c for x in rows for c in x))
    return [[c // g for c in x] for x in rows], den // g


def _nondegenerate_flag(latt: QuadLattice) -> list[list[int]]:
    """Rows of a unimodular U with every leading minor of U G U^T nonzero,
    each as small as the greedy choice allows: the next row is the
    remaining basis vector whose projection off the earlier rows has the
    least nonzero |q| (first in order on ties), which keeps the complements
    of explicit_rational_isometry close to unimodular. When every remaining
    projection is isotropic, e_i + e_j for the first remaining i, j with a
    nonzero one, which exists as the form is non-degenerate.

    Fraction-free Gram-Schmidt: with D the Gram determinant of the chosen
    rows, D o and D q(o) are integral (Cramer), and each update divides
    exactly by the previous D (Bareiss)."""
    # pool: index -> [row, D o for its projection o off the chosen rows, D q(o)]
    pool = {i: [list(r), list(r), latt.gram[i][i]] for i, r in enumerate(identity(latt.rank))}
    rows = []
    det = 1
    while pool:
        live = [i for i in pool if pool[i][2]]
        if live:
            row, o, qo = pool.pop(min(live, key=lambda i: (abs(pool[i][2]), i)))
        else:
            # q(o_i +- o_j) = +-2 b(o_i, o_j) for isotropic o_i, o_j: the sign -1
            # succeeds only where +1 does
            i, *rest = sorted(pool)
            for j in rest:
                o = [a + b for a, b in zip(pool[i][1], pool[j][1])]
                qo = qvalue(latt, o) // det
                if qo:
                    row = [a + b for a, b in zip(pool[i][0], pool[j][0])]
                    break
            del pool[i]
        rows.append(row)
        go = mat_vec(latt.gram, o)
        for entry in pool.values():
            b = _dot(entry[1], go) // det
            entry[1] = [(qo * x - b * y) // det for x, y in zip(entry[1], o)]
            entry[2] = (qo * entry[2] - b * b) // det
        det = qo
    return rows


def _dot(x, y):
    return sum(map(mul, x, y))


def _next_image(ambient: QuadLattice, flag: _Flag, pairs, value) -> tuple[list[int], int] | None:
    """(x, s) with b(x / s, image_j) = pairs_j for the flag's images and
    q(x / s) = value, the Gram of the images plus x / s non-degenerate;
    s > 0 and gcd(x, s) = 1. None when the complement K is anisotropic and
    of rank above 2: only the last two steps represent.

    x = x0 + z: x0 solves the pairings over the least denominator
    (_flag_solve), and z lies in K, whose reduced integral basis the flag
    holds. When K is isotropic, z = z0 + lambda e with e isotropic, z0 in K
    making b(x0 + z0, e) the least positive value of its class mod b(K, e),
    so that lambda has a small denominator, and the image is then made
    small (_eichler_reduce). Otherwise x0's projection to K is replaced by
    a representation y / s of the value num / den left for K, (y, s) an
    isotropic vector of den G_K + <-num>. Rational vectors are integer
    vectors over a denominator named with them.
    """
    x0, den = _flag_solve(flag, pairs)
    kernel = flag.kernel
    kernel_t = transpose(kernel)
    # x0 minus the rounded Euclidean projection of x0 to K: same pairings, small
    # entries; the projection's coordinates are shift / (det den)
    shift, det = solve_scaled(flag.euclid, [[_dot(row, x0)] for row in kernel])
    shift = [round_div(c, det * den) for c, in shift]
    x0 = [x - den * _dot(col, shift) for x, col in zip(x0, kernel_t)]
    gram_k = gram_of(ambient, kernel)
    e = isotropic_or_obstruction(gram_k)
    if isinstance(e, tuple):
        e = mat_vec(kernel_t, e)
        c, g = bezout(mat_vec(kernel, gram_apply(ambient, e)))
        c = mat_vec(kernel_t, c)  # b(c, e) = g
        b0 = pairing(ambient, x0, e)
        t = b0 % (den * g) or den * g  # b(x0 / den, e) mod g, in (0, g], times den
        x0 = [x - (b0 - t) // g * ci for x, ci in zip(x0, c)]
        if (value * den * den - qvalue(ambient, x0)) % (2 * den * den) and t == den:
            # an odd vector of K orthogonal to e flips the parity, so lambda is integral
            flip = next((z for z in left_kernel([[pairing(ambient, row, e)] for row in kernel])
                         if qvalue(QuadLattice(gram_k), z) % 2), None)
            if flip is not None:
                x0 = [x + den * zi for x, zi in zip(x0, mat_vec(kernel_t, flip))]
        # x0 / den + lambda e with lambda = (value - q(x0 / den)) / (2 t / den)
        num = value * den * den - qvalue(ambient, x0)
        x0, num = _eichler_reduce(ambient, kernel, e, x0, num, t)
        return lowest_terms([2 * t * x + num * ei for x, ei in zip(x0, e)], 2 * t * den)
    if len(kernel) > 2:
        return None
    # x0 = p + r with r in K_Q; keep p, and put a representation y in place of r
    coords, det = solve_scaled(gram_k, [[pairing(ambient, row, x0)] for row in kernel])
    r = mat_vec(kernel_t, [c for c, in coords])
    p = [det * x - ri for x, ri in zip(x0, r)]  # p / (det den)
    pden = det * den
    # q(y / s) = num / pden^2; s != 0 as K is anisotropic
    num = value * pden * pden - qvalue(ambient, p)
    *y, s = isotropic_vector([[pden * pden * g for g in row] + [0] for row in gram_k]
                             + [[0] * len(kernel) + [-num]])
    return lowest_terms([s * pi + pden * yi for pi, yi in zip(p, mat_vec(kernel_t, y))],
                         pden * s)


def _eichler_reduce(ambient: QuadLattice, kernel, e, x0, num: int, t: int):
    """(x0', num') with 2t x0' + num' e the image of 2t x0 + num e under
    Eichler transformations E(x) = x + b(x, e) u - b(x, u) e - q(u) / 2
    b(x, e) e for u = a f, f in K orthogonal to e. They fix everything
    orthogonal to K, so the image keeps its pairings and q-value, and with
    b(x0, e) = t: x0' = x0 + t a f, num' = num - 2 t a b(x0, f) - a^2 q(f) t^2.
    Each a is the integer nearest a root of num' (or its vertex), even when
    q(f) t is odd so that num' = num mod 2t; taken while the vector shrinks.

    Without this, lambda = num / 2t grows as q(x0), and x0 as the earlier
    images, so that the entries about double from step to step."""
    if max(map(abs, e)) * abs(num) <= 2 * t * max(map(abs, x0)):
        return x0, num  # lambda e does not dominate: nothing to gain
    orth = left_kernel([[pairing(ambient, row, e)] for row in kernel])
    orth = mat_mul(orth, kernel)
    if not orth:
        return x0, num
    h, _, _ = lll_gram(mat_mul(orth, transpose(orth)))
    before = qvalue(ambient, [2 * t * x + num * c for x, c in zip(x0, e)])
    for f in mat_mul(h, orth):
        qf = qvalue(ambient, f)
        if qf == 0:
            continue
        beta = pairing(ambient, x0, f)
        disc = beta * beta + qf * num
        guesses = [-beta // (qf * t)]
        if disc >= 0:
            r = math.isqrt(disc)
            guesses += [(-beta + r) // (qf * t), (-beta - r) // (qf * t)]
        best = None
        for a in sorted({g + d for g in guesses for d in (-1, 0, 1, 2)}):
            if qf * t % 2 and a % 2:
                continue
            cand = num - 2 * t * a * beta - a * a * qf * t * t
            if best is None or abs(cand) < abs(best[1]):
                best = (a, cand)
        a, cand = best
        new = [x + t * a * c for x, c in zip(x0, f)]
        if _size(new, cand, e, t) < _size(x0, num, e, t):
            x0, num = new, cand
    if qvalue(ambient, [2 * t * x + num * c for x, c in zip(x0, e)]) != before:
        raise InternalInconsistencyError("the Eichler transformations changed q")
    return x0, num


def _size(x0, num, e, t) -> int:
    return max(abs(2 * t * x + num * c) for x, c in zip(x0, e)).bit_length()


# ---------------------------------------------------------------------------
# Nikulin-style gluing


class GlueData(namedtuple("GlueData", "lam lam_prime overlattice anti_isometry "
                                      "lam_embedding lam_prime_embedding")):
    """Unimodular overlattice of lam ⊕ lam_prime along a graph of an
    anti-isometry of discriminant groups, all three QuadLattices. The
    anti-isometry acts on dual generators, e_i / P -> u_i * e'_j / P, as a
    tuple of (i, u_i, j); each embedding holds its lattice's basis in
    overlattice coordinates."""

    __slots__ = ()


def _parse_scaled_diagonal(latt: QuadLattice) -> tuple[int | None, list[int]]:
    """(P, eps): the scaling prime and the signs of the +-P entries of a
    diagonal lattice with entries in {+-1, +-P}, P an odd prime."""
    n = latt.rank
    for i in range(n):
        for j in range(n):
            if i != j and latt.gram[i][j] != 0:
                raise PreconditionError("gluing supports diagonal lattices only")
    p = None
    eps: list[int] = []
    for i in range(n):
        e = latt.gram[i][i]
        if abs(e) != 1:
            if not is_prime(abs(e)):
                raise PreconditionError(f"diagonal entry {e} is not +-1 or +-prime")
            if abs(e) == 2:
                raise PreconditionError("discriminant group has 2-torsion")
            if p is None:
                p = abs(e)
            elif p != abs(e):
                raise PreconditionError("multiple scaling primes are unsupported")
            eps.append(1 if e > 0 else -1)
    return p, eps


def nikulin_glue(
    lam: QuadLattice, target_signature: tuple[int, int]
) -> GlueData:
    """Glue lam with a partner of opposite discriminant form into an odd
    unimodular overlattice of the target signature (Nikulin's overlattice
    construction).

    Supported family: P * (odd unimodular diagonal) ⊕ (unimodular
    diagonal) for a single odd prime P. The partner is P * diag(delta)
    plus a +-1 filler, and e_i / P -> u_i e'_i / P is an anti-isometry
    when u_i^2 = -eps_i delta_i mod P. For P = 3 mod 4, -1 is a non-residue,
    so delta = -eps is forced; for P = 1 mod 4 every sign admits a unit, and
    delta is eps with its last signs flipped to the count of plus signs
    nearest eps's that the target leaves room for. Every output is verified
    (determinant, signature, oddness, primitivity, glue isotropy).
    """
    p, eps = _parse_scaled_diagonal(lam)
    pos, neg = signature(lam)
    if pos != 1:
        raise PreconditionError("lam must have signature (1, s)")
    r_t, s_t = target_signature
    if 2 * lam.rank >= r_t + s_t:
        raise PreconditionError("need 2 * rank(lam) < rank(target)")
    if r_t < 1 or s_t < 1:
        raise PreconditionError("target must be indefinite")
    need_pos, need_neg = r_t - pos, s_t - neg
    if need_pos < 0 or need_neg < 0:
        raise PreconditionError("target signature too small for lam")

    if p is None:
        return _assemble_glue(lam, standard_lattice(need_pos, need_neg), p=None, pairs=[])

    if p % 4 == 3:
        delta = [-e for e in eps]
        if delta.count(1) > need_pos or delta.count(-1) > need_neg:
            raise PreconditionError(
                f"P = {p} is 3 mod 4, which forces the partner signs {delta}: "
                f"they leave no room for the target signature {target_signature}")
    else:
        # the count lies in [m - need_neg, need_pos], which is not empty:
        # need_pos + need_neg = rank(target) - rank(lam) > rank(lam) >= m
        m, k_eps = len(eps), eps.count(1)
        want = min(max(k_eps, m - need_neg), need_pos) - k_eps
        flip = [i for i, e in enumerate(eps) if e == (-1 if want > 0 else 1)]
        flip = flip[len(flip) - abs(want):]
        delta = [-e if i in flip else e for i, e in enumerate(eps)]
    # the odd representative of {root, p - root} makes the glue generator's
    # q-value even, not merely integral
    units = [root if root % 2 else p - root
             for root in (sqrt_mod(-e * d % p, p) for e, d in zip(eps, delta))]
    lam_prime = direct_sum(rescale(diag_lattice(*delta), p),
                           standard_lattice(need_pos - delta.count(1),
                                            need_neg - delta.count(-1)))
    return _assemble_glue(lam, lam_prime, p=p, pairs=[(i, u, i) for i, u in enumerate(units)])


def _assemble_glue(lam, lam_prime, p, pairs) -> GlueData:
    n1, n2 = lam.rank, lam_prime.rank
    n = n1 + n2
    total = direct_sum(lam, lam_prime)
    lam_p_indices = [i for i in range(n1) if abs(lam.gram[i][i]) != 1]
    lp_p_indices = [i for i in range(n2) if abs(lam_prime.gram[i][i]) != 1]
    glue_rows: list[list[int]] = []
    for i, u, j in pairs:
        row = [0] * n
        row[lam_p_indices[i]] = 1
        row[n1 + lp_p_indices[j]] = u
        glue_rows.append(row)
        # glue isotropy: integral, and even thanks to the odd-unit choice
        a = lam.gram[lam_p_indices[i]][lam_p_indices[i]]
        b = lam_prime.gram[lp_p_indices[j]][lp_p_indices[j]]
        if (a + u * u * b) % (2 * p * p):
            raise InternalInconsistencyError("glue generator is not isotropic mod 2Z")

    # the overlattice basis is h / scale
    scale = p if pairs else 1
    h, rank = hermite_rows([[scale * int(i == j) for j in range(n)] for i in range(n)]
                           + glue_rows)
    if rank != n:
        raise InternalInconsistencyError("overlattice generators do not span")
    gram_o = gram_of(total, h)
    if any(x % (scale * scale) for row in gram_o for x in row):
        raise InternalInconsistencyError("overlattice is not integral")
    over = QuadLattice(freeze([[x // (scale * scale) for x in row] for row in gram_o]))

    if abs(det_bareiss(over.gram)) != 1:
        raise InternalInconsistencyError("overlattice is not unimodular")
    if over.is_even():
        raise InternalInconsistencyError("overlattice is not odd")
    sig_l, sig_lp = signature(lam), signature(lam_prime)
    if signature(over) != (sig_l[0] + sig_lp[0], sig_l[1] + sig_lp[1]):
        raise InternalInconsistencyError("signature is not additive")

    # the coordinates X of the factors' basis vectors: X h / scale = I, so
    # h^T X^T = scale I, solved as h^T Y = D scale I with X^T = Y / D
    y, den = solve_scaled(transpose(h), [[scale * int(i == j) for j in range(n)]
                                         for i in range(n)])
    if any(x % den for row in y for x in row):
        raise InternalInconsistencyError("factor does not sit inside the overlattice")
    coords = freeze([x // den for x in col] for col in zip(*y))
    lam_embed, lp_embed = coords[:n1], coords[n1:]
    for embed in (lam_embed, lp_embed):
        if saturation(embed)[1] != 1:
            raise InternalInconsistencyError("factor is not primitively embedded")
    return GlueData(
        lam=lam,
        lam_prime=lam_prime,
        overlattice=over,
        anti_isometry=tuple(pairs),
        lam_embedding=lam_embed,
        lam_prime_embedding=lp_embed,
    )


# ---------------------------------------------------------------------------
# The embedding pipeline


class EmbeddingReport(namedtuple("EmbeddingReport", "extension embedding embedding_den "
                                                    "index_d prime lambda_in_source v a")):
    """The ExtensionResult; source basis -> ambient coords as the rational
    matrix embedding / embedding_den; the Sublattice lambda_in_source and,
    in its basis, v isotropic and a orthogonal to v with q(a) < 0."""

    __slots__ = ()


def _coordinates_first(source: QuadLattice, ext: ExtensionResult, ambient: QuadLattice):
    """(M, den): the source basis into the +-1 diagonal ambient as the
    columns of the integer matrix M over den, with the source plus the
    extension <b0, b1, b2> mapped isometrically.

    The witness is asked only for what coordinates cannot hold. Each b_i
    goes first onto coordinates of its sign taken from the end, its
    |b_i| a sum of at most four squares (intmath.four_squares); then each
    basis vector spanning a +-1 summand (its Gram row +-1 on the diagonal,
    0 elsewhere) takes the first free coordinate of its sign. The rest R
    of the source is rationally equivalent to the complement C of all
    those images (Witt cancellation), so explicit_rational_isometry(R, C)
    places it there. C is spanned by the coordinates left free and, in
    the coordinates of each b_i, the LLL-reduced complement of its roots:
    when every |b_i| = 1, C is the diagonal form on the free coordinates.
    The extension's images lie on coordinates of their own sign only, so
    they stay orthogonal to every coordinate of the other sign."""
    n = ambient.rank
    free = {1: [], -1: []}  # the free coordinates of each sign, ascending
    for j in range(n):
        free[ambient.gram[j][j]].append(j)

    def spread(coords, values):  # the ambient vector with these values at these coordinates
        row = [0] * n
        for j, c in zip(coords, values):
            row[j] = c
        return row

    extension, blocks = [], []  # the images of b0, b1, b2; their coordinates and roots
    for b in (ext.b0, ext.b1, ext.b2):
        roots = four_squares(abs(b))
        slots = free[1 if b > 0 else -1]
        if len(roots) > len(slots):
            raise InternalInconsistencyError(f"no room for the extension entry {b}")
        blocks.append((slots[-len(roots):], roots))
        del slots[-len(roots):]
        extension.append(spread(*blocks[-1]))
    units, rest = {}, []  # units: source index -> its coordinate
    for i, row in enumerate(source.gram):
        slots = free[row[i]] if abs(row[i]) == 1 else None
        if slots and all(x == 0 for j, x in enumerate(row) if j != i):
            units[i] = slots.pop(0)
        else:
            rest.append(i)
    den, placed = 1, []
    if rest:
        comp = [spread([j], [1]) for j in sorted(free[1] + free[-1])]
        for coords, roots in blocks:
            if len(roots) > 1:
                kernel = left_kernel([[c] for c in roots])
                h, _, _ = lll_gram(mat_mul(kernel, transpose(kernel)))
                comp += [spread(coords, z) for z in mat_mul(h, kernel)]
        m, den = explicit_rational_isometry(
            [[source.gram[i][j] for j in rest] for i in rest], gram_of(ambient, comp))
        placed = mat_mul(transpose(m), comp)  # the images of R's basis, over den
    placed = iter(placed)
    cols = [spread([units[i]], [den]) if i in units else next(placed)
            for i in range(source.rank)]
    full = direct_sum(source, diag_lattice(ext.b0, ext.b1, ext.b2)).gram
    if gram_of(ambient, cols + [[den * x for x in row] for row in extension]) != freeze(
            [[den * den * x for x in row] for row in full]):
        raise InternalInconsistencyError("the embedding fails the exact congruence")
    return transpose(cols), den


def _embedding_index(m, den: int) -> int:
    """d = |H / (H ∩ L)| for the n x k embedding matrix m / den of H = Z^k
    into L = Z^n, m integral and den > 0, not necessarily in lowest terms:
    H ∩ L is {x : m x = 0 mod den}, so with f_i the invariant factors of m,
    d = prod den / gcd(den, f_i) = den^k / [Z^k : rows(m) + den Z^k]. The
    embedding is injective exactly when m has rank k. Then the Hermite form
    R of m is k x k with the same rows, and that index is the diagonal
    product of the Hermite form of [R mod den; den I_k], since den Z^k lies
    in the lattice."""
    k = len(m[0])
    r, rank = hermite_rows(m)
    if rank != k:
        raise InternalInconsistencyError("embedding is not injective")
    h, _ = hermite_rows([*([x % den for x in row] for row in r),
                         *([den * (i == j) for j in range(k)] for i in range(k))])
    return den ** k // math.prod(h[i][i] for i in range(k))


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
    if sub.gram() != rescale(standard_lattice(1, count_neg), p).gram:
        raise InternalInconsistencyError("scaled block embedding has wrong Gram")
    if saturation_index(sub) != 1:
        raise InternalInconsistencyError("scaled block embedding is not primitive")
    return sub


def _parabolic_sublattice(source: QuadLattice, relations, rank: int, p: int):
    """(K, v, a): K of signature (1, rank - 1), saturated in H, built
    around the isotropic plane of u +- n_0, from the relations (h | c) with
    (m / den) h = sum c_j lam_j, h in H and c in Lambda's coordinates
    (u, n_0, n_1, ...). The relations with c proportional to (1, +-1, 0,
    ...) give isotropic v, v' of H with b(v, v') != 0, and those with c_0 =
    c_1 = 0 the negative definite rest, orthogonal to both. K saturates v,
    v' and the first rank - 2 vectors of the LLL-reduced rest; a is the
    first of those, with q(a) < 0. v and a are in K's basis. No step is a
    search."""
    hs = [row[:source.rank] for row in relations]
    cs = [row[source.rank:] for row in relations]

    def where(conditions):  # the h-parts of the relations whose c meets the conditions
        return mat_mul(left_kernel([conditions(c) for c in cs]), hs)

    lines = [where(lambda c: [c[0] - c[1], *c[2:]]), where(lambda c: [c[0] + c[1], *c[2:]])]
    rest = where(lambda c: c[:2])
    if [len(line) for line in lines] != [1, 1] or len(rest) < rank - 2:
        raise InternalInconsistencyError("u +- n_0 or the rest of Lambda miss the image of H")
    h, _, _ = lll_gram([[-x for x in row] for row in gram_of(source, rest)])
    reduced = mat_mul(h, rest)[:rank - 2]
    k = saturate(span(source, [lines[0][0], lines[1][0], *reduced]))

    def coords(x):  # x's primitive multiple in K's basis: the relation y B + t x = 0 has t = +-1
        (*y, t), = left_kernel([*k.basis, x])
        return tuple(-t * c // math.gcd(*y) for c in y)

    v, a = coords(lines[0][0]), coords(reduced[0])
    latt = k.as_lattice()
    if signature(latt) != (1, rank - 1) or qvalue(latt, v) or not gram_divisible_by(latt.gram, p):
        raise InternalInconsistencyError("K is not of signature (1, rank - 1), 0 mod P, around v")
    return k, v, a


def embed_pipeline(source: QuadLattice, n_bound: int) -> EmbeddingReport:
    """Primitive sublattice of signature (1, rank/2 - 3) of `source`
    representing no nonzero number of absolute value < n_bound: its Gram
    is 0 mod a prime P > d^2 N, so every nonzero value is a multiple of P.

    The source H, with its extension <b0, b1, b2> (all negative for the
    target (3, b2)), goes into I(3, b2) by _coordinates_first: the b_i on
    negative coordinates from the end, the +-1 summands of H on free
    coordinates, the rest through the witness; d is the index of H in its
    integral part. The P-scaled lattice Lambda of signature (1, s), s =
    b2 / 2, sits on two-squares blocks: u on the first two positive
    coordinates, n_0 on the first two negative ones. The extension's image
    N takes at most 12 negative coordinates from the end, so for b2 >= 14
    u +- n_0 are isotropic vectors of N-perp, the image of H over Q, and
    K is built around them (_parabolic_sublattice) from one left kernel.
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

    embedding, den = _coordinates_first(source, ext, ambient)
    d = _embedding_index(embedding, den)
    p = _next_glue_prime(d * d * n_bound)
    s_lam = b2 // 2
    lam_sub = _two_squares_embedding(p, s_lam, ambient)
    # the relations (h | c) of (m / den) h = sum c_j lam_j: the h in H landing in Lambda
    relations = left_kernel(list(transpose(embedding))
                            + [[-den * x for x in vec] for vec in lam_sub.basis])
    k, v, a = _parabolic_sublattice(source, relations, s_lam - 2, p)
    return EmbeddingReport(
        extension=ext, embedding=embedding, embedding_den=den, index_d=d, prime=p,
        lambda_in_source=k, v=v, a=a,
    )


def _next_glue_prime(bound: int) -> int:
    """Smallest prime p > bound with p ≡ 1 (mod 4), so that p is a sum of
    two squares (needed by the two-squares blocks)."""
    return next(p for p in primes_from(max(bound + 1, 5)) if p % 4 == 1)
